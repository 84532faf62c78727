"""Paired replay simulations, synthetic corpora, and run reports.

A run replays a comment stream conversation by conversation, either
admitting everything immediately (no queue) or through the full queuing
engine, and reports admission counts, hold durations, the final emotion
board (averaged over conversations), and the cumulative influence-weighted
emotion mass admitted over time ("spread"). Paired runs over the same
stream feed :func:`compare`, which reports the relative reduction in final
anger+fear spread plus a one-second-binned hold-duration histogram.

Synthetic corpora are generated deterministically from a seed: comment
text is composed from the word lexicon so that classification recovers the
intended emotion and intensity, troll comments carry high-intensity
anger/disgust and cluster toward the end of a thread (escalation), and
replies to trolls can catch anger (contagion). Each conversation draws its
randomness as a fixed sequence of bulk arrays, so corpora are stable across
platforms for a given (spec, seed).
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import multiprocessing
import os
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from . import congraph, ingest
from .congraph import EmotionBoard, InfluenceWeights
from .emolex import (
    DEFAULT_KAPPA,
    EMOTION_NAMES,
    ClassifiedComment,
    EmojiLexicon,
    Lexicon,
    check_kappa,
    classify_comment,
    load_emoji_lexicon,
    load_lexicon,
)
from .ingest import RawRecord
from .regulator import (
    DEFAULT_ACTIVITY_CUTOFF,
    DEFAULT_RHO,
    GOVERNED_EMOTIONS,
    DecisionRow,
    Engine,
    ThresholdConfig,
    check_engine_settings,
)

logger = logging.getLogger(__name__)

ANGER_IDX = EMOTION_NAMES.index("anger")
FEAR_IDX = EMOTION_NAMES.index("fear")


class ConfigError(Exception):
    """A config or spec file had unknown keys or invalid values."""


class ComparisonError(Exception):
    """Paired reports do not come from the same stream and config."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SimulationConfig:
    window_size: int = congraph.DEFAULT_WINDOW
    weights: InfluenceWeights = field(default_factory=InfluenceWeights)
    thresholds: ThresholdConfig = field(default_factory=ThresholdConfig)
    kappa: float = DEFAULT_KAPPA
    rho: float = DEFAULT_RHO
    activity_cutoff: float = DEFAULT_ACTIVITY_CUTOFF
    idle_timeout: float = 3600.0

    def __post_init__(self) -> None:
        check_engine_settings(self.window_size, self.rho, self.activity_cutoff)
        check_kappa(self.kappa)
        if not 0.0 <= self.idle_timeout < math.inf:
            raise ValueError("idle_timeout must be finite and >= 0")

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _parse_kv_file(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        out[key.strip()] = value.strip()
    return out


def _field_types(cls, prefix: str = "") -> dict[str, type]:
    """File keys for the fields of ``cls`` that have a plain default, each
    with that default's type (a float field needs a float default)."""
    return {prefix + f.name: type(f.default) for f in fields(cls) if f.default is not MISSING}


def _typed_values(raw: Mapping[str, str], types: Mapping[str, type]) -> dict:
    """``raw``'s values converted by their key's type; unknown keys are
    reported before bad values."""
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"unknown key(s): {sorted(unknown)}")
    values = {}
    for key, text in raw.items():
        try:
            values[key] = types[key](text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {text!r}") from exc
    return values


# config-file keys that set one governed emotion's base threshold, and the
# keys that set the floor or ceiling of all of them
_BASE_KEYS = {f"threshold_{e.value}": e for e in GOVERNED_EMOTIONS}
_BOUND_KEYS = {"threshold_floor": "floor", "threshold_ceiling": "ceiling"}


def parse_config_file(path: str | Path) -> SimulationConfig:
    """Build a SimulationConfig from a line-oriented key=value file.

    Unknown keys are hard errors; a key the file does not set keeps the
    default of the type it belongs to, and the types validate the values.
    """
    top = _field_types(SimulationConfig)
    weights = _field_types(InfluenceWeights, "weight_")
    knobs = _field_types(ThresholdConfig)
    values = _typed_values(
        _parse_kv_file(path),
        {**top, **weights, **knobs, **dict.fromkeys([*_BASE_KEYS, *_BOUND_KEYS], float)},
    )
    try:
        thresholds = ThresholdConfig(
            base={e: values[key] for key, e in _BASE_KEYS.items() if key in values},
            **{
                name: dict.fromkeys(GOVERNED_EMOTIONS, values[key])
                for key, name in _BOUND_KEYS.items()
                if key in values
            },
            **{key: values[key] for key in knobs if key in values},
        )
        return SimulationConfig(
            weights=InfluenceWeights(
                **{key[len("weight_"):]: values[key] for key in weights if key in values}
            ),
            thresholds=thresholds,
            **{key: values[key] for key in top if key in values},
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# synthetic corpora

_MIXTURE_CATEGORIES: tuple[str, ...] = ("neutral", *EMOTION_NAMES)
DEFAULT_MIXTURE: dict[str, float] = {
    "neutral": 0.70,
    "joy": 0.06,
    "trust": 0.04,
    "anticipation": 0.03,
    "surprise": 0.02,
    "sadness": 0.05,
    "fear": 0.03,
    "anger": 0.05,
    "disgust": 0.02,
}

# Troll placement escalates over a conversation (threads heat up late).
# The troll COUNT is binomial(n-1, troll_rate), so the configured rate is
# the realized fraction exactly (rate 1 trolls every reply); the drawn
# trolls are then placed at positions weighted by
#   w(k) = START + SPAN * (k/(n-1))**POWER.
_TROLL_RAMP_START = 0.05
_TROLL_RAMP_POWER = 5.0
_TROLL_RAMP_SPAN = (1.0 - _TROLL_RAMP_START) * (_TROLL_RAMP_POWER + 1.0)

# Replies target the active tail of the thread about half the time; the
# rest follow reply-count preferential attachment (or uniform, per spec).
_RECENCY_PROB = 0.5
_RECENCY_SPAN = 10

# Cadence accelerates as a thread heats up; the positional mean of the
# gap multiplier is 1, so the corpus mean inter-arrival stays as configured.
_CADENCE_START = 1.45
_CADENCE_END = 0.55

_FILLER_WORDS: tuple[str, ...] = (
    "the", "a", "this", "that", "with", "from", "about", "into", "over", "after",
    "before", "while", "because", "thing", "point", "question", "detail", "update",
    "topic", "note", "item", "case", "part", "side", "line", "word", "page",
    "number", "group", "team", "city", "road", "water", "paper", "table", "door",
    "light", "sound", "market", "office", "morning", "evening", "street", "house",
    "people", "council", "meeting", "statement",
)


@dataclass(frozen=True)
class SyntheticSpec:
    conversations: int = 10
    comments_per_conversation: int = 50
    troll_rate: float = 0.1
    mixture: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_MIXTURE))
    inter_arrival_mean: float = 12.0
    attachment: str = "preferential"
    contagion: float = 0.5

    def __post_init__(self) -> None:
        if self.conversations < 1 or self.comments_per_conversation < 1:
            raise ValueError("need at least one conversation and one comment")
        if not 0.0 <= self.troll_rate <= 1.0:
            raise ValueError("troll_rate must lie in [0, 1]")
        if not 0.0 <= self.contagion <= 1.0:
            raise ValueError("contagion must lie in [0, 1]")
        if not 0.0 < self.inter_arrival_mean < math.inf:
            raise ValueError("inter_arrival_mean must be positive and finite")
        if self.attachment not in ("preferential", "uniform"):
            raise ValueError(f"unknown attachment {self.attachment!r}")
        mixture = dict(self.mixture)
        unknown = set(mixture) - set(_MIXTURE_CATEGORIES)
        if unknown:
            raise ValueError(f"unknown mixture categories: {sorted(unknown)}")
        if not all(0.0 <= w < math.inf for w in mixture.values()):
            raise ValueError("mixture weights must be nonnegative and finite")
        if abs(sum(mixture.values()) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        object.__setattr__(self, "mixture", mixture)


def parse_spec_file(path: str | Path) -> SyntheticSpec:
    """Build a SyntheticSpec from a key=value file; ``mix_<category>`` keys
    replace the whole mixture."""
    mix_keys = {f"mix_{c}": float for c in _MIXTURE_CATEGORIES}
    values = _typed_values(_parse_kv_file(path), {**_field_types(SyntheticSpec), **mix_keys})
    kwargs = {key: v for key, v in values.items() if key not in mix_keys}
    mixture = {key[len("mix_"):]: v for key, v in values.items() if key in mix_keys}
    if mixture:
        kwargs["mixture"] = mixture
    try:
        return SyntheticSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _single_emotion_pools(lexicon: Lexicon) -> dict[str, list[str]]:
    pools: dict[str, list[str]] = {name: [] for name in EMOTION_NAMES}
    for term, kinds in lexicon.terms.items():
        if len(kinds) == 1:
            pools[next(iter(kinds)).value].append(term)
    for name, pool in pools.items():
        pool.sort()
        if not pool:
            raise ConfigError(f"lexicon has no single-emotion word for {name}")
    return pools


def generate_synthetic(
    spec: SyntheticSpec, seed: int, lexicon: Lexicon | None = None
) -> list[RawRecord]:
    """Generate a deterministic synthetic corpus for (spec, seed).

    Troll comments realize intensity >= 0.8 with dominant anger or disgust;
    replies to trolls turn angry with probability ``contagion``.
    Conversations occupy disjoint time ranges so global replay order never
    interleaves them. All randomness is drawn in a fixed bulk order per
    conversation, so corpora are stable for a given (spec, seed).
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    lexicon = lexicon if lexicon is not None else _default_lexicon()
    pools = _single_emotion_pools(lexicon)
    fillers = [w for w in _FILLER_WORDS if w not in lexicon.terms]
    if len(fillers) < 8:
        raise ConfigError("lexicon swallows too many filler words")
    n_fillers = len(fillers)
    categories = sorted(spec.mixture)
    cum_weights = np.cumsum([spec.mixture[c] for c in categories])

    records: list[RawRecord] = []
    for conv in range(spec.conversations):
        rng = np.random.default_rng([seed, conv])
        n = spec.comments_per_conversation
        n_authors = max(2, n // 4)
        base = float(conv) * 1_000_000.0

        troll_positions: set[int] = set()
        if n > 1 and spec.troll_rate > 0:
            count = int(rng.binomial(n - 1, spec.troll_rate))
            if count:
                positions = np.arange(1, n)
                ramp = _TROLL_RAMP_START + _TROLL_RAMP_SPAN * (
                    (positions - 1) / max(1, n - 2)
                ) ** _TROLL_RAMP_POWER
                chosen = rng.choice(
                    positions, size=count, replace=False, p=ramp / ramp.sum()
                )
                troll_positions = set(int(i) for i in chosen)

        # bulk draws, one array per decision in a fixed order
        m = max(1, n - 1)
        gaps = rng.exponential(1.0, size=m)
        u_branch = rng.random(m)
        u_offset = rng.random(m)
        u_pick = rng.random(m)
        u_side = rng.random(n)
        u_cont = rng.random(n)
        u_mix = rng.random(n)
        u_tok = rng.random(n)
        u_k2 = rng.random(n)
        u_words = rng.random((n, 3))
        u_fill = rng.random((n, 16))
        u_cut = rng.random(n)
        u_auth = rng.random(n)

        troll_flags: list[bool] = []
        # each node appears (1 + replies) times; a uniform pick is exactly
        # reply-count preferential attachment
        endpoints: list[int] = []
        t = base
        for k in range(n):
            parent_idx: int | None = None
            if k > 0:
                pace = _CADENCE_START + (_CADENCE_END - _CADENCE_START) * (
                    k / (n - 1) if n > 1 else 0.0
                )
                t += float(gaps[k - 1]) * spec.inter_arrival_mean * pace
                if spec.attachment == "preferential":
                    if u_branch[k - 1] < _RECENCY_PROB:
                        span = min(_RECENCY_SPAN, k)
                        parent_idx = k - 1 - int(u_offset[k - 1] * span)
                    else:
                        parent_idx = endpoints[int(u_pick[k - 1] * len(endpoints))]
                else:
                    parent_idx = int(u_offset[k - 1] * k)

            is_troll = k in troll_positions
            if is_troll:
                emotion = "anger" if u_side[k] < 0.76 else "disgust"
                tokens = 8 + int(u_tok[k] * 5)
                emotive = -(-tokens // 5)  # ceil(0.2 * tokens): density >= 0.2
            elif k > 0 and troll_flags[parent_idx] and u_cont[k] < spec.contagion:
                # first-order contagion: replies to trolls catch anger
                emotion = "anger"
                tokens = 10 + int(u_tok[k] * 7)
                emotive = 2
            elif k == 0:
                # original posts carry substantive emotive weight
                emotion = categories[int(np.searchsorted(cum_weights, u_mix[k], side="right"))]
                if emotion == "neutral":
                    emotion = "joy"
                tokens = 8 + int(u_tok[k] * 5)
                emotive = 2
            else:
                emotion = categories[int(np.searchsorted(cum_weights, u_mix[k], side="right"))]
                if emotion == "neutral":
                    tokens = 6 + int(u_tok[k] * 9)
                    emotive = 0
                else:
                    tokens = 8 + int(u_tok[k] * 9)
                    emotive = 1 if u_k2[k] < 0.75 else 2

            if emotive:
                pool = pools[emotion]
                pool_size = len(pool)
                words = [pool[int(u_words[k, j] * pool_size)] for j in range(emotive)]
                pad = [fillers[int(u_fill[k, j] * n_fillers)] for j in range(tokens - emotive)]
                cut = int(u_cut[k] * (len(pad) + 1))
                text = " ".join(pad[:cut] + words + pad[cut:])
            else:
                text = " ".join(
                    fillers[int(u_fill[k, j % 16] * n_fillers)] for j in range(tokens)
                )
            records.append(
                RawRecord(
                    id=f"c{conv:05d}-{k:04d}",
                    parent_id=None if k == 0 else f"c{conv:05d}-{parent_idx:04d}",
                    author=f"u{conv:05d}-{int(u_auth[k] * n_authors):03d}",
                    created_at=t,
                    text=text,
                )
            )
            troll_flags.append(is_troll)
            if spec.attachment == "preferential":
                endpoints.append(k)
                if parent_idx is not None:
                    endpoints.append(parent_idx)
    return records


def write_jsonl(records: Iterable[RawRecord], path: str | Path | TextIO) -> None:
    """Write one JSON line per record to a file path or an open text stream."""
    if isinstance(path, (str, Path)):
        with Path(path).open("w", encoding="utf-8") as handle:
            write_jsonl(records, handle)
        return
    for r in records:
        path.write(
            json.dumps(
                {
                    "id": r.id,
                    "parent_id": r.parent_id,
                    "author": r.author,
                    "created_at": r.created_at,
                    "text": r.text,
                },
                sort_keys=True,
            )
            + "\n"
        )


# ---------------------------------------------------------------------------
# run reports


def stream_hash(records: Sequence[RawRecord]) -> str:
    h = hashlib.sha256()
    for r in sorted(records, key=lambda r: (r.created_at, r.id)):
        line = f"{r.id}\t{r.parent_id or ''}\t{r.author}\t{r.created_at!r}\t{r.text}\n"
        h.update(line.encode("utf-8"))
    return h.hexdigest()


@dataclass
class RunReport:
    queue_enabled: bool
    total: int
    admitted: int
    held_count: int
    suspended_count: int
    held_fraction: float
    suspended_fraction: float
    hold_durations: list[float]
    mean_hold: float
    median_hold: float
    final_board: EmotionBoard
    series_ids: list[str]
    series_tags: list[int]
    series_revised: list[bool]
    cumulative: np.ndarray
    anger_fear_spread: float
    stream_hash: str
    config_hash: str
    conversations: int
    orphans: int
    decision_log: list[DecisionRow] | None = None

    def to_dict(self) -> dict:
        """The summary written to report.json; the per-admission series is
        written only to emotion_timeseries.csv."""
        return {
            "queue_enabled": self.queue_enabled,
            "total": self.total,
            "admitted": self.admitted,
            "held_count": self.held_count,
            "suspended_count": self.suspended_count,
            "held_fraction": round(self.held_fraction, 6),
            "suspended_fraction": round(self.suspended_fraction, 6),
            "hold_durations": [round(d, 6) for d in self.hold_durations],
            "mean_hold": round(self.mean_hold, 6),
            "median_hold": round(self.median_hold, 6),
            "final_board": {k: round(v, 6) for k, v in self.final_board.as_dict().items()},
            "anger_fear_spread": round(self.anger_fear_spread, 6),
            "stream_hash": self.stream_hash,
            "config_hash": self.config_hash,
            "conversations": self.conversations,
            "orphans": self.orphans,
        }

    @classmethod
    def read(cls, run_dir: str | Path) -> "RunReport":
        """Load a run directory's report.json as a summary-only report (empty series)."""
        report_path = Path(run_dir) / "report.json"
        try:
            payload = json.loads(report_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ComparisonError(f"cannot read {report_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ComparisonError(f"corrupt report {report_path}: {exc}") from exc
        try:
            return cls(
                queue_enabled=payload["queue_enabled"],
                total=payload["total"],
                admitted=payload["admitted"],
                held_count=payload["held_count"],
                suspended_count=payload["suspended_count"],
                held_fraction=payload["held_fraction"],
                suspended_fraction=payload["suspended_fraction"],
                hold_durations=payload["hold_durations"],
                mean_hold=payload["mean_hold"],
                median_hold=payload["median_hold"],
                final_board=EmotionBoard(
                    percentages=tuple(payload["final_board"][name] for name in EMOTION_NAMES),
                    window_size=0,
                    contributing=0,
                ),
                series_ids=[],
                series_tags=[],
                series_revised=[],
                cumulative=np.zeros((0, 8)),
                anger_fear_spread=payload["anger_fear_spread"],
                stream_hash=payload["stream_hash"],
                config_hash=payload["config_hash"],
                conversations=payload["conversations"],
                orphans=payload["orphans"],
            )
        except (KeyError, TypeError) as exc:
            raise ComparisonError(f"corrupt report {report_path}: {exc!r}") from exc


@dataclass
class ComparisonReport:
    reduction_pct: float
    no_queue_spread: float
    with_queue_spread: float
    held_fraction: float
    suspended_fraction: float
    mean_hold: float
    median_hold: float
    histogram: list[tuple[int, int]]
    no_queue_board: EmotionBoard
    with_queue_board: EmotionBoard
    stream_hash: str
    config_hash: str

    def to_dict(self) -> dict:
        return {
            "reduction_pct": round(self.reduction_pct, 6),
            "no_queue_spread": round(self.no_queue_spread, 6),
            "with_queue_spread": round(self.with_queue_spread, 6),
            "held_fraction": round(self.held_fraction, 6),
            "suspended_fraction": round(self.suspended_fraction, 6),
            "mean_hold": round(self.mean_hold, 6),
            "median_hold": round(self.median_hold, 6),
            "histogram": [[b, c] for b, c in self.histogram],
            "no_queue_board": {
                k: round(v, 6) for k, v in self.no_queue_board.as_dict().items()
            },
            "with_queue_board": {
                k: round(v, 6) for k, v in self.with_queue_board.as_dict().items()
            },
            "stream_hash": self.stream_hash,
            "config_hash": self.config_hash,
        }


# ---------------------------------------------------------------------------
# conversation simulation

_default_lexicons: dict[str, object] = {}


def _default_lexicon() -> Lexicon:
    lex = _default_lexicons.get("word")
    if lex is None:
        lex = load_lexicon()
        _default_lexicons["word"] = lex
    return lex  # type: ignore[return-value]


def _default_emoji_lexicon() -> EmojiLexicon:
    lex = _default_lexicons.get("emoji")
    if lex is None:
        lex = load_emoji_lexicon()
        _default_lexicons["emoji"] = lex
    return lex  # type: ignore[return-value]


@dataclass
class _ConvOutcome:
    """What ``_assemble`` reads of one conversation replayed in one queue
    mode. The admission ledger has one item per admitted comment, in
    admission order: ``ids``, ``tags`` (the submission's tag), ``influence``
    (at admission) and ``vectors`` (emotion vectors, one row each).
    ``revised`` holds the ids revised at a finalize; those admitted were
    released after the revision."""

    ids: list[str]
    tags: list[int]
    influence: list[float]
    vectors: np.ndarray
    revised: set[str]
    total: int
    ever_held: int
    suspended: int
    orphans: int
    durations: list[float]
    final_board: tuple[float, ...]
    contributing: int
    decision_log: list[DecisionRow] | None


def _simulate_conversation(
    records: list[RawRecord],
    tags: list[int],
    classified: list[ClassifiedComment],
    config: SimulationConfig,
    queue_enabled: bool,
    log_decisions: bool,
) -> tuple[Engine, int]:
    """Replay one conversation through an engine; returns the engine and the
    number of records it published under the root instead of their parent.

    Records are processed in replay order; a record whose parent id does not
    occur in this conversation at all is reattached under the root, while a
    parent that exists but is not yet published defers through the queue.
    If the root is not the earliest record (skewed clocks), earlier records
    are buffered and submitted at the root's timestamp.
    """
    ids = {r.id for r in records}
    root_id = next((r.id for r in records if r.parent_id is None), None)
    if root_id is None:
        raise ingest.IngestError("conversation without a root record")
    engine = Engine(
        thresholds=config.thresholds,
        weights=config.weights,
        window_size=config.window_size,
        activity_cutoff=config.activity_cutoff,
        rho=config.rho,
        queue_enabled=queue_enabled,
        log_decisions=log_decisions,
    )

    orphans = 0
    buffered: list[tuple[ClassifiedComment, int]] = []
    started = False
    prev_t: float | None = None

    def feed(comment: ClassifiedComment, now: float, tag: int) -> None:
        nonlocal orphans
        parent = comment.parent_id
        defer = False
        if parent is not None:
            if parent not in ids:
                parent = root_id
                orphans += 1
            elif parent not in engine.entries and (
                engine.graph is None or parent not in engine.graph
            ):
                defer = True  # parent occurs later in the stream or is suspended
        engine.submit(
            comment, now=now, parent_id=parent, defer_missing_parent=defer, tag=tag
        )

    for record, comment, tag in zip(records, classified, tags):
        now = record.created_at
        if not started:
            if record.id != root_id:
                buffered.append((comment, tag))
                continue
            engine.submit(comment, now=now, parent_id=None, tag=tag)
            started = True
            prev_t = now
            for buffered_comment, buffered_tag in buffered:
                feed(buffered_comment, now, buffered_tag)
            buffered.clear()
            continue
        if prev_t is not None and now - prev_t > config.idle_timeout:
            engine.finalize(prev_t + config.idle_timeout)
        prev_t = now
        feed(comment, now, tag)

    if prev_t is not None:
        engine.finalize(prev_t)
    return engine, orphans + engine.orphan_count


def _outcome(engine: Engine, orphans: int) -> _ConvOutcome:
    """The ``_ConvOutcome`` of a replayed engine; the ledger's ids and vectors
    are its graph's rows."""
    graph = engine.graph
    final = engine.board()
    return _ConvOutcome(
        ids=graph._ids,
        tags=engine.admission_tags,
        influence=engine.admission_influence,
        vectors=graph._vectors[: len(graph)],
        revised={cid for cid, entry in engine.entries.items() if entry.revised},
        total=engine.processed_count,
        ever_held=engine.ever_held_count,
        suspended=engine.suspended_count,
        orphans=orphans,
        durations=[
            e.hold_duration for e in engine.entries.values() if e.hold_duration is not None
        ],
        final_board=final.percentages,
        contributing=final.contributing,
        decision_log=engine.decision_log if engine.log_decisions else None,
    )


def _replay_conversation(
    config: SimulationConfig,
    modes: tuple[bool, ...],
    lexicon: Lexicon,
    emoji_lexicon: EmojiLexicon,
    log_decisions: bool,
    task: tuple[list[RawRecord], list[int]],
) -> list[_ConvOutcome]:
    """Classify one conversation once, then replay it in each queue mode."""
    records, tags = task
    classified = [
        classify_comment(
            r.id, r.author, r.parent_id, r.created_at, r.text,
            lexicon, emoji_lexicon, config.kappa,
        )
        for r in records
    ]
    return [
        _outcome(*_simulate_conversation(records, tags, classified, config, mode, log_decisions))
        for mode in modes
    ]


def _assemble(
    outcomes: list[_ConvOutcome],
    queue_enabled: bool,
    shash: str,
    chash: str,
    config: SimulationConfig,
) -> RunReport:
    ids = list(chain.from_iterable(o.ids for o in outcomes))
    tags = np.fromiter(chain.from_iterable(o.tags for o in outcomes), np.int64, len(ids))
    influence = np.fromiter(chain.from_iterable(o.influence for o in outcomes), float, len(ids))
    vectors = np.concatenate([o.vectors for o in outcomes])
    # the series is in tag order; a stable sort keeps equal tags in
    # conversation order, then admission order
    order = np.argsort(tags, kind="stable")
    cumulative = np.cumsum(influence[order, None] * vectors[order], axis=0)
    series_ids = [ids[i] for i in order.tolist()]
    revised = set().union(*(o.revised for o in outcomes))
    total = sum(o.total for o in outcomes)
    admitted = len(ids)
    ever_held = sum(o.ever_held for o in outcomes)
    suspended = sum(o.suspended for o in outcomes)
    durations = list(chain.from_iterable(o.durations for o in outcomes))
    boards = np.array([o.final_board for o in outcomes])
    final_board = EmotionBoard(
        percentages=tuple(float(v) for v in boards.mean(axis=0)),
        window_size=config.window_size,
        contributing=sum(o.contributing for o in outcomes),
    )
    spread = float(cumulative[-1, ANGER_IDX] + cumulative[-1, FEAR_IDX])
    decision_log: list[DecisionRow] | None = None
    if outcomes and outcomes[0].decision_log is not None:
        decision_log = list(chain.from_iterable(o.decision_log or () for o in outcomes))
    return RunReport(
        queue_enabled=queue_enabled,
        total=total,
        admitted=admitted,
        held_count=ever_held,
        suspended_count=suspended,
        held_fraction=ever_held / total if total else 0.0,
        suspended_fraction=suspended / total if total else 0.0,
        hold_durations=durations,
        mean_hold=float(np.mean(durations)) if durations else 0.0,
        median_hold=float(np.median(durations)) if durations else 0.0,
        final_board=final_board,
        series_ids=series_ids,
        series_tags=tags[order].tolist(),
        series_revised=[cid in revised for cid in series_ids],
        cumulative=cumulative,
        anger_fear_spread=spread,
        stream_hash=shash,
        config_hash=chash,
        conversations=len(outcomes),
        orphans=sum(o.orphans for o in outcomes),
        decision_log=decision_log,
    )


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _replay(
    records: Sequence[RawRecord],
    config: SimulationConfig,
    modes: tuple[bool, ...],
    lexicon: Lexicon | None,
    emoji_lexicon: EmojiLexicon | None,
    jobs: int,
    log_decisions: bool,
) -> list[RunReport]:
    """Replay the stream once per conversation and report each queue mode.

    Each conversation is classified once and replayed in every requested
    mode (``True`` = with queue), serially or in a fork pool of
    ``min(jobs, conversations, usable CPUs)`` workers; the reports merge
    conversations in stream order, so ``jobs`` never changes them.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    lexicon = lexicon if lexicon is not None else _default_lexicon()
    emoji_lexicon = (
        emoji_lexicon if emoji_lexicon is not None else _default_emoji_lexicon()
    )
    ordered = sorted(records, key=lambda r: (r.created_at, r.id))
    tag_of = {r.id: i for i, r in enumerate(ordered)}
    groups = ingest.partition_conversations(list(records))
    tasks = [(group, [tag_of[r.id] for r in group]) for group in groups]
    replay_one = partial(
        _replay_conversation, config, modes, lexicon, emoji_lexicon, log_decisions
    )
    workers = min(jobs, len(tasks), _usable_cpus())
    if workers > 1:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            outcomes = pool.map(
                replay_one, tasks, chunksize=max(1, len(tasks) // (workers * 4))
            )
    else:
        outcomes = [replay_one(task) for task in tasks]
    shash = stream_hash(records)
    chash = config.config_hash()
    return [
        _assemble([o[i] for o in outcomes], queue_enabled, shash, chash, config)
        for i, queue_enabled in enumerate(modes)
    ]


def run_without_queue(
    records: Sequence[RawRecord],
    config: SimulationConfig = SimulationConfig(),
    *,
    lexicon: Lexicon | None = None,
    emoji_lexicon: EmojiLexicon | None = None,
    jobs: int = 1,
    log_decisions: bool = False,
) -> RunReport:
    """Replay with every comment admitted immediately (held_count = 0)."""
    return _replay(records, config, (False,), lexicon, emoji_lexicon, jobs, log_decisions)[0]


def run_with_queue(
    records: Sequence[RawRecord],
    config: SimulationConfig = SimulationConfig(),
    *,
    lexicon: Lexicon | None = None,
    emoji_lexicon: EmojiLexicon | None = None,
    jobs: int = 1,
    log_decisions: bool = False,
) -> RunReport:
    """Replay through the full queuing lifecycle (submit, re-scan, finalize)."""
    return _replay(records, config, (True,), lexicon, emoji_lexicon, jobs, log_decisions)[0]


def run_paired(
    records: Sequence[RawRecord],
    config: SimulationConfig = SimulationConfig(),
    *,
    lexicon: Lexicon | None = None,
    emoji_lexicon: EmojiLexicon | None = None,
    jobs: int = 1,
    log_decisions: bool = False,
) -> tuple[RunReport, RunReport]:
    """Run both conditions over one stream, classifying each comment once.

    Returns (no_queue_report, with_queue_report).
    """
    no_queue, with_queue = _replay(
        records, config, (False, True), lexicon, emoji_lexicon, jobs, log_decisions
    )
    return no_queue, with_queue


def compare(no_queue: RunReport, with_queue: RunReport) -> ComparisonReport:
    """Compare paired runs; reduction is 0 by convention on a zero baseline."""
    if no_queue.stream_hash != with_queue.stream_hash:
        raise ComparisonError("stream hashes differ; reports are not a pair")
    if no_queue.config_hash != with_queue.config_hash:
        raise ComparisonError("config hashes differ; reports are not a pair")
    base = no_queue.anger_fear_spread
    if base <= 0.0:
        reduction = 0.0
    else:
        reduction = 100.0 * (1.0 - with_queue.anger_fear_spread / base)
    histogram: list[tuple[int, int]] = []
    if with_queue.hold_durations:
        bins = np.bincount([int(d) for d in with_queue.hold_durations])
        histogram = [(b, int(c)) for b, c in enumerate(bins)]
    return ComparisonReport(
        reduction_pct=reduction,
        no_queue_spread=base,
        with_queue_spread=with_queue.anger_fear_spread,
        held_fraction=with_queue.held_fraction,
        suspended_fraction=with_queue.suspended_fraction,
        mean_hold=with_queue.mean_hold,
        median_hold=with_queue.median_hold,
        histogram=histogram,
        no_queue_board=no_queue.final_board,
        with_queue_board=with_queue.final_board,
        stream_hash=no_queue.stream_hash,
        config_hash=no_queue.config_hash,
    )


# ---------------------------------------------------------------------------
# emission

def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_histogram_csv(path: Path, durations: Sequence[float]) -> None:
    lines = ["bin_start_s,count"]
    if durations:
        bins = np.bincount([int(d) for d in durations])
        lines.extend(f"{b},{int(c)}" for b, c in enumerate(bins))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_timeseries_csv(path: Path, report: RunReport) -> None:
    header = "event_seq,stream_index,comment_id,revised," + ",".join(EMOTION_NAMES)
    lines = [header]
    values = ",".join(["%.6f"] * 8)
    rows = zip(report.series_ids, report.series_tags, report.series_revised,
               report.cumulative.tolist())
    for i, (cid, tag, revised, cumulative) in enumerate(rows):
        lines.append(f"{i},{tag},{cid},{int(revised)}," + values % tuple(cumulative))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sorted_object(names: Sequence[str]) -> tuple[str, itemgetter]:
    """A %-template for a JSON object keyed by ``names`` in sorted key order,
    and the getter that puts values given in ``names`` order into that order."""
    order = sorted(range(len(names)), key=names.__getitem__)
    return "{" + ", ".join(f"{json.dumps(names[i])}: %s" for i in order) + "}", itemgetter(*order)


_BOARD_OBJECT = _sorted_object(EMOTION_NAMES)
_THRESHOLD_OBJECT = _sorted_object([e.value for e in GOVERNED_EMOTIONS])
_ACTIVITY = {True: '"active"', False: '"quiet"'}


def decision_lines(rows: Sequence[DecisionRow]) -> list[str]:
    """decisions.log, one line per row.

    Each line is byte for byte ``json.dumps(record, sort_keys=True)`` of the
    row as a record: ``event_seq`` (the row's position), ``comment_id``,
    ``decision``, ``board_before`` and ``board_after`` keyed by emotion
    name, ``eff_thresholds`` keyed by governed emotion and rounded to 6
    decimals, ``activity`` ("active" or "quiet"), and ``hold_duration``
    rounded to 6 decimals where the row has one. Boards are the engine's
    rounded float tuples, written through ``repr``; each distinct board and
    threshold tuple is formatted once.
    """
    board_template, board_order = _BOARD_OBJECT
    threshold_template, threshold_order = _THRESHOLD_OBJECT
    boards: dict[tuple[float, ...], str] = {}
    thresholds: dict[tuple[float, ...], str] = {}

    def board(values: tuple[float, ...]) -> str:
        text = boards.get(values)
        if text is None:
            text = boards[values] = board_template % tuple(map(repr, board_order(values)))
        return text

    lines = []
    for seq, row in enumerate(rows):
        eff = thresholds.get(row.thresholds)
        if eff is None:
            eff = thresholds[row.thresholds] = threshold_template % tuple(
                json.dumps(round(v, 6)) for v in threshold_order(row.thresholds)
            )
        line = (
            f'{{"activity": {_ACTIVITY[row.active]}, "board_after": {board(row.board_after)}, '
            f'"board_before": {board(row.board_before)}, '
            f'"comment_id": {json.dumps(row.comment_id)}, '
            f'"decision": "{row.decision}", "eff_thresholds": {eff}, "event_seq": {seq}'
        )
        if row.hold_duration is not None:
            line += f', "hold_duration": {json.dumps(round(row.hold_duration, 6))}'
        lines.append(line + "}")
    return lines


def _write_board_csv(path: Path, board: EmotionBoard) -> None:
    lines = ["emotion,percentage"]
    for name, value in board.as_dict().items():
        lines.append(f"{name},{value:.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_id_for(report: RunReport) -> str:
    blob = f"{report.stream_hash}:{report.config_hash}:{int(report.queue_enabled)}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def write_run_dir(report: RunReport, out_root: str | Path) -> Path:
    """Write runs/<run-id>/ files; returns the run directory."""
    run_dir = Path(out_root) / run_id_for(report)
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        _write_json(run_dir / "report.json", report.to_dict())
        _write_histogram_csv(run_dir / "hold_histogram.csv", report.hold_durations)
        _write_timeseries_csv(run_dir / "emotion_timeseries.csv", report)
        _write_board_csv(run_dir / "final_board.csv", report.final_board)
        if report.decision_log is not None:
            lines = decision_lines(report.decision_log)
            (run_dir / "decisions.log").write_text(
                "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
            )
    except OSError as exc:
        raise IOError(f"cannot write run directory {run_dir}: {exc}") from exc
    return run_dir


def write_comparison_dir(comparison: ComparisonReport, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "comparison.json", comparison.to_dict())
        lines = ["bin_start_s,count"]
        lines.extend(f"{b},{c}" for b, c in comparison.histogram)
        (out / "hold_histogram.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        board_lines = ["emotion,no_queue,with_queue"]
        nq = comparison.no_queue_board.as_dict()
        wq = comparison.with_queue_board.as_dict()
        for name in EMOTION_NAMES:
            board_lines.append(f"{name},{nq[name]:.6f},{wq[name]:.6f}")
        (out / "final_board.csv").write_text("\n".join(board_lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IOError(f"cannot write comparison directory {out}: {exc}") from exc
    return out
