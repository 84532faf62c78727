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
from dataclasses import dataclass, field
from functools import partial
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
    EmotionKind,
    Lexicon,
    classify_comment,
    load_emoji_lexicon,
    load_lexicon,
)
from .ingest import RawRecord
from .regulator import (
    DEFAULT_ACTIVITY_CUTOFF,
    DEFAULT_RHO,
    Engine,
    ThresholdConfig,
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
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if not 0.0 < self.kappa < math.inf:
            raise ValueError("kappa must be positive and finite")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")
        if not 0.0 <= self.idle_timeout < math.inf:
            raise ValueError("idle_timeout must be finite and >= 0")
        if not 0.0 <= self.activity_cutoff < math.inf:
            raise ValueError("activity_cutoff must be finite and >= 0")

    def as_dict(self) -> dict:
        return {
            "window_size": self.window_size,
            "kappa": self.kappa,
            "rho": self.rho,
            "activity_cutoff": self.activity_cutoff,
            "idle_timeout": self.idle_timeout,
            "weights": {
                "intensity": self.weights.intensity,
                "pagerank": self.weights.pagerank,
                "depth": self.weights.depth,
                "replies": self.weights.replies,
            },
            "thresholds": {
                "base": {e.value: v for e, v in sorted(self.thresholds.base.items())},
                "floor": {e.value: v for e, v in sorted(self.thresholds.floor.items())},
                "ceiling": {e.value: v for e, v in sorted(self.thresholds.ceiling.items())},
                "active_relax": self.thresholds.active_relax,
                "quiet_tighten": self.thresholds.quiet_tighten,
                "decay_gamma": self.thresholds.decay_gamma,
                "decay_scale": self.thresholds.decay_scale,
            },
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


_CONFIG_FLOAT_KEYS = {
    "kappa",
    "rho",
    "activity_cutoff",
    "idle_timeout",
    "weight_intensity",
    "weight_pagerank",
    "weight_depth",
    "weight_replies",
    "threshold_anger",
    "threshold_fear",
    "threshold_disgust",
    "threshold_sadness",
    "active_relax",
    "quiet_tighten",
    "decay_gamma",
    "threshold_floor",
    "threshold_ceiling",
}
_CONFIG_INT_KEYS = {"window_size", "decay_scale"}


def _parse_kv_file(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
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


def parse_config_file(path: str | Path) -> SimulationConfig:
    """Build a SimulationConfig from a line-oriented key=value file.

    Unknown keys are hard errors; values are validated by the target types.
    """
    raw = _parse_kv_file(path)
    known = _CONFIG_FLOAT_KEYS | _CONFIG_INT_KEYS
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    values: dict[str, float] = {}
    for key, text in raw.items():
        try:
            values[key] = int(text) if key in _CONFIG_INT_KEYS else float(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {text!r}") from exc
    try:
        weights = InfluenceWeights(
            intensity=values.get("weight_intensity", 0.4),
            pagerank=values.get("weight_pagerank", 0.2),
            depth=values.get("weight_depth", 0.2),
            replies=values.get("weight_replies", 0.2),
        )
        base = {
            EmotionKind.ANGER: values.get("threshold_anger", 50.0),
            EmotionKind.FEAR: values.get("threshold_fear", 60.0),
            EmotionKind.DISGUST: values.get("threshold_disgust", 60.0),
            EmotionKind.SADNESS: values.get("threshold_sadness", 60.0),
        }
        floor_v = values.get("threshold_floor", 30.0)
        ceil_v = values.get("threshold_ceiling", 90.0)
        thresholds = ThresholdConfig(
            base=base,
            active_relax=values.get("active_relax", 10.0),
            quiet_tighten=values.get("quiet_tighten", 5.0),
            decay_gamma=values.get("decay_gamma", 5.0),
            decay_scale=int(values.get("decay_scale", 1000)),
            floor={e: floor_v for e in base},
            ceiling={e: ceil_v for e in base},
        )
        return SimulationConfig(
            window_size=int(values.get("window_size", congraph.DEFAULT_WINDOW)),
            weights=weights,
            thresholds=thresholds,
            kappa=values.get("kappa", DEFAULT_KAPPA),
            rho=values.get("rho", DEFAULT_RHO),
            activity_cutoff=values.get("activity_cutoff", DEFAULT_ACTIVITY_CUTOFF),
            idle_timeout=values.get("idle_timeout", 3600.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# synthetic corpora

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
        allowed = set(EMOTION_NAMES) | {"neutral"}
        unknown = set(mixture) - allowed
        if unknown:
            raise ValueError(f"unknown mixture categories: {sorted(unknown)}")
        if any(w < 0 for w in mixture.values()):
            raise ValueError("mixture weights must be nonnegative")
        if abs(sum(mixture.values()) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        object.__setattr__(self, "mixture", mixture)

    def as_dict(self) -> dict:
        return {
            "conversations": self.conversations,
            "comments_per_conversation": self.comments_per_conversation,
            "troll_rate": self.troll_rate,
            "mixture": dict(sorted(self.mixture.items())),
            "inter_arrival_mean": self.inter_arrival_mean,
            "attachment": self.attachment,
            "contagion": self.contagion,
        }


_SPEC_INT_KEYS = {"conversations", "comments_per_conversation"}
_SPEC_FLOAT_KEYS = {"troll_rate", "inter_arrival_mean", "contagion"}
_SPEC_STR_KEYS = {"attachment"}


def parse_spec_file(path: str | Path) -> SyntheticSpec:
    """Build a SyntheticSpec from a key=value file (mix_* keys set the mixture)."""
    raw = _parse_kv_file(path)
    mixture = dict(DEFAULT_MIXTURE)
    mix_given = False
    kwargs: dict = {}
    for key, text in raw.items():
        if key in _SPEC_INT_KEYS:
            try:
                kwargs[key] = int(text)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {text!r}") from exc
        elif key in _SPEC_FLOAT_KEYS:
            try:
                kwargs[key] = float(text)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {text!r}") from exc
        elif key in _SPEC_STR_KEYS:
            kwargs[key] = text
        elif key.startswith("mix_"):
            if not mix_given:
                mixture = {}
                mix_given = True
            try:
                mixture[key[4:]] = float(text)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {text!r}") from exc
        else:
            raise ConfigError(f"unknown spec key: {key}")
    try:
        return SyntheticSpec(mixture=mixture, **kwargs)
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
    decision_log: list[dict] | None = None

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
    rows: list
    total: int
    admitted: int
    ever_held: int
    suspended: int
    orphans: int
    durations: list[float]
    final_board: tuple[float, ...]
    contributing: int
    decision_log: list[dict] | None
    decisions: list[tuple[str, str]]


def _simulate_conversation(
    records: list[RawRecord],
    tags: list[int],
    classified: list[ClassifiedComment],
    config: SimulationConfig,
    queue_enabled: bool,
    log_decisions: bool,
) -> _ConvOutcome:
    """Replay one conversation through an engine.

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
    final = engine.board()
    durations = [
        e.hold_duration for e in engine.entries.values() if e.hold_duration is not None
    ]
    return _ConvOutcome(
        rows=engine.admissions,
        total=len(records),
        admitted=engine.admitted_count,
        ever_held=engine.ever_held_count,
        suspended=engine.suspended_count,
        orphans=orphans + engine.orphan_count,
        durations=durations,
        final_board=final.percentages,
        contributing=final.contributing,
        decision_log=engine.decision_log if log_decisions else None,
        decisions=engine.decisions,
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
        _simulate_conversation(records, tags, classified, config, queue_enabled, log_decisions)
        for queue_enabled in modes
    ]


def _assemble(
    outcomes: list[_ConvOutcome],
    queue_enabled: bool,
    shash: str,
    chash: str,
    config: SimulationConfig,
) -> RunReport:
    rows = []
    for conv_idx, outcome in enumerate(outcomes):
        for row in outcome.rows:
            rows.append((row.tag, conv_idx, row.seq, row.comment_id, row.mass, row.revised))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    n_rows = len(rows)
    masses = np.zeros((n_rows, 8))
    for i, row in enumerate(rows):
        masses[i] = row[4]
    cumulative = np.cumsum(masses, axis=0)
    total = sum(o.total for o in outcomes)
    admitted = sum(o.admitted for o in outcomes)
    ever_held = sum(o.ever_held for o in outcomes)
    suspended = sum(o.suspended for o in outcomes)
    durations: list[float] = []
    for outcome in outcomes:
        durations.extend(outcome.durations)
    boards = np.array([o.final_board for o in outcomes])
    final_board = EmotionBoard(
        percentages=tuple(float(v) for v in boards.mean(axis=0)),
        window_size=config.window_size,
        contributing=sum(o.contributing for o in outcomes),
    )
    if n_rows:
        spread = float(cumulative[-1, ANGER_IDX] + cumulative[-1, FEAR_IDX])
    else:
        spread = 0.0
    decision_log: list[dict] | None = None
    if outcomes and outcomes[0].decision_log is not None:
        decision_log = []
        for outcome in outcomes:
            for record in outcome.decision_log or []:
                record = dict(record)
                record["event_seq"] = len(decision_log)
                decision_log.append(record)
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
        series_ids=[r[3] for r in rows],
        series_tags=[r[0] for r in rows],
        series_revised=[r[5] for r in rows],
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
    for i, cid in enumerate(report.series_ids):
        values = ",".join(f"{report.cumulative[i, j]:.6f}" for j in range(8))
        lines.append(
            f"{i},{report.series_tags[i]},{cid},{int(report.series_revised[i])},{values}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
            lines = [json.dumps(rec, sort_keys=True) for rec in report.decision_log]
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
