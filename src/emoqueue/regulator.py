"""Adaptive comment-queuing engine.

Every submitted comment is tested against the conversation's emotion board
before publication. Neutral comments and comments whose dominant emotion is
positive (joy, trust, anticipation) are always admitted; a comment whose
dominant emotion is governed (anger, fear, disgust, sadness) is admitted
only if, for every governed emotion, the board it would produce stays at or
below the effective threshold, or does not worsen the current value (a
comment is never blamed for a breach it does not worsen). Everything else
is held in a queue.

Effective thresholds adapt three ways: active conversations (median
inter-arrival under the cutoff across the last 20 admissions) relax them,
quiet ones tighten them, and they decay as more comments are processed.

Protocol, in full (the cache-free reference in the test suite mirrors it):

* The first submission must be the conversation root; it is always admitted.
* Thresholds are evaluated against the processed-comment count *before* the
  submission being decided; the count then grows by one per submission
  (admissions via release never re-count).
* A submission whose parent is not yet published (held, suspended, or later
  in the stream) waits in the queue when ``defer_missing_parent`` is set;
  without a queue such comments are reattached under the root instead.
* Threshold comparisons are evaluated in mass space with cross-multiplied
  inequalities (``100*m_e <= eff_e*T`` and ``m_e*T_cur <= c_e*T``), which is
  algebraically the percentage rule but exact when the hypothetical and
  current percentages coincide mathematically (e.g. a single-emotion board),
  so the decision never hinges on division rounding.
* Every admission appends the event time to the activity ring and triggers
  one re-evaluation pass over the queue: entries are ordered by the current
  board percentage of their dominant emotion ascending (neutral counts as
  0), then enqueue time, then id; each passing entry is admitted immediately
  (mutating the board) before the next is tested. Releases during a pass do
  not start nested passes.
* finalize() makes one pass in the same priority order over the remaining
  queue: each entry is revised (intensity halved by ``rho``, floored at
  0.1), re-tested once, and either released or terminally suspended.
  Admissions inside finalize do not trigger re-evaluation passes.

A queue-disabled engine (the no-queue condition of paired runs) admits
every submission directly; nothing reads its thresholds or activity regime.

Between two admissions the window does not change, so the engine builds
what it reads from the window once per graph state and drops it on the next
admission: the current masses, the board, the board as the decision log
rounds it, and the sums the re-test screen patches.

Re-test screen. Every admission re-tests every held entry, and nearly all
of them stay held. Influence is linear in its four terms and every summand
is non-negative (vectors in [0, 1], mixing weights >= 0, PageRank weights
>= 1, log reply counts >= 0). So per graph state the engine keeps the four
per-emotion term sums over the hypothetical window ``[max(0, n+1-W), n)``,
one (4 x rows) @ (rows x 8) product. Per entry it patches in the ancestors'
``damping**k`` bumps inside the window, the parent's new log-reply term,
the new maximum weight and reply count, and the candidate's own mass.
``requeue_scan`` and ``finalize`` reject an entry when some governed
emotion fails both inequalities by the factor ``1 + tau``, with
``tau = 8 * (rows + 16) * u`` and ``u = 2**-53``; any other entry gets the
exact test, so every decision is the exact path's. ``submit`` is exact
only, since most submitted comments pass.

The bound. Each mass or total either path compares is a sum of
non-negative products of at most four rounded factors. Summing k
non-negative terms in any order loses at most ``(k - 1) * u`` relative, so
both paths land within ``gamma = (rows + 16) * u / (1 - (rows + 16) * u)``
of the same real value; 16 covers the products' roundings, the patches and
the eight-term total. The two sides of one inequality can thus differ
between the paths by about ``4 * gamma``, plus five roundings in the
comparisons themselves, which ``tau`` exceeds. A screen rejection therefore
implies an exact rejection, while an exact tie (hypothetical share equal to
the current one) always falls inside the slack and goes to the exact test.
The bound is relative and fails under gradual underflow, so the screen
rejects only when ``m_e * T_cur >= 2**-900``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping

from . import congraph
from .congraph import ConversationGraph, EmotionBoard, InfluenceWeights
from .emolex import EMOTION_INDEX, EMOTION_NAMES, ClassifiedComment, EmotionKind

logger = logging.getLogger(__name__)

GOVERNED_EMOTIONS: tuple[EmotionKind, ...] = (
    EmotionKind.ANGER,
    EmotionKind.FEAR,
    EmotionKind.DISGUST,
    EmotionKind.SADNESS,
)
POSITIVE_EMOTIONS: frozenset[EmotionKind] = frozenset(
    {EmotionKind.JOY, EmotionKind.TRUST, EmotionKind.ANTICIPATION}
)
_GOVERNED_IDX: tuple[tuple[int, EmotionKind], ...] = tuple(
    (EMOTION_INDEX[e], e) for e in GOVERNED_EMOTIONS
)
_GOVERNED_NAMES: tuple[str, ...] = tuple(e.value for e in GOVERNED_EMOTIONS)

ACTIVITY_RING = 20
DEFAULT_ACTIVITY_CUTOFF = 60.0
DEFAULT_RHO = 0.5

# the re-test screen's slack is 1 + _SCREEN_ULPS * (window rows + 16) * 2**-53;
# below _SCREEN_MIN rounding errors stop being relative (gradual underflow)
_SCREEN_ULPS = 8.0
_SCREEN_MIN = 2.0**-900
_ZERO_VECTOR = (0.0,) * 8


class RegulatorError(Exception):
    """Base error for the queuing engine."""


class ClockError(RegulatorError):
    """Event timestamps moved backwards."""


class UnknownParentError(RegulatorError):
    """A submission referenced a parent the engine has never seen."""


def _default_bases() -> dict[EmotionKind, float]:
    return {
        EmotionKind.ANGER: 50.0,
        EmotionKind.FEAR: 60.0,
        EmotionKind.DISGUST: 60.0,
        EmotionKind.SADNESS: 60.0,
    }


@dataclass(frozen=True)
class ThresholdConfig:
    """Board-percentage thresholds per governed emotion plus adjustment knobs."""

    base: Mapping[EmotionKind, float] = field(default_factory=_default_bases)
    active_relax: float = 10.0
    quiet_tighten: float = 5.0
    decay_gamma: float = 5.0
    decay_scale: int = 1000
    floor: Mapping[EmotionKind, float] = field(
        default_factory=lambda: {e: 30.0 for e in GOVERNED_EMOTIONS}
    )
    ceiling: Mapping[EmotionKind, float] = field(
        default_factory=lambda: {e: 90.0 for e in GOVERNED_EMOTIONS}
    )

    def __post_init__(self) -> None:
        merged_base = {**_default_bases(), **dict(self.base)}
        merged_floor = {**{e: 30.0 for e in GOVERNED_EMOTIONS}, **dict(self.floor)}
        merged_ceiling = {**{e: 90.0 for e in GOVERNED_EMOTIONS}, **dict(self.ceiling)}
        object.__setattr__(self, "base", merged_base)
        object.__setattr__(self, "floor", merged_floor)
        object.__setattr__(self, "ceiling", merged_ceiling)
        if self.decay_scale < 1:
            raise ValueError("decay_scale must be >= 1")
        if not all(
            math.isfinite(v) for v in (self.active_relax, self.quiet_tighten, self.decay_gamma)
        ):
            raise ValueError("active_relax, quiet_tighten and decay_gamma must be finite")
        for e in GOVERNED_EMOTIONS:
            if not 0.0 < merged_floor[e] <= merged_base[e] <= merged_ceiling[e] <= 100.0:
                raise ValueError(
                    f"{e.value}: need 0 < floor <= base <= ceiling <= 100, got "
                    f"{merged_floor[e]}/{merged_base[e]}/{merged_ceiling[e]}"
                )


class QueueStatus(Enum):
    HELD = "held"
    RELEASED = "released"
    REVISED = "revised"
    SUSPENDED = "suspended"


class AdmissionDecision(Enum):
    ADMITTED = "admitted"
    HELD = "held"


@dataclass
class QueueEntry:
    comment: ClassifiedComment
    parent_id: str | None
    enqueue_time: float
    reeval_count: int = 0
    status: QueueStatus = QueueStatus.HELD
    release_time: float | None = None
    revised: bool = False
    hold_duration: float | None = None


@dataclass(frozen=True, slots=True)
class AdmissionRow:
    """One admission into the graph, for spread accounting."""

    seq: int
    tag: int
    comment_id: str
    mass: tuple[float, ...]
    revised: bool


class _WindowState:
    """The window in one graph state, shared by every reader until the next
    admission: masses, board, and the sums the re-test screen patches."""

    __slots__ = ("mass", "total", "board", "logged", "screen")

    def __init__(self, mass, total: float):
        self.mass = mass
        self.total = total
        self.board: EmotionBoard | None = None
        self.logged: tuple[float, ...] | None = None
        # (start, slack, base sums, PageRank sums, reply sums, current masses)
        self.screen: tuple | None = None


class Engine:
    """Single-conversation queuing engine (one owner, operations serialized)."""

    def __init__(
        self,
        *,
        thresholds: ThresholdConfig | None = None,
        weights: InfluenceWeights | None = None,
        window_size: int = congraph.DEFAULT_WINDOW,
        activity_cutoff: float = DEFAULT_ACTIVITY_CUTOFF,
        rho: float = DEFAULT_RHO,
        damping: float = congraph.DEFAULT_DAMPING,
        queue_enabled: bool = True,
        log_decisions: bool = False,
    ):
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        if not 0.0 < rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")
        self.thresholds = thresholds or ThresholdConfig()
        self.weights = weights or InfluenceWeights()
        self.window_size = window_size
        self.rho = rho
        self.damping = damping
        self.queue_enabled = queue_enabled
        self.log_decisions = log_decisions

        self.graph: ConversationGraph | None = None
        self.activity_cutoff = activity_cutoff
        self._act_times: list[float] = []
        self._act_active = False
        self._base_t = tuple(self.thresholds.base[e] for e in GOVERNED_EMOTIONS)
        self._floor_t = tuple(self.thresholds.floor[e] for e in GOVERNED_EMOTIONS)
        self._ceiling_t = tuple(self.thresholds.ceiling[e] for e in GOVERNED_EMOTIONS)
        self.processed_count = 0
        self.ever_held_count = 0
        self.orphan_count = 0
        self.entries: dict[str, QueueEntry] = {}
        self._held_ids: list[str] = []
        self._suspended_ids: set[str] = set()
        self.admissions: list[AdmissionRow] = []
        self.decisions: list[tuple[str, str]] = []
        self.decision_log: list[dict] = []
        self._last_now = float("-inf")
        self._state: _WindowState | None = None  # the window now; _admit drops it
        self._eff_memo: tuple = (None, ())  # ((processed, active), thresholds)
        self._current_tag = 0

    # -- state accessors ----------------------------------------------------

    def _push_admission_time(self, now: float) -> None:
        # the regime counts once the ring is full; its 19 gaps have one median
        times = self._act_times
        times.append(now)
        if len(times) > ACTIVITY_RING:
            del times[0]
        if len(times) == ACTIVITY_RING:
            gaps = sorted([b - a for a, b in zip(times, times[1:])])
            self._act_active = gaps[len(gaps) // 2] < self.activity_cutoff

    def _effective_tuple(self, processed: int) -> tuple[float, ...]:
        key = (processed, self._act_active)
        if self._eff_memo[0] == key:
            return self._eff_memo[1]
        cfg = self.thresholds
        adjust = cfg.active_relax if self._act_active else -cfg.quiet_tighten
        decay = cfg.decay_gamma * min(1.0, processed / cfg.decay_scale)
        eff = tuple(
            min(ceiling, max(floor, base + adjust - decay))
            for base, floor, ceiling in zip(self._base_t, self._floor_t, self._ceiling_t)
        )
        self._eff_memo = (key, eff)
        return eff

    @property
    def admitted_count(self) -> int:
        return 0 if self.graph is None else len(self.graph)

    @property
    def held_active_count(self) -> int:
        return len(self._held_ids)

    @property
    def suspended_count(self) -> int:
        return len(self._suspended_ids)

    def _window(self) -> _WindowState:
        state = self._state
        if state is None:
            assert self.graph is not None
            state = self._state = _WindowState(
                *congraph._window_mass_totals(self.graph, self.window_size, self.weights)
            )
        return state

    def _current_masses(self):
        state = self._window()
        return state.mass, state.total

    def board(self) -> EmotionBoard:
        """Current emotion board (empty-graph engines report all zero)."""
        if self.graph is None:
            return EmotionBoard((0.0,) * 8, self.window_size, 0)
        state = self._window()
        if state.board is None:
            start = max(0, len(self.graph) - self.window_size)
            state.board = congraph._masses_to_board(
                state.mass,
                state.total,
                self.window_size,
                congraph._contributing(self.graph, start),
            )
        return state.board

    def _logged_board(self) -> tuple[float, ...]:
        """Board percentages as the decision log writes them (6 decimals)."""
        if self.graph is None:
            return (0.0,) * 8
        state = self._window()
        if state.logged is None:
            state.logged = tuple(round(v, 6) for v in self.board().percentages)
        return state.logged

    def effective(self) -> dict[EmotionKind, float]:
        return dict(zip(GOVERNED_EMOTIONS, self._effective_tuple(self.processed_count)))

    def conservation_holds(self) -> bool:
        """processed == admitted + currently held + suspended."""
        return self.processed_count == (
            self.admitted_count + len(self._held_ids) + len(self._suspended_ids)
        )

    # -- decision predicate ---------------------------------------------------

    def _passes(self, comment: ClassifiedComment, parent_id: str, processed: int) -> bool:
        dominant = comment.dominant
        if dominant is None or dominant in POSITIVE_EMOTIONS:
            return True
        assert self.graph is not None
        hyp_mass, hyp_total = congraph._hypothetical_mass_totals(
            self.graph, self.window_size, self.weights, comment, parent_id
        )
        if hyp_total <= 0.0:
            return True
        cur_mass, cur_total = self._current_masses()
        eff = self._effective_tuple(processed)
        for pos, (idx, _) in enumerate(_GOVERNED_IDX):
            mass = hyp_mass[idx]
            if 100.0 * mass <= eff[pos] * hyp_total:
                continue
            if cur_total > 0.0:
                if mass * cur_total <= cur_mass[idx] * hyp_total:
                    continue
            elif mass <= 0.0:
                continue
            return False
        return True

    def _screen_sums(self, state: _WindowState) -> tuple:
        graph = self.graph
        assert graph is not None
        n = len(graph)
        start = max(0, n + 1 - self.window_size)
        sums = congraph._window_term_sums(graph, start)
        w = self.weights
        slack = 1.0 + _SCREEN_ULPS * (n - start + 16) * 2.0**-53
        base = (w.intensity * sums[0] + w.depth * sums[2]).tolist()
        return start, slack, base, sums[1].tolist(), sums[3].tolist(), state.mass.tolist()

    def _screen_rejects(self, comment: ClassifiedComment, parent_id: str) -> bool:
        """True only where ``_passes`` is False: the hypothetical masses from
        the window's term sums fail both inequalities by the slack."""
        dominant = comment.dominant
        if dominant is None or dominant in POSITIVE_EMOTIONS:
            return False
        state = self._window()
        cur_total = state.total
        if cur_total <= 0.0:
            return False
        if state.screen is None:
            state.screen = self._screen_sums(state)
        start, slack, base, sum_w, sum_r, cur_mass = state.screen
        graph = self.graph
        assert graph is not None
        parent_idx = graph._index[parent_id]
        weight = graph._weight
        comments = graph._comments
        max_weight = graph._max_weight
        patch_w = [0.0] * 8
        for idx, delta in graph._ancestor_deltas(parent_idx):
            adjusted = weight[idx] + delta
            if adjusted > max_weight:
                max_weight = adjusted
            if idx >= start:
                patch_w = [p + delta * v for p, v in zip(patch_w, comments[idx].vector)]
        parent_replies = graph._replies[parent_idx] + 1
        log_replies = math.log2(1.0 + parent_replies)
        if parent_idx >= start:
            patch_r = log_replies - float(graph._log_replies[parent_idx])
            parent_vec = comments[parent_idx].vector
        else:
            patch_r, parent_vec = 0.0, _ZERO_VECTOR
        w = self.weights
        coef_w = w.pagerank / max_weight
        coef_r = w.replies / math.log2(1.0 + max(graph._max_replies, parent_replies))
        cand = (
            w.intensity * comment.intensity
            + coef_w
            + w.depth / (2.0 + float(graph._depth[parent_idx]))
        )
        hyp = [
            b + coef_w * (sw + pw) + coef_r * (sr + patch_r * pv) + cand * cv
            for b, sw, pw, sr, pv, cv in zip(
                base, sum_w, patch_w, sum_r, parent_vec, comment.vector
            )
        ]
        total = sum(hyp)
        eff = self._effective_tuple(self.processed_count)
        for pos, (idx, _) in enumerate(_GOVERNED_IDX):
            mass = hyp[idx]
            if (
                100.0 * mass > slack * eff[pos] * total
                and mass * cur_total > slack * cur_mass[idx] * total
                and mass * cur_total >= _SCREEN_MIN
            ):
                return True
        return False

    def _retest(self, comment: ClassifiedComment, parent_id: str) -> bool:
        """The decision for a held entry: screened, then exact if not rejected."""
        assert self.graph is not None
        if parent_id not in self.graph or self._screen_rejects(comment, parent_id):
            return False
        return self._passes(comment, parent_id, self.processed_count)

    # -- commit helpers -------------------------------------------------------

    def _admit(
        self,
        comment: ClassifiedComment,
        parent_id: str | None,
        now: float,
        kind: str,
    ) -> None:
        if self.graph is None:
            self.graph = ConversationGraph(comment, damping=self.damping)
        else:
            self.graph.add(comment, parent_id=parent_id)
        self._state = None
        if self.queue_enabled or self.log_decisions:
            # without a queue nothing reads the activity regime
            self._push_admission_time(now)
        infl = congraph.node_influence(self.graph, comment.id, self.weights)
        mass = tuple(infl * v for v in comment.vector)
        self.admissions.append(
            AdmissionRow(
                seq=len(self.admissions),
                tag=self._current_tag,
                comment_id=comment.id,
                mass=mass,
                revised=kind == "revised_released",
            )
        )
        self.decisions.append((comment.id, kind))

    def _log(
        self,
        comment_id: str,
        decision: str,
        board_before: tuple[float, ...] | None,
        hold_duration: float | None = None,
    ) -> None:
        if not self.log_decisions:
            return
        eff = self._effective_tuple(self.processed_count)
        record = {
            "event_seq": len(self.decision_log),
            "comment_id": comment_id,
            "decision": decision,
            "board_before": dict(zip(EMOTION_NAMES, board_before)),
            "board_after": dict(zip(EMOTION_NAMES, self._logged_board())),
            "eff_thresholds": {name: round(v, 6) for name, v in zip(_GOVERNED_NAMES, eff)},
            "activity": "active" if self._act_active else "quiet",
        }
        if hold_duration is not None:
            record["hold_duration"] = round(hold_duration, 6)
        self.decision_log.append(record)

    def _enqueue(
        self, comment: ClassifiedComment, parent_id: str | None, now: float
    ) -> QueueEntry:
        entry = QueueEntry(comment=comment, parent_id=parent_id, enqueue_time=now)
        self.entries[comment.id] = entry
        self._held_ids.append(comment.id)
        self.ever_held_count += 1
        self.decisions.append((comment.id, "held"))
        return entry

    # -- operations -----------------------------------------------------------

    def submit(
        self,
        comment: ClassifiedComment,
        *,
        now: float,
        parent_id: str | None | object = ...,
        defer_missing_parent: bool = False,
        tag: int | None = None,
    ) -> AdmissionDecision:
        """Decide one submission; admissions trigger a queue re-evaluation pass."""
        if now < self._last_now:
            raise ClockError(f"event time {now} precedes {self._last_now}")
        self._last_now = now
        self._current_tag = tag if tag is not None else self._current_tag + 1
        target = comment.parent_id if parent_id is ... else parent_id

        if self.graph is None:
            if target is not None:
                raise UnknownParentError(
                    f"first submission must be the conversation root, got parent {target!r}"
                )
            before = self._logged_board() if self.log_decisions else None
            self.processed_count += 1
            self._admit(comment, None, now, "admitted")
            self._log(comment.id, "admitted", before)
            return AdmissionDecision.ADMITTED

        if target is None:
            raise congraph.StructuralError("conversation already has a root")
        if comment.id in self.graph or comment.id in self.entries:
            raise RegulatorError(f"duplicate submission {comment.id!r}")

        if target not in self.graph:
            pending = target in self.entries or target in self._suspended_ids
            if not (pending or defer_missing_parent):
                raise UnknownParentError(target)
            if not self.queue_enabled:
                # nothing can wait without a queue: publish under the root
                target = self.graph.root_id
                self.orphan_count += 1
            else:
                before = self._logged_board() if self.log_decisions else None
                self.processed_count += 1
                self._enqueue(comment, target, now)
                self._log(comment.id, "held", before)
                return AdmissionDecision.HELD

        before = self._logged_board() if self.log_decisions else None
        if self.queue_enabled and not self._passes(comment, target, self.processed_count):
            self.processed_count += 1
            self._enqueue(comment, target, now)
            self._log(comment.id, "held", before)
            return AdmissionDecision.HELD

        self.processed_count += 1
        self._admit(comment, target, now, "admitted")
        self._log(comment.id, "admitted", before)
        self.requeue_scan(now)
        return AdmissionDecision.ADMITTED

    def _priority_order(self) -> list[QueueEntry]:
        cur = self.board()

        def key(entry_id: str) -> tuple[float, float, str]:
            entry = self.entries[entry_id]
            dominant = entry.comment.dominant
            pct = 0.0 if dominant is None else cur.percentages[EMOTION_INDEX[dominant]]
            return (pct, entry.enqueue_time, entry_id)

        return [self.entries[eid] for eid in sorted(self._held_ids, key=key)]

    def requeue_scan(self, now: float) -> list[QueueEntry]:
        """One release pass over the queue, in underrepresented-emotion order."""
        if not self._held_ids:
            return []
        released: list[QueueEntry] = []
        for entry in self._priority_order():
            if entry.status is not QueueStatus.HELD:
                continue
            entry.reeval_count += 1
            if not self._retest(entry.comment, entry.parent_id):
                continue
            before = self._logged_board() if self.log_decisions else None
            entry.status = QueueStatus.RELEASED
            entry.release_time = now
            entry.hold_duration = now - entry.enqueue_time
            self._held_ids.remove(entry.comment.id)
            self._admit(entry.comment, entry.parent_id, now, "released")
            self._log(entry.comment.id, "released", before, entry.hold_duration)
            released.append(entry)
        return released

    def finalize(self, now: float) -> list[tuple[QueueEntry, QueueStatus]]:
        """Resolve the remaining queue: revise once, then release or suspend."""
        if now < self._last_now:
            raise ClockError(f"finalize time {now} precedes {self._last_now}")
        self._last_now = now
        outcomes: list[tuple[QueueEntry, QueueStatus]] = []
        if not self._held_ids:
            return outcomes
        for entry in self._priority_order():
            if entry.status is not QueueStatus.HELD:
                continue
            entry.reeval_count += 1
            entry.status = QueueStatus.REVISED
            entry.revised = True
            comment = entry.comment
            if comment.dominant is not None:
                comment = replace(comment, intensity=max(0.1, self.rho * comment.intensity))
                entry.comment = comment
            before = self._logged_board() if self.log_decisions else None
            if self._retest(comment, entry.parent_id):
                entry.status = QueueStatus.RELEASED
                entry.release_time = now
                entry.hold_duration = now - entry.enqueue_time
                self._held_ids.remove(comment.id)
                self._admit(comment, entry.parent_id, now, "revised_released")
                self._log(comment.id, "revised_released", before, entry.hold_duration)
                outcomes.append((entry, QueueStatus.RELEASED))
            else:
                entry.status = QueueStatus.SUSPENDED
                entry.hold_duration = now - entry.enqueue_time
                self._held_ids.remove(comment.id)
                self._suspended_ids.add(comment.id)
                self.decisions.append((comment.id, "suspended"))
                self._log(comment.id, "suspended", before, entry.hold_duration)
                outcomes.append((entry, QueueStatus.SUSPENDED))
        return outcomes
