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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping

from . import congraph
from .congraph import ConversationGraph, EmotionBoard, InfluenceWeights
from .emolex import EMOTION_INDEX, ClassifiedComment, EmotionKind

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

ACTIVITY_RING = 20
DEFAULT_ACTIVITY_CUTOFF = 60.0
DEFAULT_RHO = 0.5


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
        self._masses_cache: tuple | None = None  # (graph size, mass[8], total)
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
        cfg = self.thresholds
        adjust = cfg.active_relax if self._act_active else -cfg.quiet_tighten
        decay = cfg.decay_gamma * min(1.0, processed / cfg.decay_scale)
        return tuple(
            min(ceiling, max(floor, base + adjust - decay))
            for base, floor, ceiling in zip(self._base_t, self._floor_t, self._ceiling_t)
        )

    @property
    def admitted_count(self) -> int:
        return 0 if self.graph is None else len(self.graph)

    @property
    def held_active_count(self) -> int:
        return len(self._held_ids)

    @property
    def suspended_count(self) -> int:
        return len(self._suspended_ids)

    def _current_masses(self):
        assert self.graph is not None
        cached = self._masses_cache
        n = len(self.graph)
        if cached is not None and cached[0] == n:
            return cached[1], cached[2]
        mass, total = congraph._window_mass_totals(
            self.graph, self.window_size, self.weights
        )
        self._masses_cache = (n, mass, total)
        return mass, total

    def board(self) -> EmotionBoard:
        """Current emotion board (empty-graph engines report all zero)."""
        if self.graph is None:
            return EmotionBoard((0.0,) * 8, self.window_size, 0)
        mass, total, contributing = congraph.window_masses(
            self.graph, self.window_size, self.weights
        )
        return congraph._masses_to_board(mass, total, self.window_size, contributing)

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
        self._masses_cache = None
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
        board_before: EmotionBoard | None,
        hold_duration: float | None = None,
    ) -> None:
        if not self.log_decisions:
            return
        if board_before is None:
            board_before = EmotionBoard((0.0,) * 8, self.window_size, 0)
        eff = self.effective()
        record = {
            "event_seq": len(self.decision_log),
            "comment_id": comment_id,
            "decision": decision,
            "board_before": {k: round(v, 6) for k, v in board_before.as_dict().items()},
            "board_after": {k: round(v, 6) for k, v in self.board().as_dict().items()},
            "eff_thresholds": {e.value: round(v, 6) for e, v in eff.items()},
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
            before = self.board() if self.log_decisions else None
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
                before = self.board() if self.log_decisions else None
                self.processed_count += 1
                self._enqueue(comment, target, now)
                self._log(comment.id, "held", before)
                return AdmissionDecision.HELD

        before = self.board() if self.log_decisions else None
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
            assert self.graph is not None
            if entry.parent_id not in self.graph:
                continue
            if not self._passes(entry.comment, entry.parent_id, self.processed_count):
                continue
            before = self.board() if self.log_decisions else None
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
            before = self.board() if self.log_decisions else None
            assert self.graph is not None
            if entry.parent_id in self.graph and self._passes(
                comment, entry.parent_id, self.processed_count
            ):
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
