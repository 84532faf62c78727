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
  one re-evaluation pass over the held entries whose parent is published:
  they are ordered by the current board percentage of their dominant emotion
  ascending (neutral counts as 0), then enqueue time, then id; each passing
  entry is admitted immediately (mutating the board) before the next is
  tested. Releases during a pass do not start nested passes, and the order
  is fixed when the pass starts: an entry whose parent is released during
  the pass is tested in it only if it sorts after the parent.
* finalize() makes one pass in the same priority order over every held
  entry: each is revised (intensity halved by ``rho``, floored at 0.1) and
  re-tested once if its parent is published, then either released or
  terminally suspended. Admissions inside finalize do not trigger
  re-evaluation passes.

A queue-disabled engine (the no-queue condition of paired runs) admits
every submission directly; nothing reads its thresholds or activity regime.

Between two admissions the window does not change, so the engine builds
what it reads from the window once per graph state and drops it on the next
admission: the window's PageRank weights (which the exact test and the
screen slice), the current masses, the board and the percentages rounded
to 6 decimals for the decision log (a logging engine rounds them in the
step that builds the masses, since it logs every graph state). What an
admission fixes is not rebuilt at all: the graph stores each row's
intensity and root-proximity terms, already scaled by the engine's
influence weights, and every window product reads them (``congraph`` says
why the masses stay bit-identical). The effective
thresholds depend only on ``min(processed, decay_scale)`` and the activity
regime, so every engine of one ``ThresholdConfig`` reads them from one
table that the config holds, and the activity ring keeps its 19 gaps sorted
as admissions come and go. The decision log is a list of ``DecisionRow``:
one decision's ``board_after`` is that state's rounded tuple, the same
object as the next decision's ``board_before``, and ``thresholds`` is the
shared effective tuple. Rows are rendered to text only when the log is
written (``harness.decision_lines``).

The queue. A held entry whose parent is not published waits, parked under
the parent's id, outside the order; it joins when the parent is admitted,
by a submission or a release. The others sit in one bucket per dominant
emotion (or none), each in (enqueue time, id) order, and a pass merges the
buckets by the board's current share, falling back to (enqueue time, id)
between buckets of equal share. ``QueueEntry.reeval_count`` counts the
times an entry was screened or tested; a parked entry is neither.

Re-test screen. Every admission re-tests the held entries, and nearly all
of them stay held. Influence is linear in its four terms and every summand
is non-negative (vectors in [0, 1], mixing weights >= 0, PageRank weights
>= 1, log reply counts >= 0). So the screen reads the four per-emotion term
sums over the hypothetical window ``[max(0, n+1-W), n)``, one
(4 x rows) @ (rows x 8) product: the two stored row terms, which the exact
test reads too, then the PageRank weight and the log reply count before
their mixing weights and maxima scale them. Per entry it patches in the
ancestors' ``damping**k`` bumps inside the window, the parent's new
log-reply term, the new maximum weight and reply count, and the
candidate's own mass, as ``congraph._admission_patches`` and
``congraph._candidate_influence`` state them for the exact test; only the
summation order differs. ``requeue_scan`` and ``finalize`` reject an entry
when, for some governed emotion, the mass exceeds
``(1 + tau) * max(eff_e / 100, c_e / T_cur)`` of the total, that is, fails
both inequalities by the factor ``1 + tau``, with
``tau = 8 * (rows + 16) * u`` and ``u = 2**-53``; any other entry gets the
exact test, so every decision is the exact path's.

A published comment's ancestor chain (``congraph._ancestor_chain``) never
changes, so the engine builds it once, when the exact test or the screen
first meets a child of it (a chain has one row per ``damping**k`` above
``2**-53``, 226 at the default damping). ``_HeldScreen`` keeps one array
row per held entry the exact test can fail, filed as entries join and
dropped as they leave, and screens every row a pass has left in one
held x 8 array expression; per graph state it reads only the weights
along the chains, the maxima and the window start. The first entry of
each graph state goes straight to the exact test. At the start of a pass
it is the least represented, the likeliest to pass and so to end the
state; right after a release it sorts next to the entry just released,
and in a storm's release cascades it usually passes too. After it, a pass
screens the rest of the state at once if ``_SCREEN_BATCH_MIN`` or more
entries are left, and sends each to the exact test otherwise.

The bound. Each mass or total the screen or the exact test compares is a
sum of non-negative products of at most four rounded factors. Summing k
non-negative terms in any order loses at most ``(k - 1) * u`` relative, so
both land within ``gamma = (rows + 16) * u / (1 - (rows + 16) * u)``
of the same real value; 16 covers the products' roundings, the patches and
the eight-term total. The two sides of one inequality can thus differ
between the two by about ``4 * gamma``, plus five roundings in the
comparisons themselves, which ``tau`` exceeds. A screen rejection therefore
implies an exact rejection, while an exact tie (hypothetical share equal to
the current one) always falls inside the slack and goes to the exact test.
The bound is relative and fails under gradual underflow, so the screen
rejects only when ``m_e > 2**-900 / T_cur``.

Certificate. Every exact test (``_passes``: at submit, in a pass, at
finalize) first tries to decide from bounds on the board the candidate
would make, and computes that board in full (``_exact_passes``) only where
the bounds do not decide. Per graph state (``_certificate``, built on its
first call) it reads the base ``b_e``: the current masses less the row
``n - W`` that leaves a full window. Per candidate, from the parent's
``congraph._admission_patch`` (which the exact test then reuses), it adds
``a_e``, what the admission adds at the new PageRank coefficient
``pagerank / max_w'``: the candidate's own mass, the parent's new log reply
count and the in-window ancestors' ``damping**k`` bumps. New maxima only
shrink the base, its PageRank terms by at most ``rho_w = max_w / max_w'``
and its reply terms by at most ``rho_r = log2(1 + max_r) / log2(1 +
max_r')``, and every term is non-negative, so the mass lies in
``[rho * b_e + a_e, b_e + a_e]`` with ``rho = min(rho_w, rho_r)``, and the
total likewise. Where that does not decide and ``max_w`` moved, the bounds
split the base into its PageRank part ``c_w * B_e`` (``B_e`` sums PageRank
weight times vector over the window, ``c_w = pagerank / max_w``; built once
per state, ``_ranked``) and the rest ``R_e``: the mass then lies in
``[rho_r * R_e + rho_w * c_w * B_e + a_e, R_e + rho_w * c_w * B_e + a_e]``.
A pass is certified where ``_clears``, the exact test's comparisons, holds
for the upper masses against the lower total; a fail where it fails for
the lower masses against the upper total and the lower total is positive.
Rounding is monotone, so the exact test's comparisons of its own masses
then give the same verdict. Each bound is widened by
``err = tau * S + 2**-900``, ``tau`` as above with ``rows = min(n, W)``,
where ``S`` is the current total plus the leaving row plus the adds' total
(plus the PageRank part, where it is split off). The error terms are
absolute, scaled by ``S`` and not by the bound, because the base and the
rest are differences that can cancel. Why ``tau`` covers them, with
``gamma_k = k * u / (1 - k * u)``: the exact path's masses and total lie
within ``gamma`` (above) of their real values, which lie between the real
bounds, so at most ``gamma * S`` beyond them; each computed bound lies
within ``gamma_(rows+21) * S`` of its real bound (the current masses' and
total's ``gamma_(rows+12)``, the ``rows``-term PageRank sums, under ten
roundings for the leaving row, the coefficients, ``rho``, the adds and the
subtractions, and seven for the eight-term sums); so the two differ by
less than ``2 * gamma_(rows+21) * S``, about ``(2 * rows + 42) * u * S``,
and ``tau * S = 8 * (rows + 16) * u * S`` exceeds that with room for the
widening's own two roundings (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., ch. 3-4). Under gradual underflow an operation loses
up to ``2**-1075`` absolute, far less than the ``2**-900`` term over any
feasible count of operations. The bounds never decide an exact tie (a
single-emotion board) or a board below the ``2**-900`` floor, and a zero
current total builds no certificate: those go to the exact test. So does a
candidate with more than ``_CERTIFY_MAX_BUMPS`` ancestors in the window,
where the exact test costs less than the certificate's sums.
"""

from __future__ import annotations

import heapq
import logging
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter, itemgetter
from typing import Callable, Mapping, NamedTuple

import numpy as np

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
_GOVERNED_COLS = np.array([EMOTION_INDEX[e] for e in GOVERNED_EMOTIONS])
# a vector's governed entries, in GOVERNED_EMOTIONS order
_GOVERNED_OF = itemgetter(*_GOVERNED_COLS.tolist())

ACTIVITY_RING = 20
DEFAULT_ACTIVITY_CUTOFF = 60.0
DEFAULT_RHO = 0.5

# the re-test screen's slack is 1 + _SCREEN_ULPS * (window rows + 16) * 2**-53,
# and the certificate's _SCREEN_ULPS * (window rows + 16) * 2**-53 of its
# scale; below _SCREEN_MIN rounding errors stop being relative (gradual
# underflow)
_SCREEN_ULPS = 8.0
_SCREEN_MIN = 2.0**-900
# after its first entry, a graph state screens the rest of the pass at once
# if at least this many are left, else sends each to the exact test, which
# the certificate mostly decides; engine-only medians of interleaved rounds
# on 2 cores, troll_storm shape (seed 61): 4: 0.70 s, 8: 0.64-0.67 s,
# 12-32: 0.60-0.65 s, 48: 0.65 s, never batching: 0.76 s; calibrated shape:
# 0.20-0.21 s for every value
_SCREEN_BATCH_MIN = 12
# a candidate with more of its ancestors in the window goes straight to the
# exact test: the certificate sums each such row in Python, about 0.36 us a
# row on 2 cores against 0.15 us for the exact test's patch, so at the
# default window's 99 (a deep reply chain) it cost 29 us against 22 us
_CERTIFY_MAX_BUMPS = 16
_ZERO_VECTOR = (0.0,) * 8
# a priority bucket's order: enqueue time, then id
_TIME_ID = attrgetter("enqueue_time", "comment.id")
# a config's threshold table is emptied when it holds this many keys, which
# only a decay_scale above 2047 can reach
_THRESHOLD_TABLE_MAX = 4096


class RegulatorError(Exception):
    """Base error for the queuing engine."""


class ClockError(RegulatorError):
    """Event timestamps moved backwards."""


class UnknownParentError(RegulatorError):
    """A submission referenced a parent the engine has never seen."""


# per governed emotion, in GOVERNED_EMOTIONS order: the thresholds a
# ThresholdConfig keeps where its base, floor or ceiling names no value
_DEFAULT_THRESHOLDS = {
    "base": (50.0, 60.0, 60.0, 60.0),
    "floor": (30.0,) * len(GOVERNED_EMOTIONS),
    "ceiling": (90.0,) * len(GOVERNED_EMOTIONS),
}


def check_engine_settings(window_size: int, rho: float, activity_cutoff: float) -> None:
    """Raise ValueError unless ``window_size``, ``rho`` and ``activity_cutoff``
    are settings an Engine accepts."""
    congraph.check_window_size(window_size)
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    if not 0.0 <= activity_cutoff < math.inf:
        raise ValueError("activity_cutoff must be finite and >= 0")


@dataclass(frozen=True)
class ThresholdConfig:
    """Board-percentage thresholds per governed emotion plus adjustment knobs.

    ``base``, ``floor`` and ``ceiling`` may name only some governed emotions;
    the others keep their defaults.
    """

    base: Mapping[EmotionKind, float] = field(default_factory=dict)
    active_relax: float = 10.0
    quiet_tighten: float = 5.0
    decay_gamma: float = 5.0
    decay_scale: int = 1000
    floor: Mapping[EmotionKind, float] = field(default_factory=dict)
    ceiling: Mapping[EmotionKind, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, defaults in _DEFAULT_THRESHOLDS.items():
            merged = {**dict(zip(GOVERNED_EMOTIONS, defaults)), **dict(getattr(self, name))}
            object.__setattr__(self, name, merged)
        if self.decay_scale < 1:
            raise ValueError("decay_scale must be >= 1")
        if not all(
            math.isfinite(v) for v in (self.active_relax, self.quiet_tighten, self.decay_gamma)
        ):
            raise ValueError("active_relax, quiet_tighten and decay_gamma must be finite")
        for e in GOVERNED_EMOTIONS:
            floor, base, ceiling = self.floor[e], self.base[e], self.ceiling[e]
            if not 0.0 < floor <= base <= ceiling <= 100.0:
                raise ValueError(
                    f"{e.value}: need 0 < floor <= base <= ceiling <= 100, got "
                    f"{floor}/{base}/{ceiling}"
                )
        # Engine._effective_tuple's table, shared by every engine of this
        # config; not a field, so neither equality nor the config hash sees it
        object.__setattr__(self, "_effective", {})


class QueueStatus(Enum):
    HELD = "held"
    RELEASED = "released"
    SUSPENDED = "suspended"


class AdmissionDecision(Enum):
    ADMITTED = "admitted"
    HELD = "held"


@dataclass
class QueueEntry:
    """A held comment; ``reeval_count`` counts the times it was screened or
    tested after it was held."""

    comment: ClassifiedComment
    parent_id: str | None
    enqueue_time: float
    reeval_count: int = 0
    status: QueueStatus = QueueStatus.HELD
    release_time: float | None = None
    revised: bool = False
    hold_duration: float | None = None


class DecisionRow(NamedTuple):
    """One logged decision. Boards are percentages in ``EMOTION_NAMES``
    order, rounded to 6 decimals; ``thresholds`` are the effective
    thresholds in ``GOVERNED_EMOTIONS`` order, unrounded; ``active`` is the
    activity regime; ``hold_duration`` is set for releases and suspensions."""

    comment_id: str
    decision: str
    board_before: tuple[float, ...]
    board_after: tuple[float, ...]
    thresholds: tuple[float, ...]
    active: bool
    hold_duration: float | None


class _WindowState:
    """The window in one graph state, shared by every reader until the next
    admission: the window's PageRank weights, masses, board, the board
    rounded for the decision log, and what the certificate reads of the
    state (``Engine._certificate``, ``()`` where the current total is 0,
    and ``Engine._ranked``), built on the certificate's first call that
    reads it."""

    __slots__ = ("weights", "mass", "total", "board", "logged", "cert", "ranked")

    def __init__(self, weights: np.ndarray, mass, total: float):
        self.weights = weights
        self.mass = mass
        self.total = total
        self.board: EmotionBoard | None = None
        self.logged: tuple[float, ...] | None = None
        self.cert: tuple | None = None
        self.ranked: tuple | None = None


def _may_hold(comment: ClassifiedComment) -> bool:
    """False where the exact test always passes: no dominant emotion, or a
    positive one."""
    dominant = comment.dominant
    return dominant is not None and dominant not in POSITIVE_EMOTIONS


def _row_sums(graph: ConversationGraph, rows, step: float, coef_w: float) -> tuple:
    """Governed entries and row sum of the vectors of ``rows``, a parent and
    the in-window head of its ancestor chain, ``rows[k]`` weighted by
    ``coef_w * damping**(k + 1)`` and the parent, ``rows[0]``, by ``step``
    more."""
    coefs = [coef_w * delta for delta in graph._powers[: len(rows)]] or [0.0]
    coefs[0] += step
    s0 = s1 = s2 = s3 = s4 = 0.0
    comments = graph._comments
    for row, coef in zip(rows, coefs):
        vec = comments[row].vector
        v0, v1, v2, v3 = _GOVERNED_OF(vec)
        s0 += coef * v0
        s1 += coef * v1
        s2 += coef * v2
        s3 += coef * v3
        s4 += coef * sum(vec)
    return s0, s1, s2, s3, s4


def _bounded_verdict(eff, upper, lower, cur_masses, cur_total: float) -> bool | None:
    """The exact test's verdict from upper and lower bounds of the governed
    masses and total (the total last) a candidate would make, where they
    decide it, else None: a pass where ``_clears`` holds for the upper
    masses against the lower total, a fail where it fails for the lower
    masses against the upper total and the lower total is positive."""
    if _clears(eff, upper, lower[4], cur_masses, cur_total):
        return True
    if lower[4] > 0.0 and not _clears(eff, lower, upper[4], cur_masses, cur_total):
        return False
    return None


def _clears(eff, masses, total: float, cur_masses, cur_total: float) -> bool:
    """The exact test's comparisons, per governed emotion in
    ``GOVERNED_EMOTIONS`` order: ``100*m_e <= eff_e*T`` or
    ``m_e*T_cur <= c_e*T`` (``m_e <= 0`` when ``T_cur`` is 0), for masses
    ``m_e`` and total ``T`` of the board a candidate would make and current
    masses ``c_e`` and total ``T_cur``."""
    for e, mass, cur in zip(eff, masses, cur_masses):
        if 100.0 * mass <= e * total:
            continue
        if cur_total > 0.0:
            if mass * cur_total <= cur * total:
                continue
        elif mass <= 0.0:
            continue
        return False
    return True


class _HeldScreen:
    """What the batched screen reads of the held entries the exact test can
    fail and whose parent is published, one row per entry, kept as entries
    join and leave: the candidate's vector and intensity, the parent's row
    and vector, and the parent's ancestor chain as rows, as places in
    ``chain_rows``, as ``damping**k`` and as running sums of ``damping**k``
    times the ancestor's vector. ``chain_rows`` lists every row a filed chain
    has named, the root first, so that a screen reads the PageRank weights of
    those rows only. Chains are padded with row -1 at the root's place and
    delta 0: the root's weight never exceeds the maximum. Entries that join
    wait in ``pending`` until the next screen files them all at once."""

    def __init__(self) -> None:
        self.slot: dict[str, int] = {}
        self.ids: list[str] = []
        self.pending: list[QueueEntry] = []
        self.chain_rows: list[int] = [0]
        self.place: dict[int, int] = {0: 0}
        # log2(1 + r) at index r, as math.log2 rounds it (grown on demand)
        self.log2_table = np.zeros(0)
        self._set_arrays(16, 16)

    def __len__(self) -> int:
        return len(self.ids)

    def _set_arrays(self, capacity: int, depth: int) -> None:
        fresh = {
            "vec": np.zeros((capacity, 8)),
            "intensity": np.zeros(capacity),
            "parent": np.zeros(capacity, dtype=np.intp),
            "parent_vec": np.zeros((capacity, 8)),
            "rows": np.full((capacity, depth), -1, dtype=np.intp),
            "places": np.zeros((capacity, depth), dtype=np.intp),
            "deltas": np.zeros((capacity, depth)),
            "prefix": np.zeros((capacity, depth + 1, 8)),
        }
        k = len(self.ids)
        for name, arr in fresh.items():
            if k:
                old = getattr(self, name)
                arr[(slice(k),) + tuple(slice(size) for size in old.shape[1:])] = old[:k]
            setattr(self, name, arr)

    def _file_pending(
        self,
        graph: ConversationGraph,
        parents: list[int],
        chains: list[tuple[int, ...]],
    ) -> None:
        """File the pending entries, whose parents are in rows ``parents``
        with ancestor chains ``chains``."""
        pending = self.pending
        self.pending = []
        k = len(self.ids)
        capacity, width = self.rows.shape
        longest = max(len(chain) for chain in chains)
        if k + len(pending) > capacity or longest > width:
            while capacity < k + len(pending):
                capacity *= 2
            self._set_arrays(capacity, max(width, longest))
            width = self.rows.shape[1]
        place, chain_rows, powers = self.place, self.chain_rows, graph._powers
        rows, places, deltas = [], [], []
        for slot, (entry, chain) in enumerate(zip(pending, chains), k):
            pad = width - len(chain)
            for row in chain:
                if row not in place:
                    place[row] = len(chain_rows)
                    chain_rows.append(row)
            rows.append(list(chain) + [-1] * pad)
            places.append([place[row] for row in chain] + [0] * pad)
            deltas.append(list(powers[: len(chain)]) + [0.0] * pad)
            self.slot[entry.comment.id] = slot
            self.ids.append(entry.comment.id)
        new = slice(k, len(self.ids))
        self.rows[new] = rows
        self.places[new] = places
        self.deltas[new] = deltas
        # a pad's 0 adds nothing to the running sums
        np.cumsum(
            self.deltas[new, :, None] * graph._vectors[self.rows[new]],
            axis=1,
            out=self.prefix[new, 1:],
        )
        self.parent[new] = parents
        self.parent_vec[new] = graph._vectors[parents]
        self.vec[new] = [entry.comment.vector for entry in pending]
        self.intensity[new] = [entry.comment.intensity for entry in pending]

    def leave(self, entry: QueueEntry) -> None:
        slot = self.slot.pop(entry.comment.id, None)
        if slot is None:
            # by identity: QueueEntry compares its fields
            pending = self.pending
            del pending[next(pos for pos, other in enumerate(pending) if other is entry)]
            return
        last = len(self.ids) - 1
        if slot != last:
            for arr in (
                self.vec, self.intensity, self.parent, self.parent_vec, self.rows, self.places,
                self.deltas, self.prefix,
            ):
                arr[slot] = arr[last]
            moved = self.ids[last]
            self.ids[slot] = moved
            self.slot[moved] = slot
        self.ids.pop()

    def rejects(
        self,
        graph: ConversationGraph,
        weights: InfluenceWeights,
        sums: tuple,
        positions: list[int],
    ) -> np.ndarray:
        """The screen of the rows in ``positions`` in one graph state, whose
        ``Engine._screen_inputs`` are ``sums``: True only where
        ``Engine._passes`` is False."""
        start, base, sum_w, sum_r, limits, floor = sums
        idx = np.array(positions, np.intp)
        parent = self.parent[idx]
        chain_weights = np.fromiter(map(graph._weight.__getitem__, self.chain_rows), float)
        cut, max_weight, parent_replies, max_replies = congraph._admission_patches(
            graph, parent, self.rows[idx], chain_weights[self.places[idx]], self.deltas[idx], start
        )
        table = self.log2_table
        if len(table) <= graph._max_replies + 1:
            size = 2 * (graph._max_replies + 2)
            table = self.log2_table = np.array([math.log2(1.0 + r) for r in range(size)])
        patch_r = table[parent_replies] - graph._log_replies[parent]
        patch_r[parent < start] = 0.0
        coef_w = weights.pagerank / max_weight
        coef_r = weights.replies / table[max_replies]
        hyp = self.prefix[idx, cut]
        hyp += sum_w
        hyp *= coef_w[:, None]
        hyp += base
        reply_terms = self.parent_vec[idx] * patch_r[:, None]
        reply_terms += sum_r
        reply_terms *= coef_r[:, None]
        hyp += reply_terms
        cand = congraph._candidate_influence(
            graph, weights, self.intensity[idx], parent, max_weight
        )
        hyp += self.vec[idx] * cand[:, None]
        limit = hyp.sum(axis=1)[:, None] * limits
        np.maximum(limit, floor, out=limit)
        return (hyp[:, _GOVERNED_COLS] > limit).any(axis=1)


class _PassScreen:
    """The screen of one pass over ``order``. The first entry of each graph
    state goes straight to the exact test. The rest of the state is screened
    at once if ``_SCREEN_BATCH_MIN`` or more entries are left, and goes to
    the exact test otherwise."""

    def __init__(self, engine: "Engine", order: list[QueueEntry]):
        self.engine = engine
        self.order = order
        self.mask: list[bool] | None = None
        self.first = True

    def rejects(self, entry: QueueEntry, i: int) -> bool:
        """True only where ``_passes`` is False, for ``order[i]``."""
        if self.first:
            self.first = False
            return False
        engine = self.engine
        if self.mask is None and len(self.order) - i >= _SCREEN_BATCH_MIN:
            self.mask = engine._screen_mask(self.order, i)
        if self.mask is not None:
            slot = engine._screen.slot.get(entry.comment.id)
            if slot is not None:
                return self.mask[slot]
        return False

    def admitted(self) -> None:
        """An entry was released: the graph state changed."""
        self.mask = None
        self.first = True


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
        check_engine_settings(window_size, rho, activity_cutoff)
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must lie in (0, 1)")
        self.thresholds = thresholds or ThresholdConfig()
        self.weights = weights or InfluenceWeights()
        self.window_size = window_size
        self.rho = rho
        self.damping = damping
        self.queue_enabled = queue_enabled
        self.log_decisions = log_decisions

        self.graph: ConversationGraph | None = None
        self.activity_cutoff = activity_cutoff
        # the last ACTIVITY_RING admission times, and the gaps between them sorted
        self._act_times: list[float] = []
        self._act_gaps: list[float] = []
        self._act_active = False
        self.processed_count = 0
        self.ever_held_count = 0
        self.orphan_count = 0
        self.entries: dict[str, QueueEntry] = {}
        self._held_count = 0
        # held entries whose parent is published, per dominant emotion, each
        # bucket in _TIME_ID order; the others wait under their parent's id
        self._buckets: dict[EmotionKind | None, list[QueueEntry]] = {}
        self._parked: dict[str, list[QueueEntry]] = {}
        self._screen = _HeldScreen()
        self._ancestries: dict[int, tuple[int, ...]] = {}
        self._suspended_ids: set[str] = set()
        # the admission ledger, one item per graph row (the graph holds each
        # row's comment id and vector): the tag of the submission during which
        # the comment was admitted, and its influence at admission
        self.admission_tags: list[int] = []
        self.admission_influence: list[float] = []
        self.decisions: list[tuple[str, str]] = []
        self.decision_log: list[DecisionRow] = []
        self._last_now = float("-inf")
        self._state: _WindowState | None = None  # the window now; _admit drops it
        self._current_tag = 0

    # -- state accessors ----------------------------------------------------

    def _push_admission_time(self, now: float) -> None:
        # the regime counts once the ring is full; its 19 gaps have one median
        times = self._act_times
        if times:
            gaps = self._act_gaps
            if len(times) == ACTIVITY_RING:
                del gaps[bisect_left(gaps, times[1] - times[0])]
                del times[0]
            insort(gaps, now - times[-1])
            if len(gaps) == ACTIVITY_RING - 1:
                self._act_active = gaps[len(gaps) // 2] < self.activity_cutoff
        times.append(now)

    def _effective_tuple(self, processed: int) -> tuple[float, ...]:
        """The effective thresholds after ``processed`` submissions, in
        ``GOVERNED_EMOTIONS`` order. The decay stops changing at
        ``decay_scale``, so the config keeps one table for all its engines,
        keyed on ``(min(processed, decay_scale), regime)``."""
        cfg = self.thresholds
        key = (min(processed, cfg.decay_scale), self._act_active)
        table = cfg._effective
        eff = table.get(key)
        if eff is None:
            if len(table) >= _THRESHOLD_TABLE_MAX:
                table.clear()
            adjust = cfg.active_relax if key[1] else -cfg.quiet_tighten
            decay = cfg.decay_gamma * min(1.0, key[0] / cfg.decay_scale)
            eff = table[key] = tuple(
                min(cfg.ceiling[e], max(cfg.floor[e], cfg.base[e] + adjust - decay))
                for e in GOVERNED_EMOTIONS
            )
        return eff

    @property
    def admitted_count(self) -> int:
        return 0 if self.graph is None else len(self.graph)

    @property
    def held_active_count(self) -> int:
        return self._held_count

    @property
    def suspended_count(self) -> int:
        return len(self._suspended_ids)

    def _window(self) -> _WindowState:
        state = self._state
        if state is None:
            graph = self.graph
            assert graph is not None
            weights = congraph._window_weights(graph, max(0, len(graph) - self.window_size))
            mass, total = congraph._window_mass_totals(
                graph, self.window_size, self.weights, weights
            )
            state = self._state = _WindowState(weights, mass, total)
            if self.log_decisions:
                # every graph state a logging engine reaches is logged
                pct = congraph._percentages(mass, total)
                state.logged = tuple([round(v, 6) for v in pct])
        return state

    def _hypothetical_weights(self, state: _WindowState) -> np.ndarray:
        """The PageRank weights of the hypothetical window's old rows,
        ``[max(0, n + 1 - W), n)``: the window's, less its first row once full."""
        assert self.graph is not None
        return state.weights[1:] if len(self.graph) >= self.window_size else state.weights

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
        """Board percentages as the decision log writes them (6 decimals),
        which ``_window`` rounds when it builds the state of a logging engine."""
        if self.graph is None:
            return _ZERO_VECTOR
        return self._window().logged

    def conservation_holds(self) -> bool:
        """processed == admitted + currently held + suspended."""
        return self.processed_count == (
            self.admitted_count + self._held_count + len(self._suspended_ids)
        )

    # -- decision predicate ---------------------------------------------------

    def _passes(self, comment: ClassifiedComment, parent_id: str, processed: int) -> bool:
        """The exact test's verdict on admitting ``comment`` under
        ``parent_id`` after ``processed`` submissions: the certificate's
        where it decides, ``_exact_passes``' elsewhere."""
        if not _may_hold(comment):
            return True
        verdict, patch = self._certify(comment, parent_id, processed)
        if verdict is None:
            return self._exact_passes(comment, parent_id, processed, patch)
        return verdict

    def _exact_passes(
        self, comment: ClassifiedComment, parent_id: str, processed: int, patch=None
    ) -> bool:
        """The exact test: the board the candidate would make, computed in
        full, against ``_clears``. ``patch`` may pass in the parent's
        ``congraph._admission_patch``."""
        graph = self.graph
        assert graph is not None
        state = self._window()
        hyp_mass, hyp_total = congraph._hypothetical_mass_totals(
            graph,
            self.window_size,
            self.weights,
            comment,
            parent_id,
            self._hypothetical_weights(state),
            self._ancestry(graph._index[parent_id]),
            patch,
        )
        if hyp_total <= 0.0:
            return True
        # Python floats round as numpy's float64 scalars do, and cost less
        return _clears(
            self._effective_tuple(processed),
            _GOVERNED_OF(hyp_mass.tolist()),
            hyp_total,
            _GOVERNED_OF(state.mass.tolist()),
            state.total,
        )

    def _certificate(self, state: _WindowState) -> tuple:
        """What the certificate reads of one graph state, per governed
        emotion and then for the total: the current masses, and those of
        the hypothetical window's old rows now (the base: the current masses
        less the row that leaves the window). Then the scale of the base's
        rounding error (the current total plus the leaving row), the
        PageRank coefficient, the log of the maximum reply count and the
        slack. ``()`` where the current total is 0."""
        cur_total = state.total
        if not cur_total > 0.0:
            return ()
        graph = self.graph
        assert graph is not None
        weights = self.weights
        n = len(graph)
        cur = _GOVERNED_OF(state.mass.tolist()) + (cur_total,)
        base, scale = cur, cur_total
        if n >= self.window_size:
            # the hypothetical window drops row n - W; the graph stores the
            # row terms of the engine's own weights
            row = n - self.window_size
            infl = congraph._influence(
                weights, graph._int_term.item(row), graph._weight[row],
                graph._depth_term.item(row), graph._log_replies.item(row),
                graph._max_weight, graph._max_replies,
            )
            vec = graph._comments[row].vector
            leaving = (*[infl * v for v in _GOVERNED_OF(vec)], infl * sum(vec))
            base = [c - x for c, x in zip(cur, leaving)]
            scale += leaving[4]
        return (
            cur[:4],
            cur_total,
            base,
            scale,
            weights.pagerank / graph._max_weight,
            math.log2(1.0 + graph._max_replies),
            _SCREEN_ULPS * (min(n, self.window_size) + 16) * 2.0**-53,
        )

    def _ranked(self, state: _WindowState) -> tuple:
        """The hypothetical window's old rows' sums of PageRank weight times
        vector, governed entries then row sum, built on first use."""
        if state.ranked is None:
            graph = self.graph
            n = len(graph)
            sums = (
                self._hypothetical_weights(state)
                @ graph._vectors[max(0, n + 1 - self.window_size) : n]
            ).tolist()
            state.ranked = (*_GOVERNED_OF(sums), sum(sums))
        return state.ranked

    def _certify(
        self, comment: ClassifiedComment, parent_id: str, processed: int
    ) -> tuple[bool | None, tuple]:
        """The certificate: the exact test's verdict where bounds on the
        board the candidate would make decide it (``_bounded_verdict``),
        else None, and the parent's ``_admission_patch``."""
        graph = self.graph
        assert graph is not None
        state = self._window()
        parent_idx = graph._index[parent_id]
        start = max(0, len(graph) + 1 - self.window_size)
        patch = congraph._admission_patch(graph, parent_idx, start, self._ancestry(parent_idx))
        bumps, max_weight, parent_replies, max_replies = patch
        if len(bumps) > _CERTIFY_MAX_BUMPS:
            return None, patch
        if state.cert is None:
            state.cert = self._certificate(state)
        if not state.cert:
            return None, patch
        cur, cur_total, base, scale, coef_w, log_max_r, slack = state.cert
        weights = self.weights
        # what the admission adds, at the new PageRank coefficient: the
        # candidate's own mass, the parent's new log reply count and the
        # in-window ancestors' damping**k bumps
        new_coef_w = weights.pagerank / max_weight
        int_term, depth_term = congraph._row_terms(
            weights, comment.intensity, graph._depth.item(parent_idx) + 1.0
        )
        own = int_term + new_coef_w + depth_term
        vec = comment.vector
        adds = [own * v for v in (*_GOVERNED_OF(vec), sum(vec))]
        log_r = log_max_r
        if max_replies != graph._max_replies:
            log_r = math.log2(1.0 + max_replies)
        if parent_idx >= start:
            step = (math.log2(1.0 + parent_replies) - graph._log_replies.item(parent_idx)) * (
                weights.replies / log_r
            )
            rows = _row_sums(graph, bumps or (parent_idx,), step, new_coef_w)
            adds = [a + r for a, r in zip(adds, rows)]
        # new maxima only shrink the base: by at most rho_w in its PageRank
        # part and rho_r in the rest
        rho_w = graph._max_weight / max_weight
        rho_r = log_max_r / log_r if graph._max_replies else 1.0
        err = slack * (scale + adds[4]) + _SCREEN_MIN
        upper = [b + a + err for b, a in zip(base, adds)]
        rho = min(rho_w, rho_r)
        lower = [rho * b + a - err for b, a in zip(base, adds)]
        eff = self._effective_tuple(processed)
        verdict = _bounded_verdict(eff, upper, lower, cur, cur_total)
        if verdict is not None or rho_w == 1.0:
            return verdict, patch
        # split off the base's PageRank part, which shrinks by rho_w
        ranked = self._ranked(state)
        err += slack * coef_w * ranked[4]
        upper, lower = [], []
        for b, w, a in zip(base, ranked, adds):
            rest = b - coef_w * w
            moved = new_coef_w * w + a
            upper.append(rest + moved + err)
            lower.append(rho_r * rest + moved - err)
        return _bounded_verdict(eff, upper, lower, cur, cur_total), patch

    def _screen_inputs(self, state: _WindowState) -> tuple:
        """What the screen reads of one graph state and the thresholds now:
        the hypothetical window's start and term sums; per governed emotion,
        the share of the total a mass must pass to fail both inequalities by
        the slack, ``slack * max(eff_e / 100, c_e / T_cur)``; and the floor
        ``2**-900 / T_cur`` under which the screen fails nothing."""
        graph = self.graph
        assert graph is not None
        n = len(graph)
        start = max(0, n + 1 - self.window_size)
        sums = congraph._window_term_sums(
            graph, self.weights, start, self._hypothetical_weights(state)
        )
        slack = 1.0 + _SCREEN_ULPS * (n - start + 16) * 2.0**-53
        cur_total = state.total
        limits = [
            slack * max(e / 100.0, cur / cur_total)
            for e, cur in zip(
                self._effective_tuple(self.processed_count), _GOVERNED_OF(state.mass.tolist())
            )
        ]
        return start, sums[0] + sums[2], sums[1], sums[3], limits, _SCREEN_MIN / cur_total

    def _ancestry(self, parent_idx: int) -> tuple[int, ...]:
        """The ``congraph._ancestor_chain`` of the published comment in row
        ``parent_idx``, built on first use: it never changes once the
        comment is published."""
        chain = self._ancestries.get(parent_idx)
        if chain is None:
            assert self.graph is not None
            chain = self._ancestries[parent_idx] = congraph._ancestor_chain(
                self.graph, parent_idx
            )
        return chain

    def _screen_mask(self, order: list[QueueEntry], start: int) -> list[bool]:
        """Per row of the held screen, True only where ``_passes`` is False in
        the current graph state, for the rows of ``order[start:]``; the other
        rows read False."""
        screen = self._screen
        if screen.pending:
            index = self.graph._index
            parents = [index[e.parent_id] for e in screen.pending]
            screen._file_pending(self.graph, parents, [self._ancestry(p) for p in parents])
        mask = [False] * len(screen)
        slot = screen.slot
        positions = [slot[e.comment.id] for e in order[start:] if e.comment.id in slot]
        state = self._window()
        if positions and state.total > 0.0:
            inputs = self._screen_inputs(state)
            for pos, rejected in zip(
                positions, screen.rejects(self.graph, self.weights, inputs, positions).tolist()
            ):
                mask[pos] = rejected
        return mask

    # -- commit helpers -------------------------------------------------------

    def _admit(
        self,
        comment: ClassifiedComment,
        parent_id: str | None,
        now: float,
        kind: str,
    ) -> None:
        if self.graph is None:
            self.graph = ConversationGraph(comment, damping=self.damping, weights=self.weights)
        else:
            self.graph.add(comment, parent_id=parent_id)
        self._state = None
        if self.queue_enabled or self.log_decisions:
            # without a queue nothing reads the activity regime
            self._push_admission_time(now)
        self.admission_tags.append(self._current_tag)
        infl = congraph.node_influence(self.graph, comment.id, self.weights)
        self.admission_influence.append(infl)
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
        self.decision_log.append(
            DecisionRow(
                comment_id,
                decision,
                board_before,
                self._logged_board(),
                self._effective_tuple(self.processed_count),
                self._act_active,
                hold_duration,
            )
        )

    def _enqueue(
        self, comment: ClassifiedComment, parent_id: str, now: float, published: bool
    ) -> QueueEntry:
        entry = QueueEntry(comment=comment, parent_id=parent_id, enqueue_time=now)
        self.entries[comment.id] = entry
        self._held_count += 1
        self.ever_held_count += 1
        self.decisions.append((comment.id, "held"))
        if not published:
            self._parked.setdefault(parent_id, []).append(entry)
        else:
            self._make_ready(entry)
        return entry

    def _file(self, entry: QueueEntry) -> None:
        """Put a held entry into its priority bucket."""
        bucket = self._buckets.get(entry.comment.dominant)
        if bucket is None:
            self._buckets[entry.comment.dominant] = [entry]
        elif bucket[-1].enqueue_time < entry.enqueue_time:
            bucket.append(entry)  # the usual case: the newest entry
        else:
            insort(bucket, entry, key=_TIME_ID)

    def _make_ready(self, entry: QueueEntry) -> None:
        """File a held entry whose parent is published into its bucket and,
        if the exact test can fail it, the screen."""
        self._file(entry)
        if _may_hold(entry.comment):
            self._screen.pending.append(entry)

    def _unpark(self, parent_id: str) -> list[QueueEntry]:
        """The entries that waited for ``parent_id``, now that it is published,
        filed into their buckets."""
        children = self._parked.pop(parent_id, [])
        for child in children:
            self._make_ready(child)
        return children

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
        if not math.isfinite(now):
            raise ClockError(f"event time {now} is not finite")
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
                self._enqueue(comment, target, now, published=False)
                self._log(comment.id, "held", before)
                return AdmissionDecision.HELD

        before = self._logged_board() if self.log_decisions else None
        if self.queue_enabled and not self._passes(comment, target, self.processed_count):
            self.processed_count += 1
            self._enqueue(comment, target, now, published=True)
            self._log(comment.id, "held", before)
            return AdmissionDecision.HELD

        self.processed_count += 1
        self._admit(comment, target, now, "admitted")
        self._log(comment.id, "admitted", before)
        if self._parked:
            self._unpark(comment.id)
        self.requeue_scan(now)
        return AdmissionDecision.ADMITTED

    def _priority_key(self) -> Callable[[QueueEntry], tuple]:
        """The key of the priority order in the current graph state: the
        board percentage of the entry's dominant emotion (neutral counts as
        0), then enqueue time, then id."""
        percentages = self.board().percentages

        def key(entry: QueueEntry) -> tuple:
            dominant = entry.comment.dominant
            share = 0.0 if dominant is None else percentages[EMOTION_INDEX[dominant]]
            return (share,) + _TIME_ID(entry)

        return key

    def _priority_order(self) -> list[QueueEntry]:
        """The bucketed entries in ``_priority_key`` order: the buckets by
        share, merged where shares are equal."""
        key = self._priority_key()
        by_share: dict[float, list[list[QueueEntry]]] = {}
        for bucket in self._buckets.values():
            by_share.setdefault(key(bucket[0])[0], []).append(bucket)
        order: list[QueueEntry] = []
        for share in sorted(by_share):
            buckets = by_share[share]
            order.extend(buckets[0] if len(buckets) == 1 else heapq.merge(*buckets, key=key))
        return order

    def _unfile(self, entry: QueueEntry) -> None:
        dominant = entry.comment.dominant
        bucket = self._buckets[dominant]
        del bucket[bisect_left(bucket, _TIME_ID(entry), key=_TIME_ID)]
        if not bucket:
            del self._buckets[dominant]

    def requeue_scan(self, now: float) -> list[QueueEntry]:
        """One release pass over the held entries whose parent is published,
        in underrepresented-emotion order."""
        if not self._buckets:
            return []
        key = self._priority_key()
        order = self._priority_order()
        walk = _PassScreen(self, order)
        released: list[QueueEntry] = []
        i = 0
        while i < len(order):
            entry = order[i]
            i += 1
            entry.reeval_count += 1
            comment = entry.comment
            screened = _may_hold(comment)
            if screened and (
                walk.rejects(entry, i - 1)
                or not self._passes(comment, entry.parent_id, self.processed_count)
            ):
                continue
            before = self._logged_board() if self.log_decisions else None
            entry.status = QueueStatus.RELEASED
            entry.release_time = now
            entry.hold_duration = now - entry.enqueue_time
            self._held_count -= 1
            self._unfile(entry)
            if screened:
                self._screen.leave(entry)
            self._admit(comment, entry.parent_id, now, "released")
            self._log(comment.id, "released", before, entry.hold_duration)
            released.append(entry)
            walk.admitted()
            # a child that sorts after its parent is tested in this pass too
            children = self._unpark(comment.id) if self._parked else ()
            for child in children:
                if key(child) > key(entry):
                    insort(order, child, lo=i, key=key)
        return released

    def finalize(self, now: float) -> list[tuple[QueueEntry, QueueStatus]]:
        """Resolve the remaining queue: revise once, then release or suspend."""
        if now < self._last_now:
            raise ClockError(f"finalize time {now} precedes {self._last_now}")
        self._last_now = now
        outcomes: list[tuple[QueueEntry, QueueStatus]] = []
        if not self._held_count:
            return outcomes
        graph = self.graph
        assert graph is not None
        for children in self._parked.values():
            for entry in children:
                self._file(entry)
        self._parked.clear()
        order = self._priority_order()
        # every entry is revised before the pass, so that the screen rows read
        # the revised intensities
        self._screen = screen = _HeldScreen()
        for entry in order:
            entry.revised = True
            if entry.comment.dominant is not None:
                entry.comment = replace(
                    entry.comment, intensity=max(0.1, self.rho * entry.comment.intensity)
                )
            if entry.parent_id in graph and _may_hold(entry.comment):
                screen.pending.append(entry)
        walk = _PassScreen(self, order)
        for i, entry in enumerate(order):
            comment = entry.comment
            passes = False
            if entry.parent_id in graph:
                entry.reeval_count += 1
                passes = not (_may_hold(comment) and walk.rejects(entry, i)) and self._passes(
                    comment, entry.parent_id, self.processed_count
                )
            before = self._logged_board() if self.log_decisions else None
            entry.hold_duration = now - entry.enqueue_time
            self._held_count -= 1
            if passes:
                entry.status = QueueStatus.RELEASED
                entry.release_time = now
                self._admit(comment, entry.parent_id, now, "revised_released")
                self._log(comment.id, "revised_released", before, entry.hold_duration)
                outcomes.append((entry, QueueStatus.RELEASED))
                walk.admitted()
            else:
                entry.status = QueueStatus.SUSPENDED
                self._suspended_ids.add(comment.id)
                self.decisions.append((comment.id, "suspended"))
                self._log(comment.id, "suspended", before, entry.hold_duration)
                outcomes.append((entry, QueueStatus.SUSPENDED))
        self._buckets.clear()
        self._screen = _HeldScreen()
        return outcomes
