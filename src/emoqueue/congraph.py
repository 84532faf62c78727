"""Single-root conversation graph with per-node influence and an emotion board.

Replies form a tree rooted at the original post (each comment answers exactly
one parent). Influence blends four normalized signals: emotion intensity,
PageRank share (reply edges point child -> parent, so heavily-engaged
comments accumulate rank), proximity to the root, and reply count. The
root's emotion board is the percentage distribution of influence-weighted
emotion mass over a sliding window of the most recently admitted comments.

The graph keeps an exact stationary PageRank incrementally: for reply trees
the fixed point of the child->parent random walk (damping ``d``, dangling
mass from the root spread uniformly) satisfies ``score(v) = weight(v) / T``
where ``weight(v) = 1 + d * sum(weight(children))`` and ``T`` is the total
weight. Admitting a comment adds ``d**k`` to its k-th ancestor's weight, and
the walk up the ancestors stops at the first ``d**k`` below ``2**-53``
(k = 227 at d = 0.85; the graph's ``_powers`` lists the ``d**k`` above it),
so an admission costs O(min(depth, 226)). The bound
is exact, not an approximation: every weight starts at 1.0 and only grows,
and half an ulp of any ``w >= 1`` is at least ``2**-53``, so each skipped add
would round back to ``w`` and changes neither a weight nor the maximum
weight. The weights are a Python list, not an array: the walk reads and
writes one weight per step, and a Python float costs less there than a
numpy scalar. Readers that need an array build one from the window slice.
The public :func:`pagerank` operation runs the equivalent power iteration
and is cross-checked against the cache in the test suite.

Two of the four influence terms never change once a comment is admitted:
its intensity times the intensity weight, and the depth weight over
``1 + depth``. The graph is built with the :class:`InfluenceWeights` of its
reader (the engine passes its own) and stores both terms per row, next to
the intensity and depth, so that a window's influence costs only the
PageRank and reply terms. A reader with other weights computes the two
terms from the same helper, ``_row_terms``. ``_influence`` adds the terms
in the order it always did, from the same rounded operands, so every
window, hypothetical and candidate mass is bit-identical to computing the
terms afresh.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import neg
from typing import Iterable, Mapping

import numpy as np

from .emolex import EMOTION_NAMES, ClassifiedComment, EmotionKind, EMOTION_INDEX

logger = logging.getLogger(__name__)

DEFAULT_DAMPING = 0.85
DEFAULT_WINDOW = 100
# a child adds damping**k to its k-th ancestor's weight while damping**k is at
# least this: below it the add is an exact no-op on a weight >= 1
_MIN_ANCESTOR_DELTA = 2.0**-53


class GraphError(Exception):
    """Base error for conversation-graph operations."""


class StructuralError(GraphError):
    """The comment set does not form a single-root acyclic reply tree."""


class UnknownNodeError(GraphError):
    """An operation referenced a node id absent from the graph."""


def check_window_size(window_size: int) -> None:
    """Raise ValueError unless a board window of ``window_size`` is valid."""
    if window_size < 1:
        raise ValueError("window_size must be >= 1")


@dataclass(frozen=True)
class InfluenceWeights:
    """Mixing weights for the four influence terms; nonnegative, sum to 1."""

    intensity: float = 0.4
    pagerank: float = 0.2
    depth: float = 0.2
    replies: float = 0.2

    def __post_init__(self) -> None:
        parts = (self.intensity, self.pagerank, self.depth, self.replies)
        if not all(0.0 <= w < math.inf for w in parts):
            raise ValueError("influence weights must be nonnegative and finite")
        if abs(sum(parts) - 1.0) > 1e-9:
            raise ValueError(f"influence weights must sum to 1, got {sum(parts)}")


DEFAULT_WEIGHTS = InfluenceWeights()


@dataclass(frozen=True)
class EmotionBoard:
    """Percentage distribution of windowed emotion mass (sums to 100 or all zero)."""

    percentages: tuple[float, ...]
    window_size: int
    contributing: int

    def get(self, kind: EmotionKind) -> float:
        return self.percentages[EMOTION_INDEX[kind]]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(EMOTION_NAMES, self.percentages))

    @property
    def is_zero(self) -> bool:
        return not any(self.percentages)


@dataclass(frozen=True)
class PageRankResult:
    scores: dict[str, float]
    converged: bool
    iterations: int


class ConversationGraph:
    """Mutable single-root reply tree with cached per-node metrics."""

    def __init__(
        self,
        root: ClassifiedComment,
        *,
        damping: float = DEFAULT_DAMPING,
        weights: InfluenceWeights = DEFAULT_WEIGHTS,
    ):
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must lie in (0, 1)")
        self._damping = damping
        # the mixing weights of the row terms stored at admission (_row_terms)
        self._weights = weights
        # damping**k for k = 1, 2, ... down to _MIN_ANCESTOR_DELTA
        powers = []
        delta = damping
        while delta >= _MIN_ANCESTOR_DELTA:
            powers.append(delta)
            delta *= damping
        self._powers = tuple(powers)
        self._capacity = 64
        self._n = 0
        self._ids: list[str] = []
        self._index: dict[str, int] = {}
        self._comments: list[ClassifiedComment] = []
        self._parent: list[int] = []
        self._replies: list[int] = []
        self._intensity = np.zeros(self._capacity)
        self._depth = np.zeros(self._capacity)
        self._int_term = np.zeros(self._capacity)
        self._depth_term = np.zeros(self._capacity)
        self._weight: list[float] = []
        self._log_replies = np.zeros(self._capacity)
        self._vectors = np.zeros((self._capacity, 8))
        self._max_weight = 1.0
        self._max_replies = 0
        self.orphan_count = 0
        self._append(root, -1)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._index

    @property
    def root_id(self) -> str:
        return self._ids[0]

    @property
    def damping(self) -> float:
        return self._damping

    def ids(self) -> list[str]:
        """Node ids in admission order."""
        return list(self._ids)

    def comment(self, node_id: str) -> ClassifiedComment:
        try:
            return self._comments[self._index[node_id]]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def parent_of(self, node_id: str) -> str | None:
        idx = self._index.get(node_id)
        if idx is None:
            raise UnknownNodeError(node_id)
        p = self._parent[idx]
        return None if p < 0 else self._ids[p]

    def depth_of(self, node_id: str) -> int:
        idx = self._index.get(node_id)
        if idx is None:
            raise UnknownNodeError(node_id)
        return int(self._depth[idx])

    def reply_count_of(self, node_id: str) -> int:
        idx = self._index.get(node_id)
        if idx is None:
            raise UnknownNodeError(node_id)
        return self._replies[idx]

    # -- mutation -----------------------------------------------------------

    def _grow(self) -> None:
        new_cap = self._capacity * 2
        for name in ("_intensity", "_depth", "_int_term", "_depth_term", "_log_replies"):
            old = getattr(self, name)
            fresh = np.zeros(new_cap)
            fresh[: self._n] = old[: self._n]
            setattr(self, name, fresh)
        fresh_vec = np.zeros((new_cap, 8))
        fresh_vec[: self._n] = self._vectors[: self._n]
        self._vectors = fresh_vec
        self._capacity = new_cap

    def _append(self, comment: ClassifiedComment, parent_idx: int) -> int:
        if comment.id in self._index:
            raise StructuralError(f"duplicate node id {comment.id!r}")
        if self._n == self._capacity:
            self._grow()
        idx = self._n
        self._ids.append(comment.id)
        self._index[comment.id] = idx
        self._comments.append(comment)
        self._parent.append(parent_idx)
        self._replies.append(0)
        self._intensity[idx] = comment.intensity
        depth = 0.0 if parent_idx < 0 else self._depth.item(parent_idx) + 1.0
        self._depth[idx] = depth
        self._int_term[idx], self._depth_term[idx] = _row_terms(
            self._weights, comment.intensity, depth
        )
        self._weight.append(1.0)
        self._log_replies[idx] = 0.0
        self._vectors[idx] = comment.vector
        self._n += 1
        if parent_idx >= 0:
            self._replies[parent_idx] += 1
            self._log_replies[parent_idx] = math.log2(1.0 + self._replies[parent_idx])
            if self._replies[parent_idx] > self._max_replies:
                self._max_replies = self._replies[parent_idx]
            # ancestors absorb the new leaf's walk mass: weight += damping^distance,
            # along _ancestor_chain (inline: this is the hot path)
            weight = self._weight
            parent = self._parent
            max_weight = self._max_weight
            anc = parent_idx
            for delta in self._powers:
                if anc < 0:
                    break
                adjusted = weight[anc] + delta
                weight[anc] = adjusted
                if adjusted > max_weight:
                    max_weight = adjusted
                anc = parent[anc]
            self._max_weight = max_weight
        return idx

    def add(self, comment: ClassifiedComment, parent_id: str | None = None) -> None:
        """Admit a comment under ``parent_id`` (default: its own parent field)."""
        target = comment.parent_id if parent_id is None else parent_id
        if target is None:
            raise StructuralError("graph already has a root")
        parent_idx = self._index.get(target)
        if parent_idx is None:
            raise UnknownNodeError(target)
        self._append(comment, parent_idx)

    # -- cached metrics -----------------------------------------------------

    def pagerank_shares(self) -> np.ndarray:
        """Exact stationary PageRank per node, admission order. Sums to 1."""
        w = np.array(self._weight)
        return w / w.sum()


def _row_terms(weights: InfluenceWeights, intensity, depth):
    """The two influence terms that admission fixes, for one row or for arrays
    of rows: mixed intensity and root proximity. The graph stores them per row
    for its own weights; every other reader computes them here, so that both
    round alike."""
    return weights.intensity * intensity, weights.depth / (1.0 + depth)


def _static_terms(graph: ConversationGraph, weights: InfluenceWeights, rows):
    """``_row_terms`` of ``rows`` (an index or a slice): read from the graph
    when ``weights`` are its own, computed otherwise."""
    if weights is graph._weights or weights == graph._weights:
        return graph._int_term[rows], graph._depth_term[rows]
    return _row_terms(weights, graph._intensity[rows], graph._depth[rows])


def _influence(
    weights: InfluenceWeights, int_term, weight, depth_term, log_replies, max_weight, max_replies
):
    """Influence of one row, or of a window's rows as arrays, from its
    ``_row_terms``: intensity, PageRank weight over the maximum, root
    proximity and log reply count over the maximum (0 while nothing has
    replies), summed in this order so every caller rounds alike."""
    infl = int_term + weight * (weights.pagerank / max_weight)
    infl += depth_term
    if max_replies > 0:
        infl += log_replies * (weights.replies / math.log2(1.0 + max_replies))
    return infl


def _candidate_influence(graph, weights, intensity, parent_idx, max_weight):
    """Influence of a candidate child of ``parent_idx``, a new leaf: weight 1,
    one below its parent, no replies (so no reply term, whatever the maximum
    reply count). Arrays of candidates give an array."""
    int_term, depth_term = _row_terms(weights, intensity, graph._depth[parent_idx] + 1.0)
    return _influence(weights, int_term, 1.0, depth_term, 0.0, max_weight, 0)


def _ancestor_chain(graph: ConversationGraph, parent_idx: int) -> tuple[int, ...]:
    """The rows a child of ``parent_idx`` would bump, nearest first: its k-th
    ancestor gains ``graph._powers[k - 1]``. The chain never changes once the
    parent is admitted. A tuple, so that the garbage collector stops tracking
    a kept chain."""
    parent = graph._parent
    chain = []
    anc = parent_idx
    for _ in graph._powers:
        if anc < 0:
            break
        chain.append(anc)
        anc = parent[anc]
    return tuple(chain)


def _admission_patch(
    graph: ConversationGraph,
    parent_idx: int,
    start: int,
    chain: tuple[int, ...] | None = None,
) -> tuple[tuple[int, ...], float, int, int]:
    """What admitting a child of ``parent_idx`` changes, without admitting it:
    the bumps, the head of the parent's ``_ancestor_chain`` in rows
    ``>= start`` (``bumps[k]`` gains ``graph._powers[k]``), the new maximum
    weight, the parent's new reply count and the new maximum reply count. A
    caller that keeps the chain passes it as ``chain``."""
    if chain is None:
        chain = _ancestor_chain(graph, parent_idx)
    weight = graph._weight
    max_weight = graph._max_weight
    for anc, delta in zip(chain, graph._powers):
        adjusted = weight[anc] + delta
        if adjusted > max_weight:
            max_weight = adjusted
    bumps = chain
    if chain and chain[-1] < start:
        # rows fall along the chain
        bumps = chain[: bisect_right(chain, -start, key=neg)]
    parent_replies = graph._replies[parent_idx] + 1
    return bumps, max_weight, parent_replies, max(graph._max_replies, parent_replies)


def _admission_patches(graph, parents, rows, chain_weights, deltas, start):
    """``_admission_patch`` for many candidates at once: candidate i's parent
    is row ``parents[i]``, whose ``_ancestor_chain`` is ``rows[i]``, with
    PageRank weights ``chain_weights[i]`` and bumps ``deltas[i]``; chains are
    padded with row -1, delta 0 and a weight of at most the maximum. Returns
    arrays: the number of bumps (the chain's head in rows ``>= start``), the
    new maximum weight, the parent's new reply count and the new maximum
    reply count."""
    max_weight = (chain_weights + deltas).max(axis=1)
    np.maximum(max_weight, graph._max_weight, out=max_weight)
    parent_replies = np.fromiter(map(graph._replies.__getitem__, parents.tolist()), np.intp) + 1
    return (
        (rows >= start).sum(axis=1),
        max_weight,
        parent_replies,
        np.maximum(parent_replies, graph._max_replies),
    )


def build_graph(
    comments: Iterable[ClassifiedComment], *, damping: float = DEFAULT_DAMPING
) -> ConversationGraph:
    """Build a graph from classified comments in any order.

    Exactly one comment must lack a parent id. Comments referencing parents
    absent from the set are reattached under the root and counted in
    ``graph.orphan_count``. Reply cycles and zero/multiple roots raise
    StructuralError. Admission order is (created_at, id) among insertable
    comments (a child never precedes its parent).
    """
    comments = list(comments)
    ids = {c.id for c in comments}
    if len(ids) != len(comments):
        raise StructuralError("duplicate comment ids")
    roots = [c for c in comments if c.parent_id is None]
    if len(roots) != 1:
        raise StructuralError(f"expected exactly one root, found {len(roots)}")
    root = roots[0]

    graph = ConversationGraph(root, damping=damping)
    pending: dict[str, list[ClassifiedComment]] = {}
    ordered = sorted(comments, key=lambda c: (c.created_at, c.id))
    for comment in ordered:
        if comment.id == root.id:
            continue
        if comment.parent_id not in ids:
            graph.add(comment, parent_id=root.id)
            graph.orphan_count += 1
        elif comment.parent_id in graph:
            graph.add(comment)
        else:
            pending.setdefault(comment.parent_id, []).append(comment)
            continue
        # flush descendants that were waiting on this insertion
        stack = [comment.id]
        while stack:
            ready = pending.pop(stack.pop(), [])
            for child in ready:
                graph.add(child)
                stack.append(child.id)
    if pending:
        stuck = sorted(c.id for group in pending.values() for c in group)
        raise StructuralError(f"reply cycle among {stuck}")
    if graph.orphan_count:
        logger.warning(
            "reattached %d orphan comment(s) under root %s", graph.orphan_count, root.id
        )
    return graph


def pagerank(
    graph: ConversationGraph,
    damping: float = DEFAULT_DAMPING,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> PageRankResult:
    """Power-iteration PageRank over reply edges directed child -> parent.

    The root has no out-edge; its (dangling) mass is redistributed uniformly.
    Iteration stops when the L1 change drops below ``tol``; if ``max_iter``
    is exhausted first the last iterate is returned flagged unconverged.
    Scores sum to 1.
    """
    n = len(graph)
    parent = np.array(graph._parent[:n], dtype=np.int64)
    child_mask = parent >= 0
    child_parents = parent[child_mask]
    x = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        contrib = np.bincount(child_parents, weights=x[child_mask], minlength=n)
        x_new = base + damping * (contrib + x[0] / n)
        delta = float(np.abs(x_new - x).sum())
        x = x_new
        if delta < tol:
            converged = True
            break
    scores = {node_id: float(x[i]) for i, node_id in enumerate(graph._ids)}
    if not converged:
        logger.warning("pagerank did not converge in %d iterations", max_iter)
    return PageRankResult(scores=scores, converged=converged, iterations=iterations)


def node_influence(
    graph: ConversationGraph,
    node_id: str,
    weights: InfluenceWeights = DEFAULT_WEIGHTS,
) -> float:
    """Influence of one node in [0, 1]: weighted mix of intensity, PageRank
    share (normalized by the maximum share), root proximity, and log reply
    count (normalized by the maximum; 0 when nothing has replies yet)."""
    idx = graph._index.get(node_id)
    if idx is None:
        raise UnknownNodeError(node_id)
    int_term, depth_term = _static_terms(graph, weights, idx)
    return float(_influence(weights, int_term, graph._weight[idx], depth_term,
                            graph._log_replies[idx], graph._max_weight, graph._max_replies))


def _window_weights(graph: ConversationGraph, start: int) -> np.ndarray:
    """PageRank weights of rows ``[start, n)`` as an array (``fromiter`` with
    a count skips the type scan that ``np.array`` makes over the list)."""
    return np.fromiter(graph._weight[start:], float, graph._n - start)


def _row_influences(
    graph: ConversationGraph,
    weights: InfluenceWeights,
    start: int,
    weight_arr: np.ndarray | None = None,
) -> np.ndarray:
    """Influence of rows ``[start, n)``; ``weight_arr`` may pass in their
    PageRank weights (``_window_weights`` from ``start``)."""
    sl = slice(start, graph._n)
    if weight_arr is None:
        weight_arr = _window_weights(graph, start)
    int_term, depth_term = _static_terms(graph, weights, sl)
    return _influence(weights, int_term, weight_arr, depth_term, graph._log_replies[sl],
                      graph._max_weight, graph._max_replies)


def _window_mass_totals(
    graph: ConversationGraph,
    window_size: int,
    weights: InfluenceWeights,
    weight_arr: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Masses and total of the window; ``weight_arr`` may pass in the window's
    PageRank weights (``_window_weights`` from its first row)."""
    n = graph._n
    start = max(0, n - window_size)
    mass = _row_influences(graph, weights, start, weight_arr) @ graph._vectors[start:n]
    return mass, float(mass.sum())


def _contributing(graph: ConversationGraph, start: int) -> int:
    """Rows in ``[start, n)`` with a nonzero emotion vector."""
    return int(graph._vectors[start : graph._n].any(axis=1).sum())


def _percentages(mass: np.ndarray, total: float) -> list[float]:
    """Board percentages of window masses (all zero on a zero total)."""
    if total <= 0.0:
        return [0.0] * 8
    return (mass * (100.0 / total)).tolist()


def _masses_to_board(
    mass: np.ndarray, total: float, window_size: int, contributing: int
) -> EmotionBoard:
    return EmotionBoard(tuple(_percentages(mass, total)), window_size, contributing)


def board(
    graph: ConversationGraph,
    window_size: int = DEFAULT_WINDOW,
    weights: InfluenceWeights = DEFAULT_WEIGHTS,
) -> EmotionBoard:
    """Emotion board over the ``window_size`` most recently admitted nodes."""
    check_window_size(window_size)
    mass, total = _window_mass_totals(graph, window_size, weights)
    contributing = _contributing(graph, max(0, graph._n - window_size))
    return _masses_to_board(mass, total, window_size, contributing)


def _hypothetical_mass_totals(
    graph: ConversationGraph,
    window_size: int,
    weights: InfluenceWeights,
    candidate: ClassifiedComment,
    parent_id: str,
    weight_arr: np.ndarray | None = None,
    chain: tuple[int, ...] | None = None,
    patch: tuple[tuple[int, ...], float, int, int] | None = None,
) -> tuple[np.ndarray, float]:
    """Masses and total as if ``candidate`` were admitted under ``parent_id``;
    ``weight_arr`` may pass in the PageRank weights of the hypothetical
    window's old rows, which it does not modify, ``chain`` the parent's
    ``_ancestor_chain`` and ``patch`` its ``_admission_patch`` for the
    hypothetical window."""
    parent_idx = graph._index.get(parent_id)
    if parent_idx is None:
        raise UnknownNodeError(parent_id)
    n = graph._n
    start = max(0, n + 1 - window_size)
    sl = slice(start, n)
    if patch is None:
        patch = _admission_patch(graph, parent_idx, start, chain)
    bumps, max_weight, parent_replies, max_replies = patch
    if weight_arr is None:
        weight_arr = _window_weights(graph, start)
    elif bumps:
        weight_arr = weight_arr.copy()
    for idx, delta in zip(bumps, graph._powers):
        weight_arr[idx - start] = graph._weight[idx] + delta
    log_replies_arr = graph._log_replies[sl]
    if parent_idx >= start:
        log_replies_arr = log_replies_arr.copy()
        log_replies_arr[parent_idx - start] = math.log2(1.0 + parent_replies)
    int_term, depth_term = _static_terms(graph, weights, sl)
    infl = _influence(weights, int_term, weight_arr, depth_term, log_replies_arr, max_weight,
                      max_replies)
    mass = infl @ graph._vectors[sl]
    cand_infl = _candidate_influence(graph, weights, candidate.intensity, parent_idx, max_weight)
    mass = mass + cand_infl * np.asarray(candidate.vector)
    return mass, float(mass.sum())


def _window_term_sums(
    graph: ConversationGraph, weights: InfluenceWeights, start: int, weight_arr: np.ndarray
) -> np.ndarray:
    """Emotion sums of the four influence terms over rows ``[start, n)``, whose
    PageRank weights are ``weight_arr``.

    Rows of the (4, 8) result: the two ``_row_terms``, PageRank weight and
    log reply count, each times the row's vector; the last two before their
    mixing weights and the maxima scale them.
    """
    sl = slice(start, graph._n)
    int_term, depth_term = _static_terms(graph, weights, sl)
    terms = np.array((int_term, weight_arr, depth_term, graph._log_replies[sl]))
    return terms @ graph._vectors[sl]


def hypothetical_board(
    graph: ConversationGraph,
    window_size: int,
    weights: InfluenceWeights,
    candidate: ClassifiedComment,
    parent_id: str,
) -> EmotionBoard:
    """Board as if ``candidate`` were admitted under ``parent_id`` right now.

    Evaluates the exact post-admission state (ancestor PageRank weights,
    the parent's incremented reply count, window eviction) without mutating
    the graph; a later real admission reproduces the same masses.
    """
    check_window_size(window_size)
    mass, total = _hypothetical_mass_totals(graph, window_size, weights, candidate, parent_id)
    contributing = _contributing(graph, max(0, graph._n + 1 - window_size))
    if not candidate.vector.is_zero:
        contributing += 1
    return _masses_to_board(mass, total, window_size, contributing)


@dataclass(frozen=True)
class PruneResult:
    selected_ids: tuple[str, ...]
    removed_count: int
    removed_toxic_mass: float
    toxicity_reduction: float
    root_skipped: bool
    # the source graph, its size when pruned and the removed rows
    _source: ConversationGraph = field(repr=False, compare=False)
    _size: int = field(repr=False, compare=False)
    _removed: set[int] = field(repr=False, compare=False)

    @cached_property
    def graph(self) -> ConversationGraph:
        """The graph without the removed nodes, rebuilt when first read from
        the source's first ``_size`` rows (rows never change once admitted)."""
        source = self._source
        pruned = ConversationGraph(
            source._comments[0], damping=source._damping, weights=source._weights
        )
        for idx in range(1, self._size):
            if idx in self._removed:
                continue
            parent_idx = source._parent[idx]
            pruned.add(source._comments[idx], parent_id=source._ids[parent_idx])
        pruned.orphan_count = source.orphan_count
        return pruned


def prune_influential_toxic(
    graph: ConversationGraph,
    toxicity: Mapping[str, float],
    influence_floor: float,
    toxicity_floor: float,
    weights: InfluenceWeights = DEFAULT_WEIGHTS,
    *,
    influence: np.ndarray | None = None,
) -> PruneResult:
    """Deactivate nodes meeting both floors, together with their reply subtrees.

    Returns the graph without the removed nodes (rebuilt when first read),
    the count of removed nodes, and the removed toxic mass; the estimated
    toxicity reduction is removed mass over total mass. The root is never
    pruned (a matching root is skipped with a warning). A caller that has
    every row's influence under ``weights`` may pass it as ``influence``.
    """
    for node_id, score in toxicity.items():
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"toxicity score for {node_id!r} outside [0, 1]")
    if influence is None:
        influence = _row_influences(graph, weights, 0)
    n = len(graph)
    selected: list[int] = []
    root_skipped = False
    for idx, node_id in enumerate(graph._ids):
        tox = toxicity.get(node_id, 0.0)
        if tox < toxicity_floor:
            continue
        if influence[idx] < influence_floor:
            continue
        if idx == 0:
            root_skipped = True
            logger.warning("root %s meets prune floors; skipped", node_id)
            continue
        selected.append(idx)

    children: list[list[int]] = [[] for _ in range(n)]
    for idx in range(1, n):
        children[graph._parent[idx]].append(idx)
    removed: set[int] = set()
    stack = list(selected)
    while stack:
        idx = stack.pop()
        if idx in removed:
            continue
        removed.add(idx)
        stack.extend(children[idx])

    removed_mass = sum(toxicity.get(graph._ids[i], 0.0) for i in removed)
    total_mass = sum(toxicity.get(node_id, 0.0) for node_id in graph._ids)
    reduction = removed_mass / total_mass if total_mass > 0 else 0.0
    return PruneResult(
        selected_ids=tuple(graph._ids[i] for i in selected),
        removed_count=len(removed),
        removed_toxic_mass=removed_mass,
        toxicity_reduction=reduction,
        root_skipped=root_skipped,
        _source=graph,
        _size=n,
        _removed=removed,
    )
