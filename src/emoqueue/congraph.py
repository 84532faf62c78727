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
(k = 227 at d = 0.85), so an admission costs O(min(depth, 226)). The bound
is exact, not an approximation: every weight starts at 1.0 and only grows,
and half an ulp of any ``w >= 1`` is at least ``2**-53``, so each skipped add
would round back to ``w`` and changes neither a weight nor the maximum
weight. The weights are a Python list, not an array: the walk reads and
writes one weight per step, and a Python float costs less there than a
numpy scalar. Readers that need an array build one from the window slice.
The public :func:`pagerank` operation runs the equivalent power iteration
and is cross-checked against the cache in the test suite.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .emolex import EMOTION_NAMES, ClassifiedComment, EmotionKind, EMOTION_INDEX

logger = logging.getLogger(__name__)

DEFAULT_DAMPING = 0.85
DEFAULT_WINDOW = 100
# both ancestor walks stop below this: the add is an exact no-op on a weight >= 1
_MIN_ANCESTOR_DELTA = 2.0**-53


class GraphError(Exception):
    """Base error for conversation-graph operations."""


class StructuralError(GraphError):
    """The comment set does not form a single-root acyclic reply tree."""


class UnknownNodeError(GraphError):
    """An operation referenced a node id absent from the graph."""


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
class NodeMetrics:
    depth: int
    reply_count: int
    pagerank: float
    influence: float


@dataclass(frozen=True)
class PageRankResult:
    scores: dict[str, float]
    converged: bool
    iterations: int


class ConversationGraph:
    """Mutable single-root reply tree with cached per-node metrics."""

    def __init__(self, root: ClassifiedComment, *, damping: float = DEFAULT_DAMPING):
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must lie in (0, 1)")
        self._damping = damping
        self._capacity = 64
        self._n = 0
        self._ids: list[str] = []
        self._index: dict[str, int] = {}
        self._comments: list[ClassifiedComment] = []
        self._parent: list[int] = []
        self._replies: list[int] = []
        self._intensity = np.zeros(self._capacity)
        self._depth = np.zeros(self._capacity)
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
        for name in ("_intensity", "_depth", "_log_replies"):
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
        self._depth[idx] = 0.0 if parent_idx < 0 else self._depth[parent_idx] + 1.0
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
            # with the same bound as _ancestor_deltas (no list: this is the hot path)
            weight = self._weight
            parent = self._parent
            damping = self._damping
            max_weight = self._max_weight
            delta = damping
            anc = parent_idx
            while anc >= 0 and delta >= _MIN_ANCESTOR_DELTA:
                adjusted = weight[anc] + delta
                weight[anc] = adjusted
                if adjusted > max_weight:
                    max_weight = adjusted
                delta *= damping
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

    def _ancestor_deltas(self, parent_idx: int) -> list[tuple[int, float]]:
        """``(ancestor, damping**k)`` for the k-th ancestor of a new child of
        ``parent_idx``, nearest first, while ``damping**k >= 2**-53``."""
        out: list[tuple[int, float]] = []
        parent = self._parent
        damping = self._damping
        delta = damping
        anc = parent_idx
        while anc >= 0 and delta >= _MIN_ANCESTOR_DELTA:
            out.append((anc, delta))
            delta *= damping
            anc = parent[anc]
        return out

    def _influence_terms(
        self,
        sl: slice,
        weights: InfluenceWeights,
        weight_arr: np.ndarray,
        log_replies_arr: np.ndarray,
        max_weight: float,
        max_replies: int,
    ) -> np.ndarray:
        infl = weights.intensity * self._intensity[sl]
        infl += weight_arr * (weights.pagerank / max_weight)
        infl += weights.depth / (1.0 + self._depth[sl])
        if max_replies > 0:
            infl += log_replies_arr * (weights.replies / math.log2(1.0 + max_replies))
        return infl


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
    weights: InfluenceWeights = InfluenceWeights(),
) -> float:
    """Influence of one node in [0, 1]: weighted mix of intensity, PageRank
    share (normalized by the maximum share), root proximity, and log reply
    count (normalized by the maximum; 0 when nothing has replies yet)."""
    idx = graph._index.get(node_id)
    if idx is None:
        raise UnknownNodeError(node_id)
    infl = weights.intensity * graph._intensity[idx]
    infl += graph._weight[idx] * (weights.pagerank / graph._max_weight)
    infl += weights.depth / (1.0 + graph._depth[idx])
    if graph._max_replies > 0:
        infl += graph._log_replies[idx] * (
            weights.replies / math.log2(1.0 + graph._max_replies)
        )
    return float(infl)


def _window_weights(graph: ConversationGraph, start: int) -> np.ndarray:
    """PageRank weights of rows ``[start, n)`` as an array (``fromiter`` with
    a count skips the type scan that ``np.array`` makes over the list)."""
    return np.fromiter(graph._weight[start:], float, graph._n - start)


def _window_mass_totals(
    graph: ConversationGraph, window_size: int, weights: InfluenceWeights
) -> tuple[np.ndarray, float]:
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    n = graph._n
    start = max(0, n - window_size)
    sl = slice(start, n)
    infl = graph._influence_terms(
        sl,
        weights,
        _window_weights(graph, start),
        graph._log_replies[sl],
        graph._max_weight,
        graph._max_replies,
    )
    mass = infl @ graph._vectors[sl]
    return mass, float(mass.sum())


def window_masses(
    graph: ConversationGraph,
    window_size: int = DEFAULT_WINDOW,
    weights: InfluenceWeights = InfluenceWeights(),
) -> tuple[np.ndarray, float, int]:
    """Influence-weighted emotion mass over the window: (mass[8], total, contributing)."""
    mass, total = _window_mass_totals(graph, window_size, weights)
    return mass, total, _contributing(graph, max(0, graph._n - window_size))


def _contributing(graph: ConversationGraph, start: int) -> int:
    """Rows in ``[start, n)`` with a nonzero emotion vector."""
    return int(graph._vectors[start : graph._n].any(axis=1).sum())


def _masses_to_board(
    mass: np.ndarray, total: float, window_size: int, contributing: int
) -> EmotionBoard:
    if total <= 0.0:
        return EmotionBoard((0.0,) * 8, window_size, contributing)
    pct = mass * (100.0 / total)
    return EmotionBoard(tuple(float(p) for p in pct), window_size, contributing)


def board(
    graph: ConversationGraph,
    window_size: int = DEFAULT_WINDOW,
    weights: InfluenceWeights = InfluenceWeights(),
) -> EmotionBoard:
    """Emotion board over the ``window_size`` most recently admitted nodes."""
    mass, total, contributing = window_masses(graph, window_size, weights)
    return _masses_to_board(mass, total, window_size, contributing)


def _hypothetical_mass_totals(
    graph: ConversationGraph,
    window_size: int,
    weights: InfluenceWeights,
    candidate: ClassifiedComment,
    parent_id: str,
) -> tuple[np.ndarray, float]:
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    parent_idx = graph._index.get(parent_id)
    if parent_idx is None:
        raise UnknownNodeError(parent_id)
    n = graph._n
    start = max(0, n + 1 - window_size)
    sl = slice(start, n)

    deltas = graph._ancestor_deltas(parent_idx)
    max_weight = graph._max_weight
    weight_arr = _window_weights(graph, start)
    for idx, delta in deltas:
        adjusted = graph._weight[idx] + delta
        if adjusted > max_weight:
            max_weight = adjusted
        if idx >= start:
            weight_arr[idx - start] = adjusted

    parent_replies = graph._replies[parent_idx] + 1
    max_replies = max(graph._max_replies, parent_replies)
    log_replies_arr = graph._log_replies[sl]
    if parent_idx >= start:
        log_replies_arr = log_replies_arr.copy()
        log_replies_arr[parent_idx - start] = math.log2(1.0 + parent_replies)

    infl = graph._influence_terms(
        sl, weights, weight_arr, log_replies_arr, max_weight, max_replies
    )
    mass = infl @ graph._vectors[sl]

    cand_infl = (
        weights.intensity * candidate.intensity
        + weights.pagerank / max_weight
        + weights.depth / (2.0 + graph._depth[parent_idx])
    )
    cand_vec = np.asarray(candidate.vector)
    mass = mass + cand_infl * cand_vec
    return mass, float(mass.sum())


def _window_term_sums(graph: ConversationGraph, start: int) -> np.ndarray:
    """Emotion sums of the four influence terms over rows ``[start, n)``.

    Rows of the (4, 8) result: intensity, PageRank weight, ``1 / (1 + depth)``
    and log reply count, each times the row's vector, before the mixing
    weights and the maxima scale them.
    """
    sl = slice(start, graph._n)
    terms = np.stack(
        (
            graph._intensity[sl],
            _window_weights(graph, start),
            1.0 / (1.0 + graph._depth[sl]),
            graph._log_replies[sl],
        )
    )
    return terms @ graph._vectors[sl]


def hypothetical_masses(
    graph: ConversationGraph,
    window_size: int,
    weights: InfluenceWeights,
    candidate: ClassifiedComment,
    parent_id: str,
) -> tuple[np.ndarray, float, int]:
    """Window masses as if ``candidate`` were admitted under ``parent_id`` now.

    Evaluates the exact post-admission state (ancestor PageRank weights,
    the parent's incremented reply count, window eviction) without mutating
    the graph; a later real admission reproduces the same masses.
    """
    mass, total = _hypothetical_mass_totals(
        graph, window_size, weights, candidate, parent_id
    )
    contributing = _contributing(graph, max(0, graph._n + 1 - window_size))
    if not candidate.vector.is_zero:
        contributing += 1
    return mass, total, contributing


def hypothetical_board(
    graph: ConversationGraph,
    window_size: int,
    weights: InfluenceWeights,
    candidate: ClassifiedComment,
    parent_id: str,
) -> EmotionBoard:
    """Board as if ``candidate`` were admitted under ``parent_id`` right now."""
    mass, total, contributing = hypothetical_masses(
        graph, window_size, weights, candidate, parent_id
    )
    return _masses_to_board(mass, total, window_size, contributing)


@dataclass(frozen=True)
class PruneResult:
    graph: ConversationGraph
    selected_ids: tuple[str, ...]
    removed_count: int
    removed_toxic_mass: float
    toxicity_reduction: float
    root_skipped: bool


def prune_influential_toxic(
    graph: ConversationGraph,
    toxicity: Mapping[str, float],
    influence_floor: float,
    toxicity_floor: float,
    weights: InfluenceWeights = InfluenceWeights(),
) -> PruneResult:
    """Deactivate nodes meeting both floors, together with their reply subtrees.

    Returns a rebuilt graph without the removed nodes, the count of removed
    nodes, and the removed toxic mass; the estimated toxicity reduction is
    removed mass over total mass. The root is never pruned (a matching root
    is skipped with a warning).
    """
    for node_id, score in toxicity.items():
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"toxicity score for {node_id!r} outside [0, 1]")
    n = len(graph)
    selected: list[int] = []
    root_skipped = False
    for idx, node_id in enumerate(graph._ids):
        tox = toxicity.get(node_id, 0.0)
        if tox < toxicity_floor:
            continue
        if node_influence(graph, node_id, weights) < influence_floor:
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

    pruned = ConversationGraph(graph._comments[0], damping=graph._damping)
    for idx in range(1, n):
        if idx in removed:
            continue
        parent_idx = graph._parent[idx]
        pruned.add(graph._comments[idx], parent_id=graph._ids[parent_idx])
    pruned.orphan_count = graph.orphan_count
    return PruneResult(
        graph=pruned,
        selected_ids=tuple(graph._ids[i] for i in selected),
        removed_count=len(removed),
        removed_toxic_mass=removed_mass,
        toxicity_reduction=reduction,
        root_skipped=root_skipped,
    )


def node_metrics(
    graph: ConversationGraph,
    node_id: str,
    weights: InfluenceWeights = InfluenceWeights(),
) -> NodeMetrics:
    idx = graph._index.get(node_id)
    if idx is None:
        raise UnknownNodeError(node_id)
    shares = graph.pagerank_shares()
    return NodeMetrics(
        depth=int(graph._depth[idx]),
        reply_count=graph._replies[idx],
        pagerank=float(shares[idx]),
        influence=node_influence(graph, node_id, weights),
    )


def snapshot(
    graph: ConversationGraph,
    window_size: int = DEFAULT_WINDOW,
    weights: InfluenceWeights = InfluenceWeights(),
) -> dict:
    """JSON-ready export of the graph and its board (floats rounded to 6 dp)."""
    shares = graph.pagerank_shares()
    nodes = []
    for idx, node_id in enumerate(graph._ids):
        comment = graph._comments[idx]
        parent_idx = graph._parent[idx]
        nodes.append(
            {
                "id": node_id,
                "parent": None if parent_idx < 0 else graph._ids[parent_idx],
                "timestamp": comment.created_at,
                "vector": {k: round(v, 6) for k, v in comment.vector.as_dict().items()},
                "dominant": comment.dominant.value if comment.dominant else None,
                "intensity": round(comment.intensity, 6),
                "metrics": {
                    "depth": int(graph._depth[idx]),
                    "replies": graph._replies[idx],
                    "pagerank": round(float(shares[idx]), 6),
                    "influence": round(node_influence(graph, node_id, weights), 6),
                },
            }
        )
    brd = board(graph, window_size, weights)
    return {
        "root": graph.root_id,
        "orphans": graph.orphan_count,
        "window_size": window_size,
        "board": {k: round(v, 6) for k, v in brd.as_dict().items()},
        "nodes": nodes,
    }
