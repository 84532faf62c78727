"""Independent reference implementations used as test oracles.

Everything here recomputes from scratch with naive data structures: dense
matrices for PageRank, full per-step rebuilds for boards, plain lists for
the queue. No caches, no incremental state. The only things shared with
the package are the value/config types; every formula is reimplemented.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from emoqueue.emolex import EMOTION_INDEX, ClassifiedComment, EmotionKind
from emoqueue.harness import SimulationConfig
from emoqueue.ingest import RawRecord

GOVERNED = (
    EmotionKind.ANGER,
    EmotionKind.FEAR,
    EmotionKind.DISGUST,
    EmotionKind.SADNESS,
)
POSITIVE = {EmotionKind.JOY, EmotionKind.TRUST, EmotionKind.ANTICIPATION}


def _transition_matrix(parents: list[int], damping_unused=None) -> np.ndarray:
    n = len(parents)
    M = np.zeros((n, n))
    for child, parent in enumerate(parents):
        if parent < 0:
            M[:, child] = 1.0 / n  # dangling node: spread uniformly
        else:
            M[parent, child] = 1.0
    return M


def oracle_pagerank_power(
    parents: list[int], damping: float = 0.85, tol: float = 1e-8, max_iter: int = 200
) -> tuple[np.ndarray, bool, int]:
    """Dense power iteration; parents[i] is the parent index of node i (-1 root)."""
    n = len(parents)
    M = _transition_matrix(parents)
    x = np.full(n, 1.0 / n)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        x_new = (1.0 - damping) / n + damping * (M @ x)
        delta = float(np.abs(x_new - x).sum())
        x = x_new
        if delta < tol:
            converged = True
            break
    return x, converged, iterations


def oracle_pagerank_solve(parents: list[int], damping: float = 0.85) -> np.ndarray:
    """Exact stationary scores via dense linear solve of (I - d*M) x = (1-d)/n."""
    n = len(parents)
    M = _transition_matrix(parents)
    A = np.eye(n) - damping * M
    b = np.full(n, (1.0 - damping) / n)
    return np.linalg.solve(A, b)


def subtree_shapes(parents: list[int]) -> list[int]:
    """Per node, the first node whose subtree has the same shape. A reply
    tree's PageRank is ``K + damping * (sum of the children's scores)``, with
    ``K`` the same for every node, so it depends on the subtree's shape only;
    sharing one solved value keeps these mathematically exact ties exact."""
    children: list[list[int]] = [[] for _ in parents]
    for child, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(child)
    shape_ids: dict[tuple[int, ...], int] = {}
    shape = [0] * len(parents)
    for node in reversed(range(len(parents))):  # children come after parents
        shape[node] = shape_ids.setdefault(
            tuple(sorted(shape[c] for c in children[node])), len(shape_ids)
        )
    first: dict[int, int] = {}
    return [first.setdefault(s, node) for node, s in enumerate(shape)]


class ReferenceEngine:
    """Cache-free replay of the queuing protocol, everything from scratch."""

    def __init__(self, config: SimulationConfig, queue_enabled: bool = True):
        self.cfg = config
        self.queue_enabled = queue_enabled
        self.nodes: list[tuple[ClassifiedComment, int]] = []
        self.index: dict[str, int] = {}
        self.entries: dict[str, dict] = {}
        self.suspended: set[str] = set()
        self.admit_times: list[float] = []
        self.total_admissions = 0
        self.processed = 0
        self.orphans = 0
        self.decisions: list[tuple[str, str]] = []
        self.admission_masses: list[tuple[str, float, tuple[float, ...]]] = []

    # -- from-scratch computations ------------------------------------------

    def _influences(self, nodes: list[tuple[ClassifiedComment, int]]) -> list[float]:
        parents = [p for _, p in nodes]
        pr = oracle_pagerank_solve(parents, 0.85)[subtree_shapes(parents)]
        max_pr = float(pr.max())
        n = len(nodes)
        replies = [0] * n
        depth = [0] * n
        for i, (_, p) in enumerate(nodes):
            if p >= 0:
                replies[p] += 1
                depth[i] = depth[p] + 1
        max_replies = max(replies) if replies else 0
        w = self.cfg.weights
        out = []
        for i, (comment, _) in enumerate(nodes):
            value = w.intensity * comment.intensity
            value += w.pagerank * (float(pr[i]) / max_pr)
            value += w.depth / (1.0 + depth[i])
            if max_replies > 0:
                value += w.replies * (
                    math.log2(1.0 + replies[i]) / math.log2(1.0 + max_replies)
                )
            out.append(value)
        return out

    def _masses(
        self, nodes: list[tuple[ClassifiedComment, int]]
    ) -> tuple[dict[EmotionKind, float], float]:
        influences = self._influences(nodes)
        start = max(0, len(nodes) - self.cfg.window_size)
        sums = {e: 0.0 for e in EmotionKind}
        for i in range(start, len(nodes)):
            comment = nodes[i][0]
            for e in EmotionKind:
                sums[e] += influences[i] * comment.vector[EMOTION_INDEX[e]]
        return sums, sum(sums.values())

    def _board(self, nodes: list[tuple[ClassifiedComment, int]]) -> dict[EmotionKind, float]:
        sums, total = self._masses(nodes)
        if total <= 0:
            return {e: 0.0 for e in EmotionKind}
        return {e: 100.0 * v / total for e, v in sums.items()}

    def _is_active(self) -> bool:
        if self.total_admissions < 20:
            return False
        times = self.admit_times[-20:]
        gaps = sorted(b - a for a, b in zip(times, times[1:]))
        if not gaps:
            return False
        mid = len(gaps) // 2
        median = gaps[mid] if len(gaps) % 2 else 0.5 * (gaps[mid - 1] + gaps[mid])
        return median < self.cfg.activity_cutoff

    def _effective(self) -> dict[EmotionKind, float]:
        cfg = self.cfg.thresholds
        adjust = cfg.active_relax if self._is_active() else -cfg.quiet_tighten
        decay = cfg.decay_gamma * min(1.0, self.processed / cfg.decay_scale)
        out = {}
        for e in GOVERNED:
            value = cfg.base[e] + adjust - decay
            out[e] = min(cfg.ceiling[e], max(cfg.floor[e], value))
        return out

    def _passes(self, comment: ClassifiedComment, parent_id: str) -> bool:
        dom = comment.dominant
        if dom is None or dom in POSITIVE:
            return True
        hyp_nodes = self.nodes + [(comment, self.index[parent_id])]
        hyp_mass, hyp_total = self._masses(hyp_nodes)
        if hyp_total <= 0.0:
            return True
        cur_mass, cur_total = self._masses(self.nodes)
        eff = self._effective()
        # cross-multiplied percentage comparisons (exact on proportional boards)
        for e in GOVERNED:
            mass = hyp_mass[e]
            if 100.0 * mass <= eff[e] * hyp_total:
                continue
            if cur_total > 0.0:
                if mass * cur_total <= cur_mass[e] * hyp_total:
                    continue
            elif mass <= 0.0:
                continue
            return False
        return True

    # -- protocol -------------------------------------------------------------

    def _admit(self, comment: ClassifiedComment, parent_idx: int, now: float, kind: str) -> None:
        self.nodes.append((comment, parent_idx))
        self.index[comment.id] = len(self.nodes) - 1
        self.admit_times.append(now)
        self.total_admissions += 1
        influences = self._influences(self.nodes)
        infl = influences[-1]
        self.admission_masses.append(
            (comment.id, now, tuple(infl * v for v in comment.vector))
        )
        self.decisions.append((comment.id, kind))

    def submit(
        self,
        comment: ClassifiedComment,
        now: float,
        parent_id: str | None,
        defer_missing_parent: bool = False,
    ) -> str:
        if not self.nodes:
            assert parent_id is None, "first submission must be the root"
            self.processed += 1
            self._admit(comment, -1, now, "admitted")
            return "admitted"
        assert parent_id is not None
        if parent_id not in self.index:
            pending = parent_id in self.entries or parent_id in self.suspended
            if not (pending or defer_missing_parent):
                raise KeyError(parent_id)
            if not self.queue_enabled:
                parent_id = self.nodes[0][0].id
                self.orphans += 1
            else:
                self.processed += 1
                self._hold(comment, parent_id, now)
                return "held"
        if self.queue_enabled and not self._passes(comment, parent_id):
            self.processed += 1
            self._hold(comment, parent_id, now)
            return "held"
        self.processed += 1
        self._admit(comment, self.index[parent_id], now, "admitted")
        self.scan(now)
        return "admitted"

    def _hold(self, comment: ClassifiedComment, parent_id: str, now: float) -> None:
        self.entries[comment.id] = {
            "comment": comment,
            "parent_id": parent_id,
            "enqueue_time": now,
            "status": "held",
            "reeval": 0,
            "hold_duration": None,
        }
        self.decisions.append((comment.id, "held"))

    def _priority(self) -> list[dict]:
        cur = self._board(self.nodes)

        def key(entry: dict):
            dom = entry["comment"].dominant
            pct = 0.0 if dom is None else cur[dom]
            return (pct, entry["enqueue_time"], entry["comment"].id)

        held = [e for e in self.entries.values() if e["status"] == "held"]
        return sorted(held, key=key)

    def scan(self, now: float) -> None:
        if not any(e["status"] == "held" for e in self.entries.values()):
            return
        for entry in self._priority():
            if entry["status"] != "held":
                continue
            if entry["parent_id"] not in self.index:
                continue
            entry["reeval"] += 1  # tested: its parent is published
            if not self._passes(entry["comment"], entry["parent_id"]):
                continue
            entry["status"] = "released"
            entry["hold_duration"] = now - entry["enqueue_time"]
            self._admit(entry["comment"], self.index[entry["parent_id"]], now, "released")

    def finalize(self, now: float) -> None:
        for entry in self._priority():
            if entry["status"] != "held":
                continue
            comment = entry["comment"]
            if comment.dominant is not None:
                comment = replace(
                    comment, intensity=max(0.1, self.cfg.rho * comment.intensity)
                )
                entry["comment"] = comment
            published = entry["parent_id"] in self.index
            entry["reeval"] += published
            if published and self._passes(comment, entry["parent_id"]):
                entry["status"] = "released"
                entry["hold_duration"] = now - entry["enqueue_time"]
                self._admit(
                    comment, self.index[entry["parent_id"]], now, "revised_released"
                )
            else:
                entry["status"] = "suspended"
                entry["hold_duration"] = now - entry["enqueue_time"]
                self.suspended.add(comment.id)
                self.decisions.append((comment.id, "suspended"))


def reference_replay(
    records: list[RawRecord],
    classified: list[ClassifiedComment],
    config: SimulationConfig,
    queue_enabled: bool = True,
) -> ReferenceEngine:
    """Drive a ReferenceEngine with the same feed rules the harness uses."""
    ids = {r.id for r in records}
    root_id = next(r.id for r in records if r.parent_id is None)
    engine = ReferenceEngine(config, queue_enabled)
    buffered: list[ClassifiedComment] = []
    started = False
    prev_t: float | None = None

    def feed(comment: ClassifiedComment, now: float) -> None:
        parent = comment.parent_id
        defer = False
        if parent is not None:
            if parent not in ids:
                parent = root_id
                engine.orphans += 1
            elif parent not in engine.entries and parent not in engine.index:
                defer = True
        engine.submit(comment, now, parent, defer_missing_parent=defer)

    for record, comment in zip(records, classified):
        now = record.created_at
        if not started:
            if record.id != root_id:
                buffered.append(comment)
                continue
            engine.submit(comment, now, None)
            started = True
            prev_t = now
            for waiting in buffered:
                feed(waiting, now)
            buffered.clear()
            continue
        if prev_t is not None and now - prev_t > config.idle_timeout:
            engine.finalize(prev_t + config.idle_timeout)
        prev_t = now
        feed(comment, now)
    if prev_t is not None:
        engine.finalize(prev_t)
    return engine
