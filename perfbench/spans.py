"""In-memory spans around the public callables of emoqueue.

Only the traced run installs them. Each wrapper replaces a module or class
attribute that emoqueue looks up at call time, so the program runs unchanged
apart from the wrappers. A span records its name, start, end and parent;
its self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

from emoqueue import baseline, cli, congraph, emolex, harness, ingest
from emoqueue.baseline import OfflineToxicityProxy
from emoqueue.congraph import ConversationGraph
from emoqueue.regulator import Engine

# (owner, attribute, span name, layer metric). Each wrapper replaces the
# attribute; the span name is what the caller wrote, so that the CLI's and
# the harness's copies of classify_comment stay apart; the span's self time
# is added to the layer metric.
TARGETS: tuple[tuple[object, str, str, str], ...] = (
    (ingest, "parse_jsonl", "ingest.parse_jsonl", "ingest.parse_s"),
    (ingest, "partition_conversations", "ingest.partition_conversations", "ingest.partition_s"),
    (harness, "classify_comment", "harness.classify_comment", "emolex.classify_s"),
    (cli, "classify_comment", "cli.classify_comment", "emolex.classify_s"),
    (emolex, "classify_comment", "emolex.classify_comment", "emolex.classify_s"),
    (cli, "load_lexicon", "cli.load_lexicon", "emolex.load_s"),
    (cli, "load_emoji_lexicon", "cli.load_emoji_lexicon", "emolex.load_s"),
    (ConversationGraph, "add", "ConversationGraph.add", "congraph.add_s"),
    (congraph, "node_influence", "congraph.node_influence", "congraph.influence_s"),
    (congraph, "build_graph", "congraph.build_graph", "congraph.build_graph_s"),
    (congraph, "prune_influential_toxic", "congraph.prune_influential_toxic", "congraph.prune_s"),
    (Engine, "submit", "Engine.submit", "regulator.submit_s"),
    (Engine, "requeue_scan", "Engine.requeue_scan", "regulator.requeue_s"),
    (Engine, "finalize", "Engine.finalize", "regulator.finalize_s"),
    (harness, "run_with_queue", "harness.run_with_queue", "harness.run_s"),
    (harness, "run_without_queue", "harness.run_without_queue", "harness.run_s"),
    (harness, "write_run_dir", "harness.write_run_dir", "harness.write_run_dir_s"),
    (harness, "compare", "harness.compare", "harness.compare_s"),
    (baseline, "compare_policies_corpus", "baseline.compare_policies_corpus", "baseline.policy_s"),
    (OfflineToxicityProxy, "score", "OfflineToxicityProxy.score", "baseline.score_s"),
)

# span name -> layer metric. The benchmark's root span around the compare
# subcommand is a layer of its own (mostly reloading report.json); its other
# root spans stay unattributed.
LAYER_OF_SPAN: dict[str, str] = {
    **{span: layer for _, _, span, layer in TARGETS},
    "cli.compare": "cli.compare_s",
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent, child_seconds]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.ancestor_steps = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        record = [name, 0.0, 0.0, parent, 0.0]
        stack.append(len(spans))
        spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            if parent >= 0:
                spans[parent][4] += record[2] - record[1]

    def wrap(self, name: str, fn: Callable) -> Callable:
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_graph_add(self, fn: Callable) -> Callable:
        """ConversationGraph.add, also summing the depth of each admitted node
        (the ancestors its admission walks)."""
        span = self.span
        tracer = self

        def traced(graph, comment, parent_id=None):
            with span("ConversationGraph.add"):
                fn(graph, comment, parent_id)
                tracer.ancestor_steps += graph.depth_of(comment.id)

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Replace every target with its traced wrapper for the block."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
        try:
            for (owner, attr, name, _), (_, _, original) in zip(TARGETS, saved):
                if owner is ConversationGraph and attr == "add":
                    wrapper = self.wrap_graph_add(original)
                else:
                    wrapper = self.wrap(name, original)
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def calls(self, *names: str) -> int:
        wanted = set(names)
        return sum(1 for record in self.spans if record[0] in wanted)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for name, start, end, _, child in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
        return out

    def self_seconds_by_root(self) -> dict[str, dict[str, float]]:
        """Self seconds per layer metric, grouped by the root span the
        layer spans ran under."""
        out: dict[str, dict[str, float]] = {}
        roots: list[int] = []
        for index, (name, start, end, parent, child) in enumerate(self.spans):
            root = index if parent < 0 else roots[parent]
            roots.append(root)
            layer = LAYER_OF_SPAN.get(name)
            if layer is not None:
                layers = out.setdefault(self.spans[root][0], {})
                layers[layer] = layers.get(layer, 0.0) + (end - start - child)
        return out
