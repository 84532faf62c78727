"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy shared fixture runs the calibrated corpus (500 conversations of
200 comments, troll rate 0.15, mean inter-arrival 12 s) paired over 20
seeds in two worker processes, returning per-seed summaries.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from emoqueue import congraph
from emoqueue.baseline import OfflineToxicityProxy, compare_policies_corpus
from emoqueue.cli import main as cli_main
from emoqueue.congraph import build_graph, board, hypothetical_board, pagerank
from emoqueue.emolex import EMOTION_NAMES, classify_comment, load_emoji_lexicon, load_lexicon
from emoqueue.harness import (
    SimulationConfig,
    SyntheticSpec,
    compare,
    generate_synthetic,
    run_paired,
    write_jsonl,
    _simulate_conversation,
)
from emoqueue.ingest import partition_conversations
from emoqueue.regulator import GOVERNED_EMOTIONS, Engine

from reference import oracle_pagerank_power, reference_replay
from test_congraph import random_tree_comments

logging.disable(logging.WARNING)

GOVERNED_IDX = [EMOTION_NAMES.index(e.value) for e in GOVERNED_EMOTIONS]
ANGER = EMOTION_NAMES.index("anger")
FEAR = EMOTION_NAMES.index("fear")

CAL_SPEC = SyntheticSpec(
    conversations=500,
    comments_per_conversation=200,
    troll_rate=0.15,
    inter_arrival_mean=12.0,
)
CAL_CONFIG = SimulationConfig()
CAL_SEEDS = tuple(range(20))

_LEXICON = load_lexicon()
_EMOJI = load_emoji_lexicon()


@dataclass
class SeedSummary:
    seed: int
    reduction_pct: float
    held_fraction: float
    suspended_fraction: float
    durations: list[float]
    series_monotone: bool
    nq_admitted: int
    wq_admitted: int
    wq_suspended: int
    nq_max_governed: float
    wq_max_governed: float


def _calibrated_seed_worker(seed: int) -> SeedSummary:
    nq, wq = run_paired(generate_synthetic(CAL_SPEC, seed), CAL_CONFIG)
    comparison = compare(nq, wq)
    monotone = bool(np.all(np.diff(wq.cumulative, axis=0) >= 0.0)) and bool(
        np.all(np.diff(nq.cumulative, axis=0) >= 0.0)
    )
    return SeedSummary(
        seed=seed,
        reduction_pct=comparison.reduction_pct,
        held_fraction=wq.held_fraction,
        suspended_fraction=wq.suspended_fraction,
        durations=list(wq.hold_durations),
        series_monotone=monotone,
        nq_admitted=nq.admitted,
        wq_admitted=wq.admitted,
        wq_suspended=wq.suspended_count,
        nq_max_governed=max(nq.final_board.percentages[i] for i in GOVERNED_IDX),
        wq_max_governed=max(wq.final_board.percentages[i] for i in GOVERNED_IDX),
    )


@pytest.fixture(scope="module")
def calibrated():
    start = time.perf_counter()
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2) as pool:
        summaries = pool.map(_calibrated_seed_worker, CAL_SEEDS, chunksize=1)
    elapsed = time.perf_counter() - start
    return summaries, elapsed


def _equivalence_chunk(chunk_seed: int) -> tuple[int, int]:
    """Replay 10 random small conversations through engine and reference."""
    rng = np.random.default_rng([971, chunk_seed])
    spec = SyntheticSpec(
        conversations=10,
        comments_per_conversation=int(rng.integers(3, 21)),
        troll_rate=float(rng.uniform(0.05, 0.45)),
        contagion=float(rng.uniform(0.2, 0.6)),
        inter_arrival_mean=float(rng.uniform(3.0, 30.0)),
        attachment="uniform" if rng.random() < 0.5 else "preferential",
    )
    records = generate_synthetic(spec, chunk_seed)
    conversations = 0
    mismatches = 0
    for group in partition_conversations(records):
        classified = [
            classify_comment(
                r.id, r.author, r.parent_id, r.created_at, r.text,
                _LEXICON, _EMOJI, CAL_CONFIG.kappa,
            )
            for r in group
        ]
        tags = list(range(len(group)))
        engine, _ = _simulate_conversation(group, tags, classified, CAL_CONFIG, True, False)
        reference = reference_replay(group, classified, CAL_CONFIG, queue_enabled=True)
        conversations += 1
        if engine.decisions != reference.decisions:
            mismatches += 1
    return conversations, mismatches


def test_criterion_01_regulator_oracle_equivalence():
    """1,000 random small conversations: decision sequences match exactly."""
    start = time.perf_counter()
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2) as pool:
        results = pool.map(_equivalence_chunk, range(100), chunksize=5)
    elapsed = time.perf_counter() - start
    conversations = sum(r[0] for r in results)
    mismatches = sum(r[1] for r in results)
    assert conversations == 1000
    assert mismatches == 0
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 1 PASS - oracle equivalence: {conversations} conversations, "
        f"0 mismatches, {elapsed:.1f}s"
    )


def test_criterion_02_pagerank_oracle():
    """200 random trees <= 50 nodes: engine vs dense power-iteration oracle."""
    rng = np.random.default_rng(42)
    worst = 0.0
    worst_sum = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 51))
        graph = build_graph(random_tree_comments(rng, n))
        ids = graph.ids()
        index = {node_id: i for i, node_id in enumerate(ids)}
        parents = [
            -1 if graph.parent_of(node_id) is None else index[graph.parent_of(node_id)]
            for node_id in ids
        ]
        engine = pagerank(graph, tol=1e-12, max_iter=3000)
        oracle, converged, _ = oracle_pagerank_power(parents, tol=1e-12, max_iter=3000)
        assert converged and engine.converged
        diffs = [abs(engine.scores[node_id] - oracle[i]) for i, node_id in enumerate(ids)]
        worst = max(worst, max(diffs))
        worst_sum = max(worst_sum, abs(sum(engine.scores.values()) - 1.0))
        # the incremental cache must agree with the oracle as well
        cache_diff = float(np.abs(graph.pagerank_shares() - oracle).max())
        worst = max(worst, cache_diff)
    assert worst < 1e-8
    assert worst_sum < 1e-8
    print(
        f"\nACCEPTANCE 2 PASS - pagerank oracle: 200 graphs, "
        f"max per-node diff {worst:.2e}, max sum error {worst_sum:.2e}"
    )


def test_criterion_03_board_normalization_and_purity():
    """Random windows: percentages sum to 100 or all-zero; hypotheticals pure."""
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(1, 60))
        graph = build_graph(random_tree_comments(rng, n))
        window = int(rng.integers(1, 80))
        brd = board(graph, window)
        total = sum(brd.percentages)
        assert brd.is_zero or abs(total - 100.0) < 1e-6
        assert all(p >= 0.0 for p in brd.percentages)
        before = board(graph, window).percentages
        candidate = random_tree_comments(rng, n + 1)[-1]
        hypothetical_board(graph, window, congraph.InfluenceWeights(), candidate,
                           candidate.parent_id)
        after = board(graph, window).percentages
        assert before == after  # bit-identical
        checked += 1
    assert checked == 200
    print(
        "\nACCEPTANCE 3 PASS - board normalization: 200 random windows sum to "
        "100 +/- 1e-6 or zero; hypothetical boards never mutate state"
    )


class _ThresholdProbeEngine(Engine):
    """Engine that audits the realized board after every governed admission."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.violations = 0
        self.audited = 0
        self._ctx = None

    def _passes(self, comment, parent_id, processed):
        self._ctx = (self._effective_tuple(processed), self._current_masses())
        return super()._passes(comment, parent_id, processed)

    def _admit(self, comment, parent_id, now, kind):
        governed = comment.dominant is not None and comment.dominant in GOVERNED_EMOTIONS
        audit = governed and self.graph is not None and self.queue_enabled
        context = self._ctx if audit else None
        super()._admit(comment, parent_id, now, kind)
        if context is None:
            return
        eff, (cur_mass, cur_total) = context
        post_mass, post_total = congraph._window_mass_totals(
            self.graph, self.window_size, self.weights
        )
        self.audited += 1
        if post_total <= 0.0:
            return
        for pos, idx in enumerate(GOVERNED_IDX):
            mass = post_mass[idx]
            breaches = 100.0 * mass > eff[pos] * post_total
            if not breaches:
                continue
            if cur_total > 0.0:
                worsened = mass * cur_total > cur_mass[idx] * post_total
            else:
                worsened = mass > 0.0
            if worsened:
                self.violations += 1


def _threshold_safety_chunk(args) -> tuple[int, int, int]:
    lo, hi = args
    spec = SyntheticSpec(
        conversations=hi - lo,
        comments_per_conversation=200,
        troll_rate=0.15,
        inter_arrival_mean=12.0,
    )
    records = generate_synthetic(spec, 4242 + lo)
    conversations = violations = audited = 0
    for group in partition_conversations(records):
        engine = _ThresholdProbeEngine(
            thresholds=CAL_CONFIG.thresholds,
            weights=CAL_CONFIG.weights,
            window_size=CAL_CONFIG.window_size,
            activity_cutoff=CAL_CONFIG.activity_cutoff,
            rho=CAL_CONFIG.rho,
            queue_enabled=True,
        )
        ids = {r.id for r in group}
        for i, record in enumerate(group):
            comment = classify_comment(
                record.id, record.author, record.parent_id, record.created_at,
                record.text, _LEXICON, _EMOJI, CAL_CONFIG.kappa,
            )
            parent = comment.parent_id
            defer = (
                parent is not None
                and parent not in engine.entries
                and (engine.graph is None or parent not in engine.graph)
            )
            engine.submit(
                comment, now=record.created_at, parent_id=parent,
                defer_missing_parent=defer, tag=i,
            )
        engine.finalize(group[-1].created_at)
        conversations += 1
        violations += engine.violations
        audited += engine.audited
    return conversations, violations, audited


def test_criterion_04_threshold_safety():
    """500 with-queue conversations: no governed admission both breaches its
    effective threshold and worsens the pre-admission board."""
    ctx = multiprocessing.get_context("fork")
    chunks = [(i, i + 50) for i in range(0, 500, 50)]
    with ctx.Pool(2) as pool:
        results = pool.map(_threshold_safety_chunk, chunks, chunksize=1)
    conversations = sum(r[0] for r in results)
    violations = sum(r[1] for r in results)
    audited = sum(r[2] for r in results)
    assert conversations == 500
    assert violations == 0
    assert audited > 1000  # the audit actually exercised governed admissions
    print(
        f"\nACCEPTANCE 4 PASS - threshold safety: {audited} governed admissions "
        f"audited across {conversations} conversations, 0 violations"
    )


def test_criterion_05_spread_reduction(calibrated):
    """Calibrated corpus, 20 seeds: mean anger+fear reduction in [10, 20]%."""
    summaries, elapsed = calibrated
    reductions = [s.reduction_pct for s in summaries]
    mean_reduction = float(np.mean(reductions))
    assert len(summaries) == 20
    assert all(r > 0.0 for r in reductions)
    assert 10.0 <= mean_reduction <= 20.0
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 5 PASS - spread reduction: mean {mean_reduction:.2f}% "
        f"(range {min(reductions):.2f}..{max(reductions):.2f}), all seeds > 0, "
        f"{elapsed:.0f}s for 20 paired seeds"
    )


def test_criterion_06_held_fraction(calibrated):
    """Same corpus: mean held fraction in [1, 10]%, suspensions rarer than holds."""
    summaries, _ = calibrated
    held = [s.held_fraction for s in summaries]
    suspended = [s.suspended_fraction for s in summaries]
    mean_held = float(np.mean(held))
    mean_suspended = float(np.mean(suspended))
    assert 0.01 <= mean_held <= 0.10
    assert mean_suspended < mean_held
    for s in summaries:
        assert s.suspended_fraction < s.held_fraction
        # no lost comments: with-queue admissions plus suspensions cover the stream
        assert s.wq_admitted + s.wq_suspended == s.nq_admitted
    print(
        f"\nACCEPTANCE 6 PASS - held fraction: mean {100 * mean_held:.2f}% "
        f"(suspended {100 * mean_suspended:.2f}%)"
    )


def test_criterion_07_hold_durations(calibrated, tmp_path):
    """Same corpus: pooled mean hold in [20, 80] s; 1-second-bin histogram CSV."""
    summaries, _ = calibrated
    pooled: list[float] = []
    for s in summaries:
        pooled.extend(s.durations)
    pooled_arr = np.array(pooled)
    assert np.all(pooled_arr >= 0.0)
    assert np.all(np.isfinite(pooled_arr))
    mean_hold = float(pooled_arr.mean())
    assert 20.0 <= mean_hold <= 80.0
    from emoqueue.harness import _write_histogram_csv

    csv_path = tmp_path / "hold_histogram.csv"
    _write_histogram_csv(csv_path, pooled)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "bin_start_s,count"
    bins = [int(line.split(",")[0]) for line in lines[1:]]
    assert bins == list(range(len(bins)))  # contiguous 1-second bins
    assert sum(int(line.split(",")[1]) for line in lines[1:]) == len(pooled)
    print(
        f"\nACCEPTANCE 7 PASS - hold durations: pooled mean {mean_hold:.1f}s over "
        f"{len(pooled)} holds, histogram at {csv_path.name}"
    )


def _policy_chunk(seed: int) -> tuple[float, float, float]:
    spec = SyntheticSpec(
        conversations=20,
        comments_per_conversation=100,
        troll_rate=0.15,
        inter_arrival_mean=12.0,
    )
    records = generate_synthetic(spec, seed)
    provider = OfflineToxicityProxy(_LEXICON)
    graphs = []
    for group in partition_conversations(records):
        comments = [
            classify_comment(
                r.id, r.author, r.parent_id, r.created_at, r.text,
                _LEXICON, _EMOJI, CAL_CONFIG.kappa,
            )
            for r in group
        ]
        graphs.append(build_graph(comments))
    result = compare_policies_corpus(graphs, provider)
    return (
        result.influence_and_toxicity.detected_fraction,
        result.influence_and_toxicity.toxicity_reduction,
        result.toxicity_only.toxicity_reduction,
    )


def test_criterion_08_pruning_policy_directionality():
    """100 troll-injected corpora: influence+toxicity pruning beats text-only
    in >= 90% of seeds and detects 1-4% of nodes under default floors."""
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2) as pool:
        results = pool.map(_policy_chunk, range(100), chunksize=5)
    wins = sum(1 for a_frac, a_red, b_red in results if a_red >= b_red)
    mean_detected = float(np.mean([a_frac for a_frac, _, _ in results]))
    assert wins >= 90
    assert 0.01 <= mean_detected <= 0.04
    print(
        f"\nACCEPTANCE 8 PASS - pruning directionality: influence+toxicity >= "
        f"text-only in {wins}/100 seeds, detected fraction {100 * mean_detected:.2f}%"
    )


def _hash_tree(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_criterion_09_cli_determinism(tmp_path):
    """Two identical cmd_simulate invocations produce byte-identical run dirs."""
    corpus = tmp_path / "corpus.jsonl"
    spec = SyntheticSpec(conversations=20, comments_per_conversation=60, troll_rate=0.2)
    write_jsonl(generate_synthetic(spec, 11), corpus)
    for out in ("out_a", "out_b"):
        code = cli_main(
            ["simulate", str(corpus), "--queue", "on", "--out", str(tmp_path / out)]
        )
        assert code == 0
    hashes_a = _hash_tree(tmp_path / "out_a")
    hashes_b = _hash_tree(tmp_path / "out_b")
    assert hashes_a == hashes_b
    assert len(hashes_a) >= 5
    print(
        f"\nACCEPTANCE 9 PASS - determinism: {len(hashes_a)} files byte-identical "
        "across repeated cmd_simulate invocations"
    )


def test_criterion_10_figure_shapes(calibrated, tmp_path):
    """Cumulative series monotone; with-queue final boards never exceed the
    no-queue run's worst governed emotion on any calibrated seed."""
    summaries, _ = calibrated
    for s in summaries:
        assert s.series_monotone, f"seed {s.seed}: non-monotone cumulative series"
        assert s.wq_max_governed <= s.nq_max_governed + 1e-9, (
            f"seed {s.seed}: with-queue governed peak {s.wq_max_governed:.2f} "
            f"exceeds no-queue {s.nq_max_governed:.2f}"
        )
    # the emitted CSV surface has the same shape guarantees
    corpus = tmp_path / "corpus.jsonl"
    spec = SyntheticSpec(conversations=10, comments_per_conversation=80, troll_rate=0.2)
    write_jsonl(generate_synthetic(spec, 3), corpus)
    assert cli_main(
        ["simulate", str(corpus), "--queue", "on", "--out", str(tmp_path / "runs")]
    ) == 0
    run_dir = next((tmp_path / "runs").iterdir())
    rows = (run_dir / "emotion_timeseries.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    cumulative = np.array(
        [[float(v) for v in line.split(",")[4:]] for line in rows[1:]]
    )
    assert header[4:] == list(EMOTION_NAMES)
    assert np.all(np.diff(cumulative, axis=0) >= -1e-9)
    print(
        "\nACCEPTANCE 10 PASS - figure shapes: cumulative series monotone on all "
        "20 seeds and the emitted CSV; with-queue governed peaks bounded by the "
        "no-queue run on every seed"
    )
