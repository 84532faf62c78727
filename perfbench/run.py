"""Replay benchmark for emoqueue.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload calibrated --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

A run writes the workload's stream (made by ``generate_synthetic`` from the
seed) before any timing starts, then repeats passes until ``--seconds`` is
spent. A pass is

* the README Quickstart pipeline, in-process through ``emoqueue.cli.main``:
  ``simulate --queue off``, ``simulate --queue on`` (both write the decision
  log), ``compare`` and ``prune-eval`` with the offline provider;
* a live replay: every comment goes through ``classify_comment`` and
  ``Engine.submit`` as a moderation service would call them, one caller in
  a closed loop without pacing, and each conversation ends with
  ``Engine.finalize``.

With ``--trace 0`` the run reports the end-to-end metrics, measured with no
tracing. With ``--trace 1`` it alternates plain and traced passes and
reports per-layer self times and exact counters from the traced pass of
median time (see ``spans.py``). Times are reference seconds (see
``speed.py``); raw wall and CPU seconds are printed beside them. Output
checks run outside the timed steps. The last line of standard output is one
JSON object; the exit code is 1 when an operation or a check failed. Full
results go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_RUNS = 11
# bench.unattributed_s may be at most this share of the traced pass's time
UNATTRIBUTED_BOUND = 0.05

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import emoqueue.cli as cli\n"
    "cli.load_lexicon()\n"
    "cli.load_emoji_lexicon()\n"
    "print(repr(time.perf_counter() - t0))\n"
)

# metric names, units and order, and the workload names, as BENCHMARK.json
# declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = tuple(m["name"] for m in SPEC["end_to_end"])
PER_LAYER = tuple(m["name"] for m in SPEC["per_layer"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# counters that must repeat exactly between runs of one seed
EXACT_COUNTERS = (
    "regulator.reevals",
    "regulator.releases",
    "regulator.held_peak",
    "congraph.ancestor_steps",
    "emolex.classify_per_comment",
    "ingest.parse_calls",
    "harness.run_dir_bytes",
)
PIPELINE_STEPS = ("cli.simulate_off", "cli.simulate_on", "cli.compare", "cli.prune_eval")
LIVE_STEP = "bench.live_replay"
# The live replay is measured in chunks of this many decisions, with a
# calibration between chunks, so its speed factor follows the machine's drift.
LIVE_CHUNK = 1000


def _require_sources() -> None:
    missing = [
        str(p.relative_to(ROOT))
        for p in (SRC / "emoqueue" / "__init__.py", TESTS / "reference.py")
        if not p.is_file()
    ]
    if missing:
        raise SystemExit(f"error: run from a checkout of emoqueue; missing {missing}")
    sys.path[:0] = [str(SRC), str(TESTS)]


class Tally:
    """Operations attempted and failed; each check prints one line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, failed: int, detail: str = "", attempted: int = 1) -> None:
        self.attempted += attempted
        self.failed += failed
        status = "ok" if failed == 0 else f"FAILED ({failed} of {attempted})"
        print(f"check {name}: {status} {detail}".rstrip())


@dataclass
class PassResult:
    raw_s: dict[str, float]  # wall seconds per step
    ref_s: dict[str, float]  # reference seconds per step
    cpu_s: float
    load1: float
    exit_codes: list[int]
    outputs: dict[str, str]
    live: LiveReplay
    run_dir_digest: str
    run_dir_bytes: int
    tracer: object = None

    @property
    def wall_s(self) -> float:
        return sum(self.raw_s.values())

    @property
    def time_s(self) -> float:
        return sum(self.ref_s.values())

    def decide_us(self, percentile: int) -> float:
        """A percentile of the live replay's per-decision reference times, in
        microseconds."""
        return 1e6 * statistics.quantiles(self.live.samples, n=100)[percentile - 1]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``emoqueue.cli.main`` with its output captured; an exception is a failure."""
    from emoqueue import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the run goes on and reports the failure
            code = -1
            err.write(traceback.format_exc())
    if code != 0:
        sys.stderr.write(f"emoqueue {' '.join(argv)} exited {code}\n{err.getvalue()}")
    return code, out.getvalue()


def _field(output: str, key: str) -> str:
    for line in output.splitlines():
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    return ""


class LiveReplay:
    """Feeds every comment through classify_comment + Engine.submit, as a
    moderation service would, timing each decision, and finalizes each
    conversation after its last comment. ``run`` resumes where it stopped,
    so the replay can be measured in chunks."""

    def __init__(self, groups, config, lexicon, emoji_lexicon):
        self.feed = [
            (record, index == len(group) - 1)
            for group in groups
            for index, record in enumerate(group)
        ]
        self.config = config
        self.lexicon = lexicon
        self.emoji_lexicon = emoji_lexicon
        self.position = 0
        self.engine = None
        self.prev = None
        self.samples: list[float] = []
        self.decisions: list[tuple[str, str]] = []
        self.engines = self.conserved = self.reevals = self.releases = self.held_peak = 0

    @property
    def done(self) -> bool:
        return self.position == len(self.feed)

    def run(self, count: int | None = None) -> None:
        from emoqueue import emolex
        from emoqueue.regulator import Engine

        classify = emolex.classify_comment  # looked up per call: tracing may wrap it
        clock = time.perf_counter
        config = self.config
        stop = len(self.feed) if count is None else min(len(self.feed), self.position + count)
        for record, last in self.feed[self.position:stop]:
            if self.engine is None:
                self.engine = Engine(
                    thresholds=config.thresholds,
                    weights=config.weights,
                    window_size=config.window_size,
                    activity_cutoff=config.activity_cutoff,
                    rho=config.rho,
                )
                self.prev = None
            engine = self.engine
            now = record.created_at
            if self.prev is not None and now - self.prev > config.idle_timeout:
                engine.finalize(self.prev + config.idle_timeout)
            self.prev = now
            t0 = clock()
            comment = classify(
                record.id, record.author, record.parent_id, now, record.text,
                self.lexicon, self.emoji_lexicon, config.kappa,
            )
            engine.submit(comment, now=now, parent_id=record.parent_id, defer_missing_parent=True)
            self.samples.append(clock() - t0)
            self.held_peak = max(self.held_peak, engine.held_active_count)
            if last:
                engine.finalize(now)
                self._close(engine)
        self.position = stop

    def _close(self, engine) -> None:
        from emoqueue.regulator import QueueStatus

        self.decisions.extend(engine.decisions)
        for entry in engine.entries.values():
            self.reevals += entry.reeval_count
            self.releases += entry.status is QueueStatus.RELEASED
        self.engines += 1
        self.conserved += engine.conservation_holds()
        self.engine = None


def _per_comment(pairs) -> dict[str, list[str]]:
    out: dict[str, list[str]] = defaultdict(list)
    for comment_id, decision in pairs:
        out[comment_id].append(decision)
    return out


class Bench:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        from emoqueue import emolex
        from emoqueue.harness import SimulationConfig
        from speed import Speed

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.config = SimulationConfig()
        self.lexicon = emolex.load_lexicon()
        self.emoji_lexicon = emolex.load_emoji_lexicon()
        self.work = HERE / ".work" / f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.stream = self.work / "stream.jsonl"
        self.tally = Tally()
        self.speed = Speed()

    def timed(self, fn):
        """(result, reference seconds) of ``fn()`` with calibration around it."""
        self.speed.start()
        t0 = time.perf_counter()
        result = fn()
        return result, (time.perf_counter() - t0) * self.speed.factor()

    def make_inputs(self) -> float:
        """Write the stream; returns the reference seconds it took."""
        from emoqueue import harness, ingest
        from workloads import make_records

        def synth():
            records = make_records(self.workload, self.seed)
            harness.write_jsonl(records, self.stream)
            return records

        self.work.mkdir(parents=True, exist_ok=True)
        self.records, synth_s = self.timed(synth)
        self.groups = ingest.partition_conversations(self.records)
        self.n = len(self.records)
        return synth_s

    # -- passes ---------------------------------------------------------------

    def one_pass(self, tracer=None) -> PassResult:
        for sub in ("runs", "comparison"):
            shutil.rmtree(self.work / sub, ignore_errors=True)
        stream, runs = str(self.stream), str(self.work / "runs")
        span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
        argvs = {
            "cli.simulate_off": lambda: ["simulate", stream, "--queue", "off", "--out", runs],
            "cli.simulate_on": lambda: ["simulate", stream, "--queue", "on", "--out", runs],
            "cli.compare": lambda: [
                "compare",
                _field(outputs["cli.simulate_off"], "run_dir"),
                _field(outputs["cli.simulate_on"], "run_dir"),
                "--out",
                str(self.work / "comparison"),
            ],
            "cli.prune_eval": lambda: ["prune-eval", stream],
        }
        raw = dict.fromkeys(PIPELINE_STEPS + (LIVE_STEP,), 0.0)
        ref = dict(raw)
        codes: list[int] = []
        outputs: dict[str, str] = {}
        live = LiveReplay(self.groups, self.config, self.lexicon, self.emoji_lexicon)
        load1 = os.getloadavg()[0]
        cpu_s = 0.0
        self.speed.start()
        steps = [*PIPELINE_STEPS, *[LIVE_STEP] * math.ceil(self.n / LIVE_CHUNK)]
        for step in steps:
            first_sample = len(live.samples)
            c0, t0 = time.process_time(), time.perf_counter()
            with span(step):
                if step == LIVE_STEP:
                    live.run(LIVE_CHUNK)
                else:
                    code, outputs[step] = run_cli(argvs[step]())
                    codes.append(code)
            seconds = time.perf_counter() - t0
            cpu_s += time.process_time() - c0
            factor = self.speed.factor()
            raw[step] += seconds
            ref[step] += seconds * factor
            live.samples[first_sample:] = [s * factor for s in live.samples[first_sample:]]
        digest, size = self._digest_run_dirs()
        return PassResult(raw, ref, cpu_s, load1, codes, outputs, live, digest, size, tracer)

    def _digest_run_dirs(self) -> tuple[str, int]:
        digest = hashlib.sha256()
        size = 0
        for path in sorted((self.work / "runs").rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                size += len(data)
                digest.update(str(path.relative_to(self.work)).encode() + b"\0" + data)
        return digest.hexdigest(), size

    def passes(self) -> tuple[list[PassResult], list[PassResult]]:
        """Plain passes, alternating with traced ones when tracing, until
        another pass would overrun ``seconds``."""
        from spans import Tracer

        plain: list[PassResult] = []
        traced: list[PassResult] = []
        start = time.perf_counter()
        while True:
            if self.trace and len(traced) < len(plain):
                tracer = Tracer()
                with tracer.installed():
                    result = self.one_pass(tracer)
                traced.append(result)
            else:
                result = self.one_pass()
                plain.append(result)
            print(
                f"pass {len(plain) + len(traced)} {'traced' if result.tracer else 'plain'} "
                f"time_s={result.time_s:.4f} wall_s={result.wall_s:.4f} cpu_s={result.cpu_s:.4f} "
                f"load1={result.load1:.2f} decisions={len(result.live.samples)}",
                flush=True,
            )
            if self.trace:
                enough = bool(plain) and len(traced) >= MIN_TRACED_PASSES
            else:
                enough = len(plain) >= MIN_PASSES
            if enough and time.perf_counter() - start + result.wall_s > self.seconds:
                return plain, traced

    # -- checks ---------------------------------------------------------------

    def check_outputs(self, results: list[PassResult]) -> None:
        codes = [c for r in results for c in r.exit_codes]
        self.tally.check(
            "cli_exit_codes", sum(1 for c in codes if c != 0),
            f"({len(codes)} subcommands)", attempted=len(codes),
        )
        last = results[-1]
        if any(c != 0 for c in last.exit_codes):
            return

        log = Path(_field(last.outputs["cli.simulate_on"], "run_dir")) / "decisions.log"
        batch = _per_comment(
            (rec["comment_id"], rec["decision"])
            for rec in map(json.loads, log.read_text(encoding="utf-8").splitlines())
        )
        differ = 0
        for r in results:
            live = _per_comment(r.live.decisions)
            differ += sum(1 for cid in batch.keys() | live.keys() if batch.get(cid) != live.get(cid))
        self.tally.check(
            "live_equals_batch", differ, "(per-comment decisions, every pass)",
            attempted=self.n * len(results),
        )

        report = Path(_field(last.outputs["cli.simulate_off"], "run_dir")) / "report.json"
        off = json.loads(report.read_text(encoding="utf-8"))
        self.tally.check(
            "no_queue_admits_all",
            int(not (off["total"] == self.n == off["admitted"] and off["held_count"] == 0)),
            f"(admitted {off['admitted']} of {self.n})",
        )
        nodes = _field(last.outputs["cli.prune_eval"], "nodes")
        self.tally.check("prune_eval_nodes", int(nodes != str(self.n)), f"(nodes={nodes})")
        reduction = _field(last.outputs["cli.compare"], "reduction_pct")
        self.tally.check("compare_reports", int(reduction == ""), f"(reduction_pct={reduction})")

        engines = sum(r.live.engines for r in results)
        self.tally.check(
            "conservation_holds", engines - sum(r.live.conserved for r in results),
            "(every live engine, every pass)", attempted=engines,
        )
        digests = {r.run_dir_digest for r in results}
        self.tally.check("run_dirs_identical_across_passes", int(len(digests) != 1))
        self.check_reference()

    def check_reference(self) -> None:
        """A sample of conversations (their first ``reference_prefix``
        comments) decided exactly as tests/reference.py decides them."""
        import numpy as np
        from emoqueue import emolex
        from reference import reference_replay

        wl = self.workload
        rng = np.random.default_rng([self.seed, 7])
        count = min(wl.reference_conversations, len(self.groups))
        picks = sorted(int(i) for i in rng.choice(len(self.groups), size=count, replace=False))
        failed = 0
        for index in picks:
            prefix = self.groups[index][: wl.reference_prefix]
            classified = [
                emolex.classify_comment(
                    r.id, r.author, r.parent_id, r.created_at, r.text,
                    self.lexicon, self.emoji_lexicon, self.config.kappa,
                )
                for r in prefix
            ]
            oracle = reference_replay(prefix, classified, self.config, queue_enabled=True)
            live = LiveReplay([prefix], self.config, self.lexicon, self.emoji_lexicon)
            live.run()
            failed += oracle.decisions != live.decisions
        self.tally.check(
            "reference_replay", failed,
            f"(conversations {picks}, first {wl.reference_prefix} comments)", attempted=count,
        )

    # -- metrics --------------------------------------------------------------

    def end_to_end(self, plain: list[PassResult]) -> dict[str, float]:
        return {
            # each step's median over passes, so one slow step drops out alone
            "pipeline_cps": self.n / sum(
                statistics.median(r.ref_s[step] for r in plain) for step in PIPELINE_STEPS
            ),
            "decide_p50_us": statistics.median(r.decide_us(50) for r in plain),
            "decide_p99_us": statistics.median(r.decide_us(99) for r in plain),
            "setup_s": self.setup_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def setup_s(self) -> float:
        """Median reference seconds of a cold ``import emoqueue.cli`` plus
        loading both bundled lexicons, each in a fresh interpreter."""
        times = []
        for _ in range(SETUP_RUNS):
            self.speed.start()
            done = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(SRC)],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
            )
            times.append(float(done.stdout.strip().splitlines()[-1]) * self.speed.factor())
        print(f"setup runs_s={[round(t, 4) for t in times]}")
        return statistics.median(times)

    def counters(self, result: PassResult) -> dict[str, float]:
        tracer, live = result.tracer, result.live
        return {
            "ingest.parse_calls": tracer.calls("ingest.parse_jsonl"),
            "emolex.classify_per_comment": (
                tracer.calls("harness.classify_comment", "cli.classify_comment") / self.n
            ),
            "congraph.ancestor_steps": tracer.ancestor_steps,
            "regulator.reevals": live.reevals,
            "regulator.releases": live.releases,
            "regulator.release_yield": live.releases / live.reevals if live.reevals else 0.0,
            "regulator.held_peak": live.held_peak,
            "harness.run_dir_bytes": result.run_dir_bytes,
            "baseline.score_calls": tracer.calls("OfflineToxicityProxy.score"),
        }

    def decision_log_s(self) -> float:
        """Logged minus unlogged harness run, in reference seconds, summed
        over the two queue modes the CLI runs."""
        from emoqueue import harness, ingest

        records = ingest.parse_jsonl(self.stream).records
        total = 0.0
        for run in (harness.run_without_queue, harness.run_with_queue):
            for logged, sign in ((True, 1.0), (False, -1.0)):
                _, seconds = self.timed(
                    lambda: run(records, self.config, lexicon=self.lexicon,
                                emoji_lexicon=self.emoji_lexicon, log_decisions=logged)
                )
                total += sign * seconds
        return total

    def per_layer(self, plain: list[PassResult], traced: list[PassResult], synth_s: float):
        chosen = sorted(traced, key=lambda r: r.time_s)[(len(traced) - 1) // 2]
        # each step's self times are scaled by that step's speed factor
        by_root = chosen.tracer.self_seconds_by_root()
        layers: dict[str, float] = defaultdict(float)
        for step, raw in chosen.raw_s.items():
            factor = chosen.ref_s[step] / raw
            covered = 0.0
            for layer, seconds in by_root.get(step, {}).items():
                layers[layer] += seconds * factor
                covered += seconds
            layers["bench.unattributed_s"] += (raw - covered) * factor
        counter_rows = [self.counters(r) for r in traced]
        differ = [k for k in EXACT_COUNTERS if len({row[k] for row in counter_rows}) != 1]
        self.tally.check(
            "counters_repeat", int(bool(differ)),
            f"({len(traced)} traced passes{'; differ: ' + ', '.join(differ) if differ else ''})",
        )
        share = layers["bench.unattributed_s"] / chosen.time_s
        self.tally.check(
            "unattributed_within_bound", int(share > UNATTRIBUTED_BOUND),
            f"({share:.4f} of the traced pass; bound {UNATTRIBUTED_BOUND})",
        )
        metrics = dict(layers)
        metrics.update(counter_rows[0])
        metrics["harness.decision_log_s"] = self.decision_log_s()
        metrics["harness.synth_s"] = synth_s
        metrics["bench.trace_overhead_s"] = (
            statistics.median(r.time_s for r in traced) - statistics.median(r.time_s for r in plain)
        )
        metrics["bench.traced_s"] = chosen.time_s
        return metrics, chosen.tracer.summary()


def environment() -> dict:
    import numpy

    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load1_at_start": os.getloadavg()[0],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    start_wall, start_cpu = time.perf_counter(), time.process_time()
    env = environment()
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()), flush=True)
    bench = Bench(WORKLOADS[name], seed, seconds, trace)
    try:
        synth_s = bench.make_inputs()
        print(
            f"workload {name} seed={seed} comments={bench.n} conversations={len(bench.groups)} "
            f"trace={int(trace)}",
            flush=True,
        )
        plain, traced = bench.passes()
        bench.check_outputs(plain + traced)
        if trace:
            metrics, spans = bench.per_layer(plain, traced, synth_s)
        else:
            metrics, spans = bench.end_to_end(plain), {}
            print(
                f"decide samples={len(plain[0].live.samples)} per pass, {len(plain)} passes; "
                "p50 and p99 are medians over passes"
            )
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    names = PER_LAYER if trace else END_TO_END
    if set(metrics) != set(names):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(names))}")
    metrics = {name: metrics[name] for name in names}
    for key, value in metrics.items():
        print(f"metric {key} = {value} {UNITS[key]}")
    wall, cpu = time.perf_counter() - start_wall, time.process_time() - start_cpu
    error_rate = bench.tally.failed / bench.tally.attempted
    print(f"run wall_s={wall:.3f} cpu_s={cpu:.3f} error_rate={error_rate}")
    result = {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    record = dict(
        result, workload=name, seed=seed, seconds=seconds, trace=int(trace), environment=env,
        run_wall_s=wall, run_cpu_s=cpu, error_rate=error_rate, spans=spans,
        passes=[
            {"traced": r.tracer is not None, "ref_s": r.ref_s, "wall_s": r.raw_s,
             "cpu_s": r.cpu_s, "load1": r.load1, "decisions": len(r.live.samples)}
            for r in plain + traced
        ],
    )
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            try:
                child = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                child = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            if done.returncode != 0 or not child["correct"]:
                status = 1
                summary["correct"] = False
            summary["attempted"] += child["attempted"]
            summary["failed"] += child["failed"]
            for key, value in child["metrics"].items():
                summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary), flush=True)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Replay benchmark for emoqueue.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_sources()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
