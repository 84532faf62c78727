"""Command-line entry point.

Subcommands: ``classify`` (JSONL in, classified JSONL out), ``simulate``
(replay one condition into a run directory), ``compare`` (two run
directories), ``synth`` (write a synthetic corpus), ``prune-eval``
(toxicity-pruning policy comparison).

Exit codes: 0 ok, 1 structural error, 2 empty input, 3 resource load
failure, 4 config error, 5 run mismatch, 6 provider failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import baseline, congraph, harness, ingest
from .baseline import ProviderError
from .congraph import StructuralError
from .emolex import (
    DEFAULT_EMOJI_LEXICON_PATH,
    DEFAULT_KAPPA,
    DEFAULT_LEXICON_PATH,
    LexiconError,
    check_kappa,
    classify_comment,
    load_emoji_lexicon,
    load_lexicon,
)
from .harness import ComparisonError, ConfigError, SimulationConfig
from .ingest import EmptyInputError, IngestError

EXIT_OK = 0
EXIT_STRUCTURAL = 1
EXIT_EMPTY_INPUT = 2
EXIT_RESOURCE = 3
EXIT_CONFIG = 4
EXIT_MISMATCH = 5
EXIT_PROVIDER = 6


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emoqueue",
        description="Emotion-aware comment queuing over conversation streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_lexicon_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--lexicon", default=str(DEFAULT_LEXICON_PATH))
        p.add_argument("--emoji-lexicon", default=str(DEFAULT_EMOJI_LEXICON_PATH))

    p_classify = sub.add_parser("classify", help="classify a JSONL stream")
    p_classify.add_argument("input")
    p_classify.add_argument("--out", default=None, help="output file (default stdout)")
    p_classify.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    add_lexicon_flags(p_classify)

    p_sim = sub.add_parser("simulate", help="replay a stream into a run directory")
    p_sim.add_argument("input")
    p_sim.add_argument("--queue", choices=("on", "off"), required=True)
    p_sim.add_argument("--config", default=None, help="key=value config file")
    p_sim.add_argument("--out", default="runs", help="run directory root")
    p_sim.add_argument("--jobs", type=int, default=1)
    add_lexicon_flags(p_sim)

    p_cmp = sub.add_parser("compare", help="compare two run directories")
    p_cmp.add_argument("run_a")
    p_cmp.add_argument("run_b")
    p_cmp.add_argument("--out", default="comparison")

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--spec", default=None, help="key=value spec file")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", default=None, help="output JSONL (default stdout)")

    p_prune = sub.add_parser("prune-eval", help="toxicity-pruning policy comparison")
    p_prune.add_argument("input")
    p_prune.add_argument("--provider", choices=("offline", "external"), default="offline")
    p_prune.add_argument("--endpoint", default=None)
    p_prune.add_argument("--key-env", default=None)
    p_prune.add_argument("--cache", default=None)
    p_prune.add_argument(
        "--influence-percentile", type=float, default=baseline.DEFAULT_INFLUENCE_PERCENTILE
    )
    p_prune.add_argument("--toxicity-floor", type=float, default=baseline.DEFAULT_TOXICITY_FLOOR)
    p_prune.add_argument(
        "--text-only-floor", type=float, default=baseline.DEFAULT_TEXT_ONLY_FLOOR
    )
    p_prune.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    add_lexicon_flags(p_prune)
    return parser


def _load_lexicons(args):
    return load_lexicon(args.lexicon), load_emoji_lexicon(args.emoji_lexicon)


def _cmd_classify(args) -> int:
    lexicon, emoji_lexicon = _load_lexicons(args)
    result = ingest.parse_jsonl(args.input)
    lines = []
    for record in result.records:
        comment = classify_comment(
            record.id,
            record.author,
            record.parent_id,
            record.created_at,
            record.text,
            lexicon,
            emoji_lexicon,
            args.kappa,
        )
        lines.append(
            json.dumps(
                {
                    "id": comment.id,
                    "author": comment.author,
                    "parent_id": comment.parent_id,
                    "created_at": comment.created_at,
                    "text": comment.text,
                    "vector": {k: round(v, 6) for k, v in comment.vector.as_dict().items()},
                    "dominant": comment.dominant.value if comment.dominant else None,
                    "intensity": round(comment.intensity, 6),
                },
                sort_keys=True,
            )
        )
    payload = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = harness.parse_config_file(args.config) if args.config else SimulationConfig()
    lexicon, emoji_lexicon = _load_lexicons(args)
    result = ingest.parse_jsonl(args.input)
    run = harness.run_with_queue if args.queue == "on" else harness.run_without_queue
    report = run(
        result.records,
        config,
        lexicon=lexicon,
        emoji_lexicon=emoji_lexicon,
        jobs=args.jobs,
        log_decisions=True,
    )
    run_dir = harness.write_run_dir(report, args.out)
    print(f"run_dir={run_dir}")
    print(
        f"total={report.total} admitted={report.admitted} "
        f"held={report.held_count} ({100 * report.held_fraction:.6f}%) "
        f"suspended={report.suspended_count}"
    )
    print(
        f"mean_hold_s={report.mean_hold:.6f} median_hold_s={report.median_hold:.6f} "
        f"anger_fear_spread={report.anger_fear_spread:.6f}"
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    report_a = harness.RunReport.read(args.run_a)
    report_b = harness.RunReport.read(args.run_b)
    if report_a.queue_enabled and not report_b.queue_enabled:
        report_a, report_b = report_b, report_a
    comparison = harness.compare(report_a, report_b)
    out = harness.write_comparison_dir(comparison, args.out)
    print(f"comparison_dir={out}")
    print(f"reduction_pct={comparison.reduction_pct:.6f}")
    print(
        f"held_fraction={comparison.held_fraction:.6f} "
        f"mean_hold_s={comparison.mean_hold:.6f}"
    )
    return EXIT_OK


def _cmd_synth(args) -> int:
    spec = harness.parse_spec_file(args.spec) if args.spec else harness.SyntheticSpec()
    try:
        records = harness.generate_synthetic(spec, args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    harness.write_jsonl(records, args.out or sys.stdout)
    return EXIT_OK


def _cmd_prune_eval(args) -> int:
    lexicon, emoji_lexicon = _load_lexicons(args)
    result = ingest.parse_jsonl(args.input)
    if args.provider == "offline":
        provider = baseline.OfflineToxicityProxy(lexicon)
    else:
        import os

        endpoint = args.endpoint or os.environ.get("BASELINE_ENDPOINT", "")
        key_env = args.key_env or os.environ.get("BASELINE_KEY_ENV")
        provider = baseline.ExternalScoreClient(
            endpoint, key_env=key_env, cache_path=args.cache
        )
    graphs = []
    for group in ingest.partition_conversations(result.records):
        comments = [
            classify_comment(
                r.id, r.author, r.parent_id, r.created_at, r.text,
                lexicon, emoji_lexicon, args.kappa,
            )
            for r in group
        ]
        graphs.append(congraph.build_graph(comments))
    comparison = baseline.compare_policies_corpus(
        graphs,
        provider,
        influence_percentile=args.influence_percentile,
        toxicity_floor=args.toxicity_floor,
        text_only_floor=args.text_only_floor,
    )
    a = comparison.influence_and_toxicity
    b = comparison.toxicity_only
    print(f"nodes={comparison.node_count}")
    print(
        "influence_and_toxicity: "
        f"detected_fraction={a.detected_fraction:.6f} reduction={a.toxicity_reduction:.6f}"
    )
    print(
        "toxicity_only: "
        f"detected_fraction={b.detected_fraction:.6f} reduction={b.toxicity_reduction:.6f}"
    )
    return EXIT_OK


def _check_flags(args) -> None:
    """Non-finite or out-of-range numeric flags are config errors (exit 4)."""
    if hasattr(args, "kappa"):
        try:
            check_kappa(args.kappa)
        except ValueError as exc:
            raise ConfigError(f"--kappa: {exc}") from exc
    if getattr(args, "jobs", 1) < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    if args.command != "prune-eval":
        return
    try:
        baseline.check_policy_settings(
            args.influence_percentile, args.toxicity_floor, args.text_only_floor
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "classify": _cmd_classify,
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
        "synth": _cmd_synth,
        "prune-eval": _cmd_prune_eval,
    }
    try:
        _check_flags(args)
        return handlers[args.command](args)
    except EmptyInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_INPUT
    except (LexiconError, IngestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ComparisonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ProviderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except (StructuralError, congraph.GraphError, IOError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    raise SystemExit(main())
