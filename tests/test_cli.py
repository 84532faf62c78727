from __future__ import annotations

import hashlib
import json

import pytest

from emoqueue.cli import _build_parser, main
from emoqueue.harness import (
    SyntheticSpec,
    compare,
    generate_synthetic,
    run_paired,
    write_comparison_dir,
    write_jsonl,
)
from emoqueue.ingest import parse_jsonl


@pytest.fixture
def corpus(tmp_path):
    spec = SyntheticSpec(conversations=3, comments_per_conversation=30, troll_rate=0.3)
    path = tmp_path / "corpus.jsonl"
    write_jsonl(generate_synthetic(spec, 1), path)
    return path


def run_cli(*args):
    return main([str(a) for a in args])


class TestClassify:
    def test_classifies_to_file(self, corpus, tmp_path):
        out = tmp_path / "classified.jsonl"
        assert run_cli("classify", corpus, "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 90
        row = json.loads(lines[0])
        assert set(row) >= {"id", "vector", "dominant", "intensity"}

    def test_classifies_to_stdout(self, corpus, capsys):
        assert run_cli("classify", corpus) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 90

    def test_empty_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        assert run_cli("classify", path) == 2

    def test_missing_lexicon_exits_3(self, corpus, tmp_path):
        assert run_cli("classify", corpus, "--lexicon", tmp_path / "nope.tsv") == 3


class TestSimulate:
    def test_queue_off_holds_nothing(self, corpus, tmp_path, capsys):
        assert run_cli("simulate", corpus, "--queue", "off", "--out", tmp_path / "runs") == 0
        out = capsys.readouterr().out
        assert "held=0 (0.000000%)" in out
        run_dir = next((tmp_path / "runs").iterdir())
        assert (run_dir / "report.json").exists()
        assert (run_dir / "decisions.log").exists()

    def test_root_only_stream(self, tmp_path, capsys):
        path = tmp_path / "one.jsonl"
        path.write_text(
            json.dumps(
                {"id": "r", "parent_id": None, "author": "u", "created_at": 0, "text": "hello"}
            )
            + "\n",
            encoding="utf-8",
        )
        assert run_cli("simulate", path, "--queue", "on", "--out", tmp_path / "runs") == 0
        assert "total=1 admitted=1" in capsys.readouterr().out

    @pytest.mark.parametrize("created", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_timestamp_line_skipped(self, tmp_path, capsys, created):
        # json.dumps writes the NaN and Infinity tokens; the held comment's
        # hold duration would be NaN if such a line were replayed
        angry = "I hate this, furious rage"
        rows = [
            {"id": "r", "parent_id": None, "author": "u", "created_at": 0, "text": "hello"},
            {"id": "a", "parent_id": "r", "author": "u", "created_at": 1, "text": angry},
            {"id": "b", "parent_id": "r", "author": "u", "created_at": created, "text": angry},
        ]
        path = tmp_path / "stream.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        assert run_cli("simulate", path, "--queue", "on", "--out", tmp_path / "runs") == 0
        assert "total=2 admitted=1 held=1" in capsys.readouterr().out

    def test_bad_config_key_exits_4(self, corpus, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("not_a_key = 1\n", encoding="utf-8")
        assert run_cli("simulate", corpus, "--queue", "on", "--config", conf) == 4

    def test_config_not_utf8_exits_4(self, corpus, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_bytes(b"kappa = \xff\xfe\n")
        assert run_cli("simulate", corpus, "--queue", "on", "--config", conf) == 4

    @pytest.mark.parametrize(
        "command",
        [
            ("simulate", "--config", "window_size = 0"),
            ("simulate", "--config", "rho = 0"),
            ("simulate", "--config", "rho = 1.5"),
            ("simulate", "--config", "idle_timeout = -5"),
            ("simulate", "--config", "kappa = 0"),
            ("simulate", "--config", "kappa = nan"),
            ("simulate", "--config", "kappa = inf"),
            ("simulate", "--config", "idle_timeout = nan"),
            ("simulate", "--config", "activity_cutoff = nan"),
            ("simulate", "--config", "weight_intensity = nan"),
            ("simulate", "--config", "decay_gamma = inf"),
            ("classify", "--kappa", "0"),
            ("classify", "--kappa", "nan"),
            ("prune-eval", "--kappa", "-1"),
            ("prune-eval", "--kappa", "inf"),
            ("prune-eval", "--influence-percentile", "150"),
            ("prune-eval", "--influence-percentile", "nan"),
            ("prune-eval", "--toxicity-floor", "nan"),
            ("prune-eval", "--text-only-floor", "2"),
            ("simulate", "--jobs", "0"),
            ("simulate", "--jobs", "-2"),
        ],
        ids=[
            "window_size=0", "rho=0", "rho=1.5", "idle_timeout=-5", "kappa=0",
            "kappa=nan", "kappa=inf", "idle_timeout=nan", "activity_cutoff=nan",
            "weight_intensity=nan", "decay_gamma=inf",
            "classify-kappa=0", "classify-kappa=nan", "prune-eval-kappa=-1",
            "prune-eval-kappa=inf", "influence-percentile=150", "influence-percentile=nan",
            "toxicity-floor=nan", "text-only-floor=2", "jobs=0", "jobs=-2",
        ],
    )
    def test_out_of_range_setting_exits_4(self, corpus, tmp_path, command):
        name, flag, value = command
        if flag == "--config":
            conf = tmp_path / "bad.conf"
            conf.write_text(value + "\n", encoding="utf-8")
            value = conf
        extra = ("--queue", "on", "--out", tmp_path / "runs") if name == "simulate" else ()
        assert run_cli(name, corpus, flag, value, *extra) == 4

    def test_config_file_applies(self, corpus, tmp_path, capsys):
        conf = tmp_path / "ok.conf"
        conf.write_text("window_size = 10\nkappa = 4.0\n", encoding="utf-8")
        assert (
            run_cli(
                "simulate", corpus, "--queue", "on", "--config", conf,
                "--out", tmp_path / "runs",
            )
            == 0
        )


class TestCompare:
    def run_pair(self, corpus, tmp_path):
        run_cli("simulate", corpus, "--queue", "off", "--out", tmp_path / "runs")
        run_cli("simulate", corpus, "--queue", "on", "--out", tmp_path / "runs")
        dirs = sorted((tmp_path / "runs").iterdir())
        assert len(dirs) == 2
        return dirs

    def test_valid_pair_emits_files(self, corpus, tmp_path, capsys):
        dir_a, dir_b = self.run_pair(corpus, tmp_path)
        assert run_cli("compare", dir_a, dir_b, "--out", tmp_path / "cmp") == 0
        out = capsys.readouterr().out
        assert "reduction_pct=" in out
        assert (tmp_path / "cmp" / "comparison.json").exists()
        assert (tmp_path / "cmp" / "final_board.csv").exists()

    def test_on_disk_comparison_equals_in_memory(self, corpus, tmp_path):
        dir_a, dir_b = self.run_pair(corpus, tmp_path)
        for run_dir in (dir_a, dir_b):
            assert "series" not in json.loads((run_dir / "report.json").read_text())
        assert run_cli("compare", dir_a, dir_b, "--out", tmp_path / "cmp") == 0
        records = parse_jsonl(corpus).records
        expected = write_comparison_dir(compare(*run_paired(records)), tmp_path / "mem")
        on_disk = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
        in_memory = json.loads((expected / "comparison.json").read_text())
        # compare reads the spreads back at report.json's 6 decimals, so the
        # reduction it derives from them may differ in the last digit
        assert on_disk.pop("reduction_pct") == pytest.approx(
            in_memory.pop("reduction_pct"), abs=1e-4
        )
        assert on_disk == in_memory

    def test_identical_runs_reduce_zero(self, corpus, tmp_path, capsys):
        run_cli("simulate", corpus, "--queue", "off", "--out", tmp_path / "runs")
        run_dir = next((tmp_path / "runs").iterdir())
        assert run_cli("compare", run_dir, run_dir, "--out", tmp_path / "cmp") == 0
        assert "reduction_pct=0.000000" in capsys.readouterr().out

    def test_mismatched_streams_exit_5(self, corpus, tmp_path):
        spec = SyntheticSpec(conversations=2, comments_per_conversation=10)
        other = tmp_path / "other.jsonl"
        write_jsonl(generate_synthetic(spec, 9), other)
        run_cli("simulate", corpus, "--queue", "off", "--out", tmp_path / "runs_a")
        run_cli("simulate", other, "--queue", "on", "--out", tmp_path / "runs_b")
        dir_a = next((tmp_path / "runs_a").iterdir())
        dir_b = next((tmp_path / "runs_b").iterdir())
        assert run_cli("compare", dir_a, dir_b, "--out", tmp_path / "cmp") == 5


class TestSynth:
    def test_writes_jsonl(self, tmp_path):
        spec = tmp_path / "spec.conf"
        spec.write_text("conversations = 2\ncomments_per_conversation = 8\n", encoding="utf-8")
        out = tmp_path / "synthetic.jsonl"
        assert run_cli("synth", "--spec", spec, "--seed", 5, "--out", out) == 0
        assert len(out.read_text().strip().splitlines()) == 16

    def test_seed_repeat_identical(self, tmp_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert run_cli("synth", "--seed", 3, "--out", out_a) == 0
        assert run_cli("synth", "--seed", 3, "--out", out_b) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_invalid_spec_exits_4(self, tmp_path):
        spec = tmp_path / "spec.conf"
        spec.write_text("troll_rate = 2.0\n", encoding="utf-8")
        assert run_cli("synth", "--spec", spec) == 4

    def test_nan_mixture_weight_exits_4(self, tmp_path):
        spec = tmp_path / "spec.conf"
        spec.write_text("mix_neutral = nan\nmix_joy = 1.0\n", encoding="utf-8")
        out = tmp_path / "synthetic.jsonl"
        assert run_cli("synth", "--spec", spec, "--out", out) == 4
        assert not out.exists()

    def test_spec_not_utf8_exits_4(self, tmp_path):
        spec = tmp_path / "spec.conf"
        spec.write_bytes(b"conversations = \xff\n")
        assert run_cli("synth", "--spec", spec, "--out", tmp_path / "synthetic.jsonl") == 4

    def test_negative_seed_exits_4(self, tmp_path):
        out = tmp_path / "synthetic.jsonl"
        assert run_cli("synth", "--seed", -1, "--out", out) == 4
        assert not out.exists()


class TestPruneEval:
    def test_offline_provider_runs_without_network(self, corpus, capsys):
        assert run_cli("prune-eval", corpus) == 0
        out = capsys.readouterr().out
        assert "influence_and_toxicity:" in out
        assert "toxicity_only:" in out

    def test_external_without_endpoint_exits_6(self, corpus, monkeypatch):
        monkeypatch.delenv("BASELINE_ENDPOINT", raising=False)
        assert run_cli("prune-eval", corpus, "--provider", "external") == 6

    def test_external_endpoint_from_environment(self, corpus, monkeypatch, tmp_path):
        # the endpoint resolves through BASELINE_ENDPOINT; an unreachable
        # address proves the env var was honored (exit 6, not a config error)
        monkeypatch.setenv("BASELINE_ENDPOINT", "http://127.0.0.1:9/score")
        assert run_cli("prune-eval", corpus, "--provider", "external") == 6

    def test_troll_corpus_policy_a_wins(self, tmp_path, capsys):
        spec = SyntheticSpec(conversations=10, comments_per_conversation=80, troll_rate=0.2)
        path = tmp_path / "trolls.jsonl"
        write_jsonl(generate_synthetic(spec, 4), path)
        assert run_cli("prune-eval", path) == 0
        out = capsys.readouterr().out
        a_red = float(out.split("influence_and_toxicity:")[1].split("reduction=")[1].split()[0])
        b_red = float(out.split("toxicity_only:")[1].split("reduction=")[1].split()[0])
        assert a_red >= b_red


def test_parser_built_once():
    assert _build_parser() is _build_parser()


class TestLongStreamPins:
    """SHA-256 pins on conversations longer than the default 100-row window,
    so that eviction and the full-window paths are pinned too. A change to
    any output file or to prune-eval's report updates these on purpose."""

    SPEC = SyntheticSpec(conversations=2, comments_per_conversation=250, troll_rate=0.3)
    RUN_DIR_DIGESTS = {
        "off": "1087af27bbf2dc9472fbf771f86a9da3f10054130a49a151963632696b2c61b3",
        "on": "7facd6881f8749a4a99e6b654ac62747d3fc31387e8a5f24fbfae86a75055125",
    }
    PRUNE_EVAL_DIGEST = "5eb7a11d4e491b493bd51db58f85a8aa3fa1bd85e63eb848a2226071b69a0770"

    @pytest.fixture
    def stream(self, tmp_path):
        path = tmp_path / "long.jsonl"
        write_jsonl(generate_synthetic(self.SPEC, 3), path)
        return path

    @pytest.mark.parametrize("queue", ["off", "on"])
    def test_run_dir_digest(self, stream, tmp_path, capsys, queue):
        out = tmp_path / "runs"
        assert run_cli("simulate", stream, "--queue", queue, "--out", out) == 0
        digest = hashlib.sha256()
        for path in sorted(out.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == self.RUN_DIR_DIGESTS[queue]

    def test_prune_eval_digest(self, stream, capsys):
        assert run_cli("prune-eval", stream) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == self.PRUNE_EVAL_DIGEST
