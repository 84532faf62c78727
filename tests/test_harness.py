from __future__ import annotations

import json

import numpy as np
import pytest

from emoqueue import harness
from emoqueue.congraph import InfluenceWeights
from emoqueue.emolex import EMOTION_NAMES, EmotionKind
from emoqueue.harness import (
    ComparisonError,
    ConfigError,
    DEFAULT_MIXTURE,
    SimulationConfig,
    SyntheticSpec,
    compare,
    generate_synthetic,
    parse_config_file,
    parse_spec_file,
    run_id_for,
    run_paired,
    run_with_queue,
    run_without_queue,
    stream_hash,
    write_comparison_dir,
    write_jsonl,
    write_run_dir,
)
from emoqueue.emolex import classify

from helpers import INTENSITY_ONLY, make_record
from reference import reference_replay

ANGER = EMOTION_NAMES.index("anger")
FEAR = EMOTION_NAMES.index("fear")


class TestConfigFiles:
    def test_round_trip_known_keys(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "window_size = 50\nkappa = 3.0\nthreshold_anger = 55\nweight_intensity = 0.7\n"
            "weight_pagerank = 0.1\nweight_depth = 0.1\nweight_replies = 0.1\n",
            encoding="utf-8",
        )
        config = parse_config_file(path)
        assert config.window_size == 50
        assert config.kappa == 3.0
        assert config.thresholds.base[EmotionKind.ANGER] == 55.0
        assert config.weights.intensity == 0.7

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("window_sizes = 50\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("kappa = fast\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_invalid_weights_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("weight_intensity = 0.9\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_spec_file_with_mixture_override(self, tmp_path):
        path = tmp_path / "spec.conf"
        path.write_text(
            "conversations = 3\ncomments_per_conversation = 12\ntroll_rate = 0.2\n"
            "mix_neutral = 0.5\nmix_joy = 0.5\n",
            encoding="utf-8",
        )
        spec = parse_spec_file(path)
        assert spec.conversations == 3
        assert spec.mixture == {"neutral": 0.5, "joy": 0.5}

    def test_spec_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "spec.conf"
        path.write_text("trolls = 4\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_spec_file(path)

    def test_config_hash_stable_and_sensitive(self):
        a = SimulationConfig()
        b = SimulationConfig()
        c = SimulationConfig(kappa=3.0)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


class TestGenerateSynthetic:
    def test_same_seed_identical(self):
        spec = SyntheticSpec(conversations=3, comments_per_conversation=30)
        assert generate_synthetic(spec, 7) == generate_synthetic(spec, 7)

    def test_different_seed_differs(self):
        spec = SyntheticSpec(conversations=3, comments_per_conversation=30)
        assert generate_synthetic(spec, 7) != generate_synthetic(spec, 8)

    def test_troll_rate_one_makes_every_reply_a_troll(self, lexicon, emoji_lexicon):
        spec = SyntheticSpec(conversations=2, comments_per_conversation=25, troll_rate=1.0)
        for record in generate_synthetic(spec, 0):
            if record.parent_id is None:
                continue
            vector, dominant, intensity = classify(record.text, lexicon, emoji_lexicon)
            assert dominant in (EmotionKind.ANGER, EmotionKind.DISGUST)
            assert intensity >= 0.8

    def test_troll_rate_zero_without_negative_mixture(self, lexicon, emoji_lexicon):
        mixture = {"neutral": 0.5, "joy": 0.3, "trust": 0.2}
        spec = SyntheticSpec(
            conversations=2,
            comments_per_conversation=30,
            troll_rate=0.0,
            contagion=0.0,
            mixture=mixture,
        )
        for record in generate_synthetic(spec, 0):
            vector, dominant, intensity = classify(record.text, lexicon, emoji_lexicon)
            if record.parent_id is not None:
                assert not (
                    dominant in (EmotionKind.ANGER, EmotionKind.DISGUST)
                    and intensity >= 0.8
                )

    def test_timestamps_monotone_within_conversation(self):
        spec = SyntheticSpec(conversations=2, comments_per_conversation=40)
        records = generate_synthetic(spec, 3)
        by_conv: dict[str, list[float]] = {}
        for record in records:
            by_conv.setdefault(record.id[:6], []).append(record.created_at)
        for times in by_conv.values():
            assert times == sorted(times)

    def test_fillers_disjoint_from_lexicon(self, lexicon):
        from emoqueue.harness import _FILLER_WORDS

        clashes = [w for w in _FILLER_WORDS if w in lexicon.terms]
        assert clashes == []

    def test_default_mixture_sums_to_one(self):
        assert sum(DEFAULT_MIXTURE.values()) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_attachment_supported(self):
        spec = SyntheticSpec(
            conversations=1, comments_per_conversation=20, attachment="uniform"
        )
        records = generate_synthetic(spec, 0)
        assert len(records) == 20

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(troll_rate=1.5)
        with pytest.raises(ValueError):
            SyntheticSpec(mixture={"neutral": 0.7, "joy": 0.7})
        with pytest.raises(ValueError):
            SyntheticSpec(attachment="sideways")


def neutral_stream(n=6):
    records = [make_record("r0", None, 0.0, "the road today")]
    records += [
        make_record(f"n{i}", "r0", float(i + 1) * 5.0, "about the paper") for i in range(n - 1)
    ]
    return records


def anger_stream(n=6):
    records = [make_record("r0", None, 0.0, "furious rage rage")]
    records += [
        make_record(f"a{i}", "r0", float(i + 1) * 5.0, "furious rage about this thing")
        for i in range(n - 1)
    ]
    return records


class TestRunWithoutQueue:
    def test_all_neutral_stream(self):
        report = run_without_queue(neutral_stream())
        assert report.held_count == 0
        assert report.anger_fear_spread == 0.0
        assert report.final_board.is_zero
        assert np.all(report.cumulative == 0.0)

    def test_pure_anger_stream(self):
        report = run_without_queue(anger_stream())
        assert report.final_board.get(EmotionKind.ANGER) == pytest.approx(100.0)
        assert report.admitted == report.total

    def test_spread_matches_reference_masses(self, lexicon, emoji_lexicon):
        # independent recomputation of the influence-weighted mass ledger
        spec = SyntheticSpec(conversations=1, comments_per_conversation=6, troll_rate=0.3)
        records = generate_synthetic(spec, 5)
        config = SimulationConfig()
        report = run_without_queue(records, config)
        from emoqueue.emolex import classify_comment

        classified = [
            classify_comment(
                r.id, r.author, r.parent_id, r.created_at, r.text,
                lexicon, emoji_lexicon, config.kappa,
            )
            for r in records
        ]
        ref = reference_replay(records, classified, config, queue_enabled=False)
        expected = np.zeros(8)
        for _, _, mass in ref.admission_masses:
            expected += np.asarray(mass)
        assert np.abs(report.cumulative[-1] - expected).max() < 1e-9

    def test_two_comment_hand_computed_spread(self):
        # intensity-only weights make admitted mass equal the intensity
        records = [
            make_record("r0", None, 0.0, "celebrate celebrate the road"),  # joy 2/4 -> int 1.0...
        ]
        config = SimulationConfig(weights=INTENSITY_ONLY)
        report = run_without_queue(records, config)
        assert report.cumulative[-1][EMOTION_NAMES.index("joy")] == pytest.approx(1.0)


class TestRunWithQueue:
    def test_all_neutral_identical_to_no_queue(self):
        records = neutral_stream()
        nq = run_without_queue(records)
        wq = run_with_queue(records)
        assert wq.held_count == 0
        assert wq.admitted == nq.admitted
        assert np.array_equal(wq.cumulative, nq.cumulative)

    def test_single_root_stream(self):
        report = run_with_queue([make_record("r0", None, 0.0, "furious rage")])
        assert report.admitted == 1
        assert report.held_count == 0

    def test_admitted_plus_suspended_equals_no_queue_admitted(self):
        spec = SyntheticSpec(conversations=4, comments_per_conversation=60, troll_rate=0.3)
        records = generate_synthetic(spec, 2)
        nq, wq = run_paired(records)
        assert wq.admitted + wq.suspended_count == nq.admitted
        assert wq.held_count >= wq.suspended_count

    def test_cumulative_series_monotone(self):
        spec = SyntheticSpec(conversations=3, comments_per_conversation=50, troll_rate=0.25)
        records = generate_synthetic(spec, 4)
        _, wq = run_paired(records)
        assert np.all(np.diff(wq.cumulative, axis=0) >= 0.0)

    def test_governed_stream_never_exceeds_no_queue_mass_at_any_index(self):
        # all-governed stream, influence decoupled from engagement so each
        # comment's mass is the same in both runs; then deferral/suspension
        # can only remove anger+fear mass at every stream index
        records = [make_record("r0", None, 0.0, "furious rage rage")]
        rng = np.random.default_rng(5)
        words = {0: "furious rage about the road", 1: "terror panic over the paper"}
        for i in range(1, 40):
            records.append(
                make_record(f"c{i}", "r0", float(i) * 4.0, words[int(rng.integers(0, 2))])
            )
        config = SimulationConfig(
            weights=InfluenceWeights(intensity=0.6, pagerank=0.0, depth=0.4, replies=0.0)
        )
        nq, wq = run_paired(records, config)
        cum_nq = {}
        for tag, row in zip(nq.series_tags, nq.cumulative):
            cum_nq[tag] = row[ANGER] + row[FEAR]
        cum_wq = {}
        for tag, row in zip(wq.series_tags, wq.cumulative):
            cum_wq[tag] = row[ANGER] + row[FEAR]
        last_nq = last_wq = 0.0
        for tag in range(len(records)):
            last_nq = cum_nq.get(tag, last_nq)
            last_wq = cum_wq.get(tag, last_wq)
            assert last_wq <= last_nq + 1e-9

    def test_run_is_deterministic(self):
        spec = SyntheticSpec(conversations=2, comments_per_conversation=40, troll_rate=0.3)
        records = generate_synthetic(spec, 6)
        first = run_with_queue(records)
        second = run_with_queue(records)
        assert first.to_dict() == second.to_dict()

    def test_jobs_do_not_change_results(self):
        spec = SyntheticSpec(conversations=4, comments_per_conversation=30, troll_rate=0.3)
        records = generate_synthetic(spec, 8)
        serial = run_with_queue(records, jobs=1)
        parallel = run_with_queue(records, jobs=2)
        assert serial.to_dict() == parallel.to_dict()

    @staticmethod
    def fake_pool_context(monkeypatch):
        """Replace the fork context with one whose pool records its size and
        maps serially, so no worker process starts."""
        requested: list[int] = []

        class FakePool:
            def __init__(self, processes):
                requested.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return [fn(task) for task in tasks]

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(harness.multiprocessing, "get_context", lambda method: FakeContext)
        return requested

    @pytest.mark.parametrize("cpus, expected", [(64, 3), (2, 2)])
    def test_pool_never_exceeds_conversations_or_cpus(self, monkeypatch, cpus, expected):
        spec = SyntheticSpec(conversations=3, comments_per_conversation=20, troll_rate=0.3)
        records = generate_synthetic(spec, 9)
        serial = run_with_queue(records, jobs=1)
        requested = self.fake_pool_context(monkeypatch)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        pooled = run_with_queue(records, jobs=1000)
        assert requested == [expected]
        assert pooled.to_dict() == serial.to_dict()

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        records = generate_synthetic(SyntheticSpec(conversations=2, comments_per_conversation=5), 0)
        with pytest.raises(ValueError, match="jobs"):
            run_with_queue(records, jobs=jobs)


class TestCompare:
    def test_identical_reports_reduce_zero(self):
        records = anger_stream()
        report = run_without_queue(records)
        comparison = compare(report, report)
        assert comparison.reduction_pct == 0.0

    def test_zero_baseline_convention(self):
        records = neutral_stream()
        nq, wq = run_paired(records)
        comparison = compare(nq, wq)
        assert comparison.reduction_pct == 0.0

    def test_mismatched_streams_rejected(self):
        nq = run_without_queue(anger_stream())
        other = run_with_queue(neutral_stream())
        with pytest.raises(ComparisonError):
            compare(nq, other)

    def test_mismatched_config_rejected(self):
        records = anger_stream()
        nq = run_without_queue(records)
        wq = run_with_queue(records, SimulationConfig(kappa=3.0))
        with pytest.raises(ComparisonError):
            compare(nq, wq)

    def test_histogram_uses_one_second_bins(self):
        spec = SyntheticSpec(conversations=3, comments_per_conversation=60, troll_rate=0.4)
        records = generate_synthetic(spec, 9)
        nq, wq = run_paired(records)
        comparison = compare(nq, wq)
        if wq.hold_durations:
            bins = dict(comparison.histogram)
            assert sum(bins.values()) == len(wq.hold_durations)
            assert all(isinstance(b, int) for b in bins)


class TestEmission:
    def fixture_report(self, tmp_path):
        spec = SyntheticSpec(conversations=2, comments_per_conversation=40, troll_rate=0.3)
        records = generate_synthetic(spec, 1)
        return run_with_queue(records, log_decisions=True)

    def test_run_dir_layout(self, tmp_path):
        report = self.fixture_report(tmp_path)
        run_dir = write_run_dir(report, tmp_path / "runs")
        assert run_dir.name == run_id_for(report)
        for name in (
            "report.json",
            "hold_histogram.csv",
            "emotion_timeseries.csv",
            "final_board.csv",
            "decisions.log",
        ):
            assert (run_dir / name).exists()

    def test_emission_byte_identical_across_runs(self, tmp_path):
        report = self.fixture_report(tmp_path)
        dir_a = write_run_dir(report, tmp_path / "a")
        dir_b = write_run_dir(report, tmp_path / "b")
        for name in ("report.json", "emotion_timeseries.csv", "decisions.log"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_timeseries_rows_equal_admissions(self, tmp_path):
        report = self.fixture_report(tmp_path)
        run_dir = write_run_dir(report, tmp_path / "runs")
        lines = (run_dir / "emotion_timeseries.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == report.admitted

    def test_header_only_csvideos_on_empty_holds(self, tmp_path):
        report = run_without_queue(neutral_stream())
        run_dir = write_run_dir(report, tmp_path / "runs")
        histogram = (run_dir / "hold_histogram.csv").read_text().strip().splitlines()
        assert histogram == ["bin_start_s,count"]

    def test_emit_report_dispatches_comparison(self, tmp_path):
        records = anger_stream()
        nq, wq = run_paired(records)
        comparison = compare(nq, wq)
        out = write_comparison_dir(comparison, tmp_path / "cmp")
        assert (out / "comparison.json").exists()
        board_lines = (out / "final_board.csv").read_text().strip().splitlines()
        assert board_lines[0] == "emotion,no_queue,with_queue"
        assert len(board_lines) == 9

    def test_report_json_is_sorted_and_parseable(self, tmp_path):
        report = self.fixture_report(tmp_path)
        run_dir = write_run_dir(report, tmp_path / "runs")
        payload = json.loads((run_dir / "report.json").read_text())
        assert payload["total"] == report.total
        assert payload["stream_hash"] == report.stream_hash

    def test_jsonl_round_trip(self, tmp_path):
        from emoqueue.ingest import parse_jsonl

        spec = SyntheticSpec(conversations=2, comments_per_conversation=10)
        records = generate_synthetic(spec, 2)
        path = tmp_path / "corpus.jsonl"
        write_jsonl(records, path)
        parsed = parse_jsonl(path)
        assert parsed.records == sorted(records, key=lambda r: (r.created_at, r.id))
        assert stream_hash(parsed.records) == stream_hash(records)
