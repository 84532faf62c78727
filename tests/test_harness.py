from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    decision_lines,
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
from emoqueue.regulator import GOVERNED_EMOTIONS, DecisionRow

from helpers import INTENSITY_ONLY, make_record
from reference import reference_replay

ANGER = EMOTION_NAMES.index("anger")
FEAR = EMOTION_NAMES.index("fear")


ALL_KEYS_CONFIG = """window_size = 80
kappa = 3.5
rho = 0.4
activity_cutoff = 45
idle_timeout = 1800
weight_intensity = 0.3
weight_pagerank = 0.3
weight_depth = 0.2
weight_replies = 0.2
threshold_anger = 45
threshold_fear = 55
threshold_disgust = 58
threshold_sadness = 62
active_relax = 8
quiet_tighten = 4
decay_gamma = 6
decay_scale = 900
threshold_floor = 25
threshold_ceiling = 85
"""


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

    def test_unknown_key_reported_before_bad_value(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("kappa = fast\nwindow_sizes = 50\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="window_sizes"):
            parse_config_file(path)

    def test_readme_config_block_is_the_defaults(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme[readme.index("**Config file**") :].split("```\n")[1]
        path = tmp_path / "readme.conf"
        path.write_text(block, encoding="utf-8")
        config = parse_config_file(path)
        assert config == SimulationConfig()
        assert config.config_hash() == SimulationConfig().config_hash()

    # run ids derive from these digests, so a change to the hashed layout
    # would rename every run directory
    @pytest.mark.parametrize(
        "text, digest",
        [
            ("", "5b49fc9acd0af61fd397357462d5b7379d70fa717c9952814d4a050899120794"),
            (ALL_KEYS_CONFIG, "786cd63a6de8a86b75dce390f79479d94004362bad8832ee059285a5b646d21e"),
            ("window_size = 50\nkappa = 3.0\n", "25a892b8182a01520c153429563174407a3e26746927a5267166a2e03c5fab2e"),
            ("threshold_anger = 55\nthreshold_floor = 20\n", "382355cf8ef5f0b9107b6f65ffd0f9f2cee795b046cf05bcaf54c789eafbc004"),
        ],
        ids=["defaults", "all-keys", "window-kappa", "anger-floor"],
    )
    def test_config_hash_pinned(self, tmp_path, text, digest):
        path = tmp_path / "run.conf"
        path.write_text(text, encoding="utf-8")
        assert parse_config_file(path).config_hash() == digest

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
        for weight in (float("nan"), float("inf")):
            # NaN passes both ``w < 0`` and ``abs(sum - 1) > 1e-9``
            with pytest.raises(ValueError):
                SyntheticSpec(mixture={"neutral": weight, "joy": 1.0})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticSpec(conversations=1, comments_per_conversation=5), -1)


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

    def test_series_in_stream_order_across_conversations(self):
        # two conversations interleave in time, and b1 comes before its root
        # (the replay buffers it until b0 is published)
        records = [
            make_record("a0", None, 0.0, "celebrate the road"),
            make_record("b1", "b0", 1.0, "the plan"),
            make_record("b0", None, 2.0, "delight the"),
            make_record("a1", "a0", 3.0, "furious the"),
            make_record("b2", "b0", 4.0, "grief about"),
            make_record("a2", "a1", 5.0, "the road"),
        ]
        nq, wq = run_paired(records)
        assert nq.series_ids == [r.id for r in records]
        assert nq.series_tags == list(range(len(records)))
        assert wq.series_tags == sorted(wq.series_tags)

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


def expanded_line(seq: int, row: DecisionRow) -> str:
    """The row as a decisions.log record, through ``json.dumps``."""
    record = {
        "event_seq": seq,
        "comment_id": row.comment_id,
        "decision": row.decision,
        "board_before": dict(zip(EMOTION_NAMES, row.board_before)),
        "board_after": dict(zip(EMOTION_NAMES, row.board_after)),
        "eff_thresholds": {
            e.value: round(v, 6) for e, v in zip(GOVERNED_EMOTIONS, row.thresholds)
        },
        "activity": "active" if row.active else "quiet",
    }
    if row.hold_duration is not None:
        record["hold_duration"] = round(row.hold_duration, 6)
    return json.dumps(record, sort_keys=True)


_percent = st.one_of(
    st.sampled_from([0.0, 1e-07, 100.0]), st.floats(0.0, 100.0, allow_nan=False)
)
_comment_ids = st.text(
    alphabet=st.one_of(
        st.sampled_from(
            ['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "é", "中", "😀", "\u200d"]
        ),
        st.characters(),
    ),
    max_size=12,
)


@st.composite
def decision_rows(draw):
    # a small pool of boards, so rows share tuples as the engine's do
    pool = draw(st.lists(st.tuples(*[_percent] * 8), min_size=1, max_size=4))
    boards = st.sampled_from(pool)
    thresholds = st.sampled_from(
        draw(st.lists(st.tuples(*[_percent] * 4), min_size=1, max_size=3))
    )
    row = st.builds(
        DecisionRow,
        comment_id=_comment_ids,
        decision=st.sampled_from(
            ["admitted", "held", "released", "revised_released", "suspended"]
        ),
        board_before=boards,
        board_after=boards,
        thresholds=thresholds,
        active=st.booleans(),
        hold_duration=st.one_of(st.none(), st.floats(0.0, 1e6, allow_nan=False)),
    )
    return draw(st.lists(row, max_size=8))


class TestDecisionLines:
    @settings(max_examples=150, deadline=None)
    @given(decision_rows())
    def test_lines_equal_json_dumps_of_the_record(self, rows):
        lines = decision_lines(rows)
        assert lines == [expanded_line(seq, row) for seq, row in enumerate(rows)]

    # SHA-256 of decisions.log and of emotion_timeseries.csv on a fixed
    # stream; a change to the log's fields or formatting, or to the spread
    # series, updates these on purpose
    DIGESTS = {
        False: "c10c7fbaa75c845eb4e121e85d3412086189c1021bcf86de9655b82c5a37856c",
        True: "6458f4a5a8d335547026e0cb1c429fa1ac7275e2085e31a5e2bc66713b325c76",
    }
    TIMESERIES_DIGESTS = {
        False: "d798b649c80fc724a6b11d1d3783ab2e438a39f3b1160ead633b14384cf3e109",
        True: "c398175f160790b0774757a0813c4d02a00a8614386a83854e1c35d38fae2b6a",
    }

    @pytest.mark.parametrize("queue_enabled", [False, True], ids=["queue-off", "queue-on"])
    def test_decisions_log_digest(self, tmp_path, queue_enabled):
        spec = SyntheticSpec(conversations=3, comments_per_conversation=60, troll_rate=0.3)
        run = run_with_queue if queue_enabled else run_without_queue
        report = run(generate_synthetic(spec, 5), log_decisions=True)
        run_dir = write_run_dir(report, tmp_path)
        data = (run_dir / "decisions.log").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[queue_enabled]
        series = (run_dir / "emotion_timeseries.csv").read_bytes()
        assert hashlib.sha256(series).hexdigest() == self.TIMESERIES_DIGESTS[queue_enabled]
