from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emoqueue import congraph, harness
from emoqueue.congraph import InfluenceWeights, StructuralError
from emoqueue.emolex import EMOTION_INDEX, EmotionKind, EmotionVector
from emoqueue.harness import (
    DEFAULT_MIXTURE,
    SimulationConfig,
    SyntheticSpec,
    decision_lines,
    generate_synthetic,
)
from emoqueue.harness import _simulate_conversation  # tested via its public callers too
from emoqueue.ingest import partition_conversations
from emoqueue.regulator import (
    ACTIVITY_RING,
    AdmissionDecision,
    ClockError,
    GOVERNED_EMOTIONS,
    Engine,
    QueueEntry,
    QueueStatus,
    RegulatorError,
    ThresholdConfig,
    UnknownParentError,
    _HeldScreen,
    _CERTIFY_MAX_BUMPS,
    _SCREEN_BATCH_MIN,
    _THRESHOLD_TABLE_MAX,
    _may_hold,
)
from emoqueue.emolex import classify_comment

from helpers import INTENSITY_ONLY, make_comment, make_record, no_decay_thresholds
from reference import reference_replay


def joy_engine(times, **kwargs) -> Engine:
    """Engine whose root and replies are all admitted, one per time in ``times``."""
    eng = Engine(**kwargs)
    eng.submit(make_comment("r", None, times[0], EmotionKind.JOY, 0.5), now=times[0])
    for i, now in enumerate(times[1:], 1):
        eng.submit(make_comment(f"j{i}", "r", now, EmotionKind.JOY, 0.5), now=now)
    return eng


def active_engine(gap: float = 1.0, **kwargs) -> Engine:
    return joy_engine([i * gap for i in range(20)], **kwargs)


def logged_records(eng: Engine) -> list[dict]:
    """The engine's decision log as decisions.log writes it, parsed back."""
    return [json.loads(line) for line in decision_lines(eng.decision_log)]


def logged_activity(eng: Engine) -> str:
    return logged_records(eng)[-1]["activity"]


def intensity_engine(**kwargs) -> Engine:
    kwargs.setdefault("weights", INTENSITY_ONLY)
    return Engine(**kwargs)


def storm_conversation(seed, lexicon, emoji_lexicon, config, comments=200, troll_rate=0.6):
    """One classified conversation, at troll rate 0.6 unless given."""
    spec = SyntheticSpec(
        conversations=1, comments_per_conversation=comments, troll_rate=troll_rate
    )
    records = generate_synthetic(spec, seed)
    classified = [
        classify_comment(
            r.id, r.author, r.parent_id, r.created_at, r.text,
            lexicon, emoji_lexicon, config.kappa,
        )
        for r in records
    ]
    return records, classified


def replay(eng: Engine, records, classified) -> None:
    """Submit one conversation in stream order, deferring comments whose
    parent has not arrived, and finalize it."""
    for record, comment in zip(records, classified):
        parent = comment.parent_id
        defer = parent is not None and parent not in eng.entries and (
            eng.graph is None or parent not in eng.graph
        )
        eng.submit(comment, now=record.created_at, defer_missing_parent=defer)
    eng.finalize(records[-1].created_at)


class TestThresholdConfig:
    def test_defaults_match_the_governed_bases(self):
        cfg = ThresholdConfig()
        assert cfg.base[EmotionKind.ANGER] == 50.0
        assert cfg.base[EmotionKind.FEAR] == 60.0
        assert cfg.base[EmotionKind.DISGUST] == 60.0
        assert cfg.base[EmotionKind.SADNESS] == 60.0

    def test_partial_base_merged_with_defaults(self):
        cfg = ThresholdConfig(base={EmotionKind.ANGER: 40.0})
        assert cfg.base[EmotionKind.ANGER] == 40.0
        assert cfg.base[EmotionKind.FEAR] == 60.0

    def test_floor_above_base_rejected(self):
        with pytest.raises(ValueError):
            ThresholdConfig(base={EmotionKind.ANGER: 20.0})  # default floor is 30

    def test_ceiling_above_100_rejected(self):
        with pytest.raises(ValueError):
            ThresholdConfig(ceiling={EmotionKind.ANGER: 120.0})


def effective(eng: Engine) -> dict[EmotionKind, float]:
    """The engine's effective thresholds now, by governed emotion."""
    return dict(zip(GOVERNED_EMOTIONS, eng._effective_tuple(eng.processed_count)))


class TestEffectiveThresholds:
    def test_quiet_at_start(self):
        eff = effective(Engine())
        assert eff[EmotionKind.ANGER] == 45.0
        assert eff[EmotionKind.FEAR] == 55.0

    def test_active_relaxes(self):
        eff = effective(active_engine(thresholds=no_decay_thresholds()))
        assert eff[EmotionKind.ANGER] == 60.0
        assert eff[EmotionKind.FEAR] == 70.0

    def test_decay_saturates(self):
        # decay_scale=1 saturates the decay from the first processed comment
        eng = active_engine(thresholds=ThresholdConfig(decay_scale=1))
        assert effective(eng)[EmotionKind.ANGER] == 55.0

    def test_floor_clamps(self):
        eng = joy_engine([0.0], thresholds=ThresholdConfig(decay_gamma=30.0, decay_scale=1))
        assert effective(eng)[EmotionKind.ANGER] == 30.0

    def test_only_governed_emotions_present(self):
        assert set(effective(Engine())) == {
            EmotionKind.ANGER,
            EmotionKind.FEAR,
            EmotionKind.DISGUST,
            EmotionKind.SADNESS,
        }
        assert len(Engine()._effective_tuple(0)) == len(GOVERNED_EMOTIONS)


class TestEngineSettings:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_size": 0},
            {"rho": 0.0},
            {"rho": 1.5},
            {"damping": 0.0},
            {"damping": 1.0},
            {"damping": float("nan")},
            {"activity_cutoff": -1.0},
            {"activity_cutoff": float("inf")},
            {"activity_cutoff": float("nan")},
        ],
        ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_bad_setting_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            Engine(**kwargs)

    def test_zero_activity_cutoff_accepted(self):
        # a cutoff of 0 keeps every conversation quiet; the CLI accepts it too
        assert Engine(activity_cutoff=0.0).activity_cutoff == 0.0


class TestActivity:
    def test_fewer_than_ring_is_quiet(self):
        eng = joy_engine([float(i) for i in range(19)], log_decisions=True)
        assert logged_activity(eng) == "quiet"

    def test_fast_cadence_is_active(self):
        assert logged_activity(active_engine(gap=1.0, log_decisions=True)) == "active"

    def test_slow_cadence_is_quiet(self):
        assert logged_activity(active_engine(gap=600.0, log_decisions=True)) == "quiet"


class TestSubmit:
    def test_root_always_admitted(self):
        eng = intensity_engine()
        decision = eng.submit(make_comment("r", None, 0.0, EmotionKind.ANGER, 1.0), now=0.0)
        assert decision is AdmissionDecision.ADMITTED

    def test_neutral_always_admitted(self):
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0, EmotionKind.ANGER, 1.0), now=0.0)
        decision = eng.submit(make_comment("n", "r", 1.0), now=1.0)
        assert decision is AdmissionDecision.ADMITTED

    def test_positive_dominant_bypasses_saturated_board(self):
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0, EmotionKind.ANGER, 1.0), now=0.0)
        decision = eng.submit(
            make_comment("j", "r", 1.0, EmotionKind.JOY, 1.0), now=1.0
        )
        assert decision is AdmissionDecision.ADMITTED

    def test_anger_breach_is_held(self):
        # a 65% anger push against the quiet 45% effective threshold
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0, EmotionKind.JOY, 0.35), now=0.0)
        decision = eng.submit(
            make_comment("x", "r", 1.0, EmotionKind.ANGER, 0.65), now=1.0
        )
        assert decision is AdmissionDecision.HELD
        assert eng.held_active_count == 1
        assert eng.board().get(EmotionKind.ANGER) == 0.0  # not in the graph

    def test_never_blamed_for_preexisting_breach(self):
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0, EmotionKind.ANGER, 1.0), now=0.0)
        # board is already 100% anger; an anger reply that does not worsen it passes
        decision = eng.submit(
            make_comment("x", "r", 1.0, EmotionKind.ANGER, 0.5), now=1.0
        )
        assert decision is AdmissionDecision.ADMITTED

    def test_unknown_parent_rejected(self):
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0), now=0.0)
        with pytest.raises(UnknownParentError):
            eng.submit(make_comment("x", "ghost", 1.0), now=1.0)

    def test_clock_must_not_run_backwards(self):
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 5.0), now=5.0)
        with pytest.raises(ClockError):
            eng.submit(make_comment("x", "r", 1.0), now=1.0)

    def test_duplicate_submission_rejected(self):
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0), now=0.0)
        eng.submit(make_comment("x", "r", 1.0), now=1.0)
        with pytest.raises(RegulatorError):
            eng.submit(make_comment("x", "r", 2.0), now=2.0)

    def test_second_root_rejected(self):
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0), now=0.0)
        with pytest.raises(StructuralError):
            eng.submit(make_comment("r2", None, 1.0), now=1.0)

    def test_queue_disabled_admits_everything(self):
        eng = intensity_engine(queue_enabled=False)
        eng.submit(make_comment("r", None, 0.0, EmotionKind.JOY, 0.35), now=0.0)
        decision = eng.submit(
            make_comment("x", "r", 1.0, EmotionKind.ANGER, 0.65), now=1.0
        )
        assert decision is AdmissionDecision.ADMITTED
        assert eng.ever_held_count == 0


class TestRequeueScan:
    def test_empty_queue_returns_empty(self):
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0), now=0.0)
        assert eng.requeue_scan(1.0) == []

    def test_release_after_positive_dilution(self):
        # queued anger reintegrates once trust/joy pull anger below threshold
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0, EmotionKind.JOY, 0.35), now=0.0)
        assert eng.submit(
            make_comment("x", "r", 1.0, EmotionKind.ANGER, 0.75), now=1.0
        ) is AdmissionDecision.HELD
        eng.submit(make_comment("t", "r", 2.0, EmotionKind.TRUST, 0.5), now=2.0)
        assert eng.entries["x"].status is QueueStatus.HELD
        eng.submit(make_comment("j", "r", 3.0, EmotionKind.JOY, 0.5), now=3.0)
        entry = eng.entries["x"]
        assert entry.status is QueueStatus.RELEASED
        assert entry.release_time == 3.0
        assert entry.hold_duration == 2.0
        assert entry.reeval_count == 2
        assert eng.board().get(EmotionKind.ANGER) < 55.0

    def test_rebreach_releases_exactly_one(self):
        # two held anger entries; admitting the first re-breaches the threshold
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0, EmotionKind.JOY, 0.3), now=0.0)
        eng.submit(make_comment("e1", "r", 1.0, EmotionKind.ANGER, 0.9), now=1.0)
        eng.submit(make_comment("e2", "r", 2.0, EmotionKind.ANGER, 1.0), now=2.0)
        assert eng.held_active_count == 2
        eng.submit(make_comment("j", "r", 3.0, EmotionKind.JOY, 0.9), now=3.0)
        assert eng.entries["e1"].status is QueueStatus.RELEASED
        assert eng.entries["e2"].status is QueueStatus.HELD

    def test_underrepresented_emotion_goes_first(self):
        # fear is scarcer than anger on the board, so the fear entry is tested first
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0, EmotionKind.JOY, 0.2), now=0.0)
        eng.submit(make_comment("a0", "r", 1.0, EmotionKind.ANGER, 0.1), now=1.0)
        eng.submit(make_comment("f", "r", 2.0, EmotionKind.FEAR, 0.9), now=2.0)
        eng.submit(make_comment("a", "r", 3.0, EmotionKind.ANGER, 0.9), now=3.0)
        assert eng.entries["f"].status is QueueStatus.HELD
        assert eng.entries["a"].status is QueueStatus.HELD
        order = [e.comment.id for e in eng._priority_order()]
        assert order == ["f", "a"]


class TestFinalize:
    def test_empty_queue(self):
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0), now=0.0)
        assert eng.finalize(10.0) == []

    def test_release_after_revision(self):
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0, EmotionKind.JOY, 0.4), now=0.0)
        eng.submit(make_comment("x", "r", 1.0, EmotionKind.ANGER, 1.0), now=1.0)
        eng.submit(make_comment("j", "r", 2.0, EmotionKind.JOY, 0.6), now=2.0)
        assert eng.entries["x"].status is QueueStatus.HELD
        outcomes = eng.finalize(10.0)
        assert [(e.comment.id, s) for e, s in outcomes] == [("x", QueueStatus.RELEASED)]
        entry = outcomes[0][0]
        assert entry.revised
        assert entry.comment.intensity == 0.5  # halved by rho
        assert entry.hold_duration == 9.0
        assert eng.board().get(EmotionKind.ANGER) > 0.0

    def test_suspension_when_still_breaching(self):
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0, EmotionKind.JOY, 0.3), now=0.0)
        eng.submit(make_comment("e1", "r", 1.0, EmotionKind.ANGER, 0.9), now=1.0)
        eng.submit(make_comment("e2", "r", 2.0, EmotionKind.ANGER, 1.0), now=2.0)
        eng.submit(make_comment("j", "r", 3.0, EmotionKind.JOY, 0.9), now=3.0)
        outcomes = eng.finalize(20.0)
        assert [(e.comment.id, s) for e, s in outcomes] == [("e2", QueueStatus.SUSPENDED)]
        assert eng.suspended_count == 1
        # suspended comments never enter the graph
        assert "e2" not in eng.graph

    def test_hold_durations_nonnegative_and_finite(self):
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0, EmotionKind.JOY, 0.3), now=0.0)
        eng.submit(make_comment("x", "r", 5.0, EmotionKind.ANGER, 1.0), now=5.0)
        eng.finalize(5.0)
        entry = eng.entries["x"]
        assert entry.hold_duration is not None
        assert entry.hold_duration >= 0.0


class TestDependencyHolds:
    def test_future_parent_defers_then_releases(self):
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0), now=0.0)
        decision = eng.submit(
            make_comment("child", "later", 1.0), now=1.0, defer_missing_parent=True
        )
        assert decision is AdmissionDecision.HELD
        eng.submit(make_comment("later", "r", 2.0), now=2.0)
        assert eng.entries["child"].status is QueueStatus.RELEASED

    def test_child_of_held_parent_waits_for_it(self):
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0, EmotionKind.JOY, 0.35), now=0.0)
        eng.submit(make_comment("troll", "r", 1.0, EmotionKind.ANGER, 0.65), now=1.0)
        decision = eng.submit(make_comment("reply", "troll", 2.0), now=2.0)
        assert decision is AdmissionDecision.HELD
        eng.submit(make_comment("j1", "r", 3.0, EmotionKind.JOY, 0.8), now=3.0)
        eng.submit(make_comment("j2", "r", 4.0, EmotionKind.JOY, 0.8), now=4.0)
        assert eng.entries["troll"].status is QueueStatus.RELEASED
        assert eng.entries["reply"].status is QueueStatus.RELEASED
        assert eng.graph.parent_of("reply") == "troll"

    def test_children_of_suspended_parents_are_suspended(self):
        eng = intensity_engine()
        eng.submit(make_comment("r", None, 0.0, EmotionKind.JOY, 0.1), now=0.0)
        eng.submit(make_comment("troll", "r", 1.0, EmotionKind.ANGER, 1.0), now=1.0)
        eng.submit(make_comment("reply", "troll", 2.0), now=2.0)
        outcomes = dict(
            (e.comment.id, s) for e, s in eng.finalize(10.0)
        )
        assert outcomes["troll"] is QueueStatus.SUSPENDED
        assert outcomes["reply"] is QueueStatus.SUSPENDED


class TestInvariants:
    def run_random_stream(self, seed: int, queue_enabled: bool = True) -> Engine:
        rng = np.random.default_rng(seed)
        eng = Engine(queue_enabled=queue_enabled)
        eng.submit(make_comment("n0", None, 0.0, EmotionKind.JOY, 0.5), now=0.0)
        admitted_or_known = ["n0"]
        kinds = list(EmotionKind)
        for i in range(1, 40):
            parent = admitted_or_known[int(rng.integers(0, len(admitted_or_known)))]
            if rng.random() < 0.2:
                comment = make_comment(f"n{i}", parent, float(i))
            else:
                kind = kinds[int(rng.integers(0, 8))]
                comment = make_comment(
                    f"n{i}", parent, float(i), kind, round(float(rng.uniform(0.1, 1.0)), 3)
                )
            eng.submit(comment, now=float(i), defer_missing_parent=True)
            admitted_or_known.append(f"n{i}")
            assert eng.conservation_holds()
            for entry in eng.entries.values():
                if entry.status is QueueStatus.HELD:
                    assert entry.comment.id not in eng.graph
        eng.finalize(50.0)
        assert eng.conservation_holds()
        assert eng.held_active_count == 0
        return eng

    def test_no_lost_comments(self):
        for seed in range(5):
            eng = self.run_random_stream(seed)
            assert eng.admitted_count + eng.suspended_count == eng.processed_count

    def test_deterministic_decision_sequence(self):
        first = self.run_random_stream(7)
        second = self.run_random_stream(7)
        assert first.decisions == second.decisions

    def test_monotone_relief(self):
        # Once a held candidate becomes releasable, positive/neutral traffic
        # never makes it un-releasable, provided the nuisance inputs are
        # pinned: no threshold decay, intensity-only influence (no
        # engagement coupling), window wider than the stream, and a cadence
        # that never flips the activity regime.
        rng = np.random.default_rng(42)
        for trial in range(10):
            eng = Engine(
                weights=INTENSITY_ONLY,
                thresholds=no_decay_thresholds(),
                window_size=500,
                activity_cutoff=0.5,  # gaps of 1s keep the regime quiet
            )
            eng.submit(make_comment("r", None, 0.0, EmotionKind.JOY, 0.3), now=0.0)
            candidate = make_comment(
                "x", "r", 0.5, EmotionKind.ANGER, round(float(rng.uniform(0.5, 1.0)), 3)
            )
            was_releasable = False
            for i in range(1, 30):
                kind = (EmotionKind.JOY, EmotionKind.TRUST, None)[int(rng.integers(0, 3))]
                if kind is None:
                    comment = make_comment(f"p{i}", "r", float(i))
                else:
                    comment = make_comment(
                        f"p{i}", "r", float(i), kind, round(float(rng.uniform(0.1, 1.0)), 3)
                    )
                eng.submit(comment, now=float(i))
                releasable = eng._passes(candidate, "r", eng.processed_count)
                if was_releasable:
                    assert releasable, f"trial {trial}: relief regressed at step {i}"
                was_releasable = was_releasable or releasable


class TestGoldenDecisionLog:
    def test_hold_and_release_flow_log(self):
        # frozen end-to-end log for the hold -> dilution -> release flow
        eng = intensity_engine(log_decisions=True)
        eng.submit(make_comment("r", None, 0.0, EmotionKind.JOY, 0.35), now=0.0)
        eng.submit(make_comment("x", "r", 10.0, EmotionKind.ANGER, 0.65), now=10.0)
        eng.submit(make_comment("t", "r", 20.0, EmotionKind.TRUST, 0.65), now=20.0)
        eng.submit(make_comment("j", "r", 30.0, EmotionKind.JOY, 0.65), now=30.0)
        eng.finalize(40.0)
        expected = [
            {
                "event_seq": 0, "comment_id": "r", "decision": "admitted",
                "board_before": {"anger": 0.0, "fear": 0.0, "anticipation": 0.0,
                                 "trust": 0.0, "surprise": 0.0, "sadness": 0.0,
                                 "joy": 0.0, "disgust": 0.0},
                "board_after": {"anger": 0.0, "fear": 0.0, "anticipation": 0.0,
                                "trust": 0.0, "surprise": 0.0, "sadness": 0.0,
                                "joy": 100.0, "disgust": 0.0},
                "eff_thresholds": {"anger": 44.995, "fear": 54.995,
                                   "disgust": 54.995, "sadness": 54.995},
                "activity": "quiet",
            },
            {
                "event_seq": 1, "comment_id": "x", "decision": "held",
                "board_before": {"anger": 0.0, "fear": 0.0, "anticipation": 0.0,
                                 "trust": 0.0, "surprise": 0.0, "sadness": 0.0,
                                 "joy": 100.0, "disgust": 0.0},
                "board_after": {"anger": 0.0, "fear": 0.0, "anticipation": 0.0,
                                "trust": 0.0, "surprise": 0.0, "sadness": 0.0,
                                "joy": 100.0, "disgust": 0.0},
                "eff_thresholds": {"anger": 44.99, "fear": 54.99,
                                   "disgust": 54.99, "sadness": 54.99},
                "activity": "quiet",
            },
            {
                "event_seq": 2, "comment_id": "t", "decision": "admitted",
                "board_before": {"anger": 0.0, "fear": 0.0, "anticipation": 0.0,
                                 "trust": 0.0, "surprise": 0.0, "sadness": 0.0,
                                 "joy": 100.0, "disgust": 0.0},
                "board_after": {"anger": 0.0, "fear": 0.0, "anticipation": 0.0,
                                "trust": 65.0, "surprise": 0.0, "sadness": 0.0,
                                "joy": 35.0, "disgust": 0.0},
                "eff_thresholds": {"anger": 44.985, "fear": 54.985,
                                   "disgust": 54.985, "sadness": 54.985},
                "activity": "quiet",
            },
            {
                # anger 0.65 against joy 0.35 + trust 0.65: 0.65/1.65 = 39.39% <= 44.985
                "event_seq": 3, "comment_id": "x", "decision": "released",
                "board_before": {"anger": 0.0, "fear": 0.0, "anticipation": 0.0,
                                 "trust": 65.0, "surprise": 0.0, "sadness": 0.0,
                                 "joy": 35.0, "disgust": 0.0},
                "board_after": {"anger": 39.393939, "fear": 0.0, "anticipation": 0.0,
                                "trust": 39.393939, "surprise": 0.0, "sadness": 0.0,
                                "joy": 21.212121, "disgust": 0.0},
                "eff_thresholds": {"anger": 44.985, "fear": 54.985,
                                   "disgust": 54.985, "sadness": 54.985},
                "activity": "quiet",
                "hold_duration": 10.0,
            },
            {
                "event_seq": 4, "comment_id": "j", "decision": "admitted",
                "board_before": {"anger": 39.393939, "fear": 0.0, "anticipation": 0.0,
                                 "trust": 39.393939, "surprise": 0.0, "sadness": 0.0,
                                 "joy": 21.212121, "disgust": 0.0},
                "board_after": {"anger": 28.26087, "fear": 0.0, "anticipation": 0.0,
                                "trust": 28.26087, "surprise": 0.0, "sadness": 0.0,
                                "joy": 43.478261, "disgust": 0.0},
                "eff_thresholds": {"anger": 44.98, "fear": 54.98,
                                   "disgust": 54.98, "sadness": 54.98},
                "activity": "quiet",
            },
        ]
        assert logged_records(eng) == expected


class TestIdleTimeout:
    def test_idle_gap_finalizes_mid_stream(self, lexicon, emoji_lexicon):
        from emoqueue.harness import SimulationConfig as Config

        records = [
            make_record("r", None, 0.0, "celebrate celebrate the road"),
            make_record("x", "r", 10.0, "furious rage rage about this"),
            # long lull, then the thread revives
            make_record("late", "r", 5000.0, "about the road"),
        ]
        config = Config(weights=INTENSITY_ONLY, idle_timeout=600.0)
        classified = [
            classify_comment(
                r.id, r.author, r.parent_id, r.created_at, r.text,
                lexicon, emoji_lexicon, config.kappa,
            )
            for r in records
        ]
        engine, _ = _simulate_conversation(records, [0, 1, 2], classified, config, True, False)
        # the held anger comment resolves at the idle finalize (t=610),
        # not at stream end; the late neutral comment still admits
        decisions = dict(engine.decisions)
        assert decisions["late"] == "admitted"
        assert decisions["x"] in ("revised_released", "suspended")
        assert [e.hold_duration for e in engine.entries.values()] == [600.0]


class TestDecisionLog:
    def test_log_records_shape(self):
        eng = intensity_engine(log_decisions=True)
        eng.submit(make_comment("r", None, 0.0, EmotionKind.JOY, 0.35), now=0.0)
        eng.submit(make_comment("x", "r", 1.0, EmotionKind.ANGER, 0.65), now=1.0)
        eng.submit(make_comment("j", "r", 2.0, EmotionKind.JOY, 0.9), now=2.0)
        eng.finalize(9.0)
        log = logged_records(eng)
        assert [rec["decision"] for rec in log] == [
            "admitted",
            "held",
            "admitted",
            "released",
        ]
        assert [rec["event_seq"] for rec in log] == list(range(len(log)))
        released = log[-1]
        assert released["hold_duration"] == 1.0
        assert set(released["eff_thresholds"]) == {"anger", "fear", "disgust", "sadness"}
        assert released["activity"] in ("active", "quiet")
        assert 0.0 <= released["board_after"]["anger"] <= 100.0


class TestLoggingOffCostsNothing:
    """An unlogged engine builds nothing for the log: no window product
    without a queue, and no rounded board with one."""

    @staticmethod
    def replay(eng: Engine, classified) -> Engine:
        for comment in classified:
            eng.submit(comment, now=comment.created_at, defer_missing_parent=True)
        eng.finalize(classified[-1].created_at)
        return eng

    @staticmethod
    def count_calls(monkeypatch, owner, name: str) -> list[int]:
        calls = [0]
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_no_queue_unlogged_reads_no_window(self, lexicon, emoji_lexicon, monkeypatch):
        _, classified = storm_conversation(3, lexicon, emoji_lexicon, SimulationConfig())
        calls = self.count_calls(monkeypatch, congraph, "_window_mass_totals")
        eng = self.replay(Engine(queue_enabled=False, log_decisions=False), classified)
        assert eng.admitted_count == 200
        assert calls[0] == 0
        self.replay(Engine(queue_enabled=False, log_decisions=True), classified)
        assert calls[0] > 0  # the probe sees the logged engine's window reads

    def test_queue_unlogged_rounds_no_board(self, lexicon, emoji_lexicon, monkeypatch):
        _, classified = storm_conversation(3, lexicon, emoji_lexicon, SimulationConfig())
        calls = self.count_calls(monkeypatch, Engine, "_logged_board")
        eng = self.replay(Engine(log_decisions=False), classified)
        assert eng.ever_held_count > 0
        assert calls[0] == 0
        self.replay(Engine(log_decisions=True), classified)
        assert calls[0] > 0


# words the lexicons give one dominant emotion, and filler they skip; the
# emoji include adjacent pairs with no space between them (one token, scored
# per codepoint) and the lexicon's two-codepoint heart (U+2764 U+FE0F)
_STREAM_WORDS = {
    "anger": ("furious", "enraged", "\U0001f621", "\U0001f621\U0001f92c"),
    "disgust": ("filth", "foul", "\U0001f922", "\U0001f922\U0001f92e"),
    "fear": ("afraid", "dread", "\U0001f631", "\U0001f631\U0001f628"),
    "sadness": ("grief", "gloom", "\U0001f622", "\U0001f62d\U0001f494"),
    "joy": ("celebrate", "delight", "\u2728", "\u2764\ufe0f", "\u2728\u2764\ufe0f"),
    "trust": ("credible", "faithful"),
    "surprise": ("amazed", "baffled"),
}
_STREAM_FILLER = ("the", "plan", "about", "with", "today")
_STREAM_IDLE = 60.0
# gaps between consecutive records: equal timestamps, short ones, either
# side of the idle timeout (which finalizes mid-stream), and long ones
_STREAM_GAPS = (0.0, 0.5, 3.0, _STREAM_IDLE - 1.0, _STREAM_IDLE + 1.0, 500.0)


@st.composite
def raw_streams(draw):
    """A small raw conversation stream in replay order, and its config.

    Record ``r0`` is the root; every other record replies to an earlier one
    in tree order, or to an id missing from the stream. Timestamps follow a
    random permutation, so children may come before their parents and the
    root need not come first. Gaps repeat timestamps or straddle the idle
    timeout; the comments may be all governed, and a text may be only
    emoji, or empty; the window is one comment or longer than the stream."""
    n = draw(st.integers(min_value=2, max_value=12))
    governed = draw(st.booleans())
    kinds = ("anger", "disgust", "fear", "sadness") if governed else (*_STREAM_WORDS, None)
    order = draw(st.permutations(range(n)))
    gaps = draw(st.lists(st.sampled_from(_STREAM_GAPS), min_size=n, max_size=n))
    clock, stamps = 1000.0, {}
    for row, gap in zip(order, gaps):
        clock += gap
        stamps[row] = clock
    records = []
    for i in range(n):
        parent = None
        if i:
            j = draw(st.integers(min_value=-1, max_value=i - 1))
            parent = "gone" if j < 0 else f"r{j}"
        kind = draw(st.sampled_from(kinds))
        words = []
        if kind is not None:
            words = draw(st.lists(st.sampled_from(_STREAM_WORDS[kind]), min_size=1, max_size=3))
        words += draw(st.lists(st.sampled_from(_STREAM_FILLER), max_size=4))
        records.append(make_record(f"r{i}", parent, stamps[i], " ".join(words)))
    records.sort(key=lambda r: (r.created_at, r.id))
    window = draw(st.sampled_from([1, 2, 5, 100]))
    return records, SimulationConfig(window_size=window, idle_timeout=_STREAM_IDLE)


def _stream(window: int, *rows) -> tuple:
    """A ``raw_streams`` value from ``(id, parent, created_at, text)`` rows."""
    records = [make_record(*row) for row in rows]
    return records, SimulationConfig(window_size=window, idle_timeout=_STREAM_IDLE)


class TestOracleEquivalence:
    def test_engine_matches_reference_on_small_conversations(self, lexicon, emoji_lexicon):
        config = SimulationConfig()
        spec = SyntheticSpec(
            conversations=5,
            comments_per_conversation=12,
            troll_rate=0.3,
            contagion=0.4,
            inter_arrival_mean=5.0,
        )
        mismatches = 0
        for seed in range(10):
            records = generate_synthetic(spec, seed)
            for group in partition_conversations(records):
                classified = [
                    classify_comment(
                        r.id, r.author, r.parent_id, r.created_at, r.text,
                        lexicon, emoji_lexicon, config.kappa,
                    )
                    for r in group
                ]
                tags = list(range(len(group)))
                engine, _ = _simulate_conversation(group, tags, classified, config, True, False)
                ref = reference_replay(group, classified, config, queue_enabled=True)
                if engine.decisions != ref.decisions:
                    mismatches += 1
        assert mismatches == 0

    @given(raw_streams())
    @example(
        # r2 waits for r1 and is released when r1 arrives, in a pass in
        # which its children sort one before it (r4, anger) and one after
        # it (r3, sadness): only r3 is tested in that pass
        _stream(
            1,
            ("r0", None, 1000.0, "grief the"),
            ("r2", "r1", 1000.0, "grief the"),
            ("r3", "r2", 1000.0, "grief the"),
            ("r4", "r2", 1000.0, "furious the"),
            ("r1", "r0", 1000.5, "grief the"),
            ("r5", "r0", 1000.5, "furious the"),
        )
    )
    @example(
        # the idle gap suspends r1; r7 then replies to it
        _stream(
            1,
            ("r0", None, 1000.0, "furious the"),
            ("r1", "r0", 1000.0, "filth the"),
            *[(f"r{i}", "r0", 1000.0, "furious the") for i in range(2, 7)],
            ("r7", "r1", 1061.0, "furious the"),
        )
    )
    @example(
        # at the last finalize r8 (sadness) and r1 (disgust), sibling leaves
        # of equal influence, give their emotions equal shares, so r6 sorts
        # before r10 by time; the reference's PageRank solve once split them
        _stream(
            5,
            ("r0", None, 1000.0, "furious the"),
            ("r3", "r1", 1000.0, "furious the"),
            ("r4", "r0", 1000.0, "furious the"),
            ("r5", "r1", 1000.0, "furious the"),
            ("r8", "r0", 1000.0, "grief the"),
            ("r9", "r0", 1000.0, "furious the"),
            ("r11", "r0", 1000.5, "furious the"),
            ("r2", "r0", 1000.5, "afraid the"),
            ("r1", "r0", 1061.5, "filth the"),
            ("r6", "r3", 1061.5, "grief the"),
            ("r10", "r3", 1062.0, "filth the"),
            ("r7", "r3", 1062.0, "furious the"),
        )
    )
    @example(
        # r2 (intensity 4/21) is held; the last finalize halves it below
        # the 0.1 floor, which it is raised to, and releases it
        _stream(
            5,
            ("r0", None, 1000.5, "grief the"),
            ("r1", "r0", 1003.5, "furious"),
            ("r2", "r0", 1004.0, "furious" + " the" * 20),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_engine_matches_reference_on_raw_streams(self, lexicon, emoji_lexicon, stream):
        records, config = stream
        classified = [
            classify_comment(
                r.id, r.author, r.parent_id, r.created_at, r.text,
                lexicon, emoji_lexicon, config.kappa,
            )
            for r in records
        ]
        for queue in (True, False):
            engine, orphans = _simulate_conversation(
                records, list(range(len(records))), classified, config, queue, False
            )
            ref = reference_replay(records, classified, config, queue_enabled=queue)
            assert engine.decisions == ref.decisions
            assert engine.conservation_holds()
            assert {cid: e.reeval_count for cid, e in engine.entries.items()} == {
                cid: e["reeval"] for cid, e in ref.entries.items()
            }
            # the spread series: the reference's admissions and mass ledger
            report = harness._assemble(
                [harness._outcome(engine, orphans)], queue, "", "", config
            )
            assert sorted(report.series_ids) == sorted(cid for cid, _, _ in ref.admission_masses)
            assert {cid for cid, r in zip(report.series_ids, report.series_revised) if r} == {
                cid for cid, kind in ref.decisions if kind == "revised_released"
            }
            ledger = np.sum([mass for _, _, mass in ref.admission_masses], axis=0)
            assert np.abs(report.cumulative[-1] - ledger).max() < 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("governed", [False, True], ids=["ungoverned", "default"])
    def test_engine_matches_reference_on_deep_chains(
        self, lexicon, emoji_lexicon, governed, seed
    ):
        # 300 deep: past the 226 ancestor levels an admission walks at d = 0.85
        config = SimulationConfig()
        if governed:
            spec = SyntheticSpec(conversations=1, comments_per_conversation=300, troll_rate=0.15)
        else:
            governed_names = {e.value for e in GOVERNED_EMOTIONS}
            ungoverned = {k: v for k, v in DEFAULT_MIXTURE.items() if k not in governed_names}
            share = sum(ungoverned.values())
            spec = SyntheticSpec(
                conversations=1,
                comments_per_conversation=300,
                troll_rate=0.0,
                mixture={k: v / share for k, v in ungoverned.items()},
            )
        records = generate_synthetic(spec, seed)
        records = [records[0]] + [
            dataclasses.replace(record, parent_id=prev.id)
            for prev, record in zip(records, records[1:])
        ]
        classified = [
            classify_comment(
                r.id, r.author, r.parent_id, r.created_at, r.text,
                lexicon, emoji_lexicon, config.kappa,
            )
            for r in records
        ]
        engine, _ = _simulate_conversation(
            records, list(range(len(records))), classified, config, True, False
        )
        ref = reference_replay(records, classified, config, queue_enabled=True)
        assert engine.decisions == ref.decisions
        kinds = [kind for _, kind in engine.decisions]
        if not governed:
            assert kinds == ["admitted"] * len(records)
            return
        # a held comment defers its whole subtree, which in a chain is every
        # later comment: nothing is published again before finalize
        first_held = kinds.index("held")
        assert first_held > 226
        finalized = next(
            i for i, kind in enumerate(kinds) if kind in ("revised_released", "suspended")
        )
        assert set(kinds[first_held:finalized]) == {"held"}
        assert kinds[:first_held] == ["admitted"] * first_held

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("window", [1, 100, 500], ids=["window1", "default", "window500"])
    @pytest.mark.parametrize(
        "weights", [InfluenceWeights(), INTENSITY_ONLY], ids=["default", "intensity"]
    )
    def test_engine_matches_reference_on_storms(
        self, lexicon, emoji_lexicon, seed, window, weights
    ):
        # 200 comments at troll rate 0.6: many held at once, so nearly every
        # decision after the first holds is a screened re-test
        config = SimulationConfig(window_size=window, weights=weights)
        records, classified = storm_conversation(seed, lexicon, emoji_lexicon, config)
        engine, _ = _simulate_conversation(
            records, list(range(len(records))), classified, config, True, False
        )
        ref = reference_replay(records, classified, config, queue_enabled=True)
        assert engine.decisions == ref.decisions
        assert "held" in {kind for _, kind in engine.decisions}

    @staticmethod
    def reshaped_replay(lexicon, emoji_lexicon, troll_rate, reshape):
        """Engine and reference decisions on one 300-comment conversation
        after ``reshape`` rewrites its records."""
        config = SimulationConfig()
        spec = SyntheticSpec(
            conversations=1, comments_per_conversation=300, troll_rate=troll_rate
        )
        records = reshape(generate_synthetic(spec, 4))
        classified = [
            classify_comment(
                r.id, r.author, r.parent_id, r.created_at, r.text,
                lexicon, emoji_lexicon, config.kappa,
            )
            for r in records
        ]
        engine, _ = _simulate_conversation(
            records, list(range(len(records))), classified, config, True, False
        )
        ref = reference_replay(records, classified, config, queue_enabled=True)
        return engine.decisions, ref.decisions

    @pytest.mark.parametrize("troll_rate", [0.15, 0.6])
    def test_engine_matches_reference_on_wide_stars(self, lexicon, emoji_lexicon, troll_rate):
        # every reply targets the root: one node with 299 children
        def star(records):
            root = records[0]
            return [root] + [dataclasses.replace(r, parent_id=root.id) for r in records[1:]]

        decisions, expected = self.reshaped_replay(lexicon, emoji_lexicon, troll_rate, star)
        assert decisions == expected
        assert "held" in {kind for _, kind in decisions}

    @pytest.mark.parametrize("troll_rate", [0.15, 0.6])
    def test_engine_matches_reference_on_equal_timestamps(
        self, lexicon, emoji_lexicon, troll_rate
    ):
        # one created_at for the whole conversation: replay order falls to ids
        def same_time(records):
            return [dataclasses.replace(r, created_at=records[0].created_at) for r in records]

        decisions, expected = self.reshaped_replay(
            lexicon, emoji_lexicon, troll_rate, same_time
        )
        assert decisions == expected
        assert "held" in {kind for _, kind in decisions}


_GOVERNED_KINDS = [*GOVERNED_EMOTIONS, EmotionKind.SURPRISE]
_unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def screened_cases(draw):
    """A random tree, window, weights and regime, and one to three held
    candidates (governed or surprise) under nodes of the tree."""
    n = draw(st.integers(min_value=1, max_value=40))
    palette = [
        EmotionVector.unit(EmotionKind.ANGER),
        EmotionVector.unit(EmotionKind.JOY),
        EmotionVector((0.6, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        EmotionVector.zero(),
    ]
    vectors = st.one_of(
        st.sampled_from(palette),
        st.lists(_unit, min_size=8, max_size=8).map(EmotionVector),
        # subnormal rows, where rounding errors are absolute
        st.lists(st.integers(0, 3), min_size=8, max_size=8).map(
            lambda ks: EmotionVector(k * 5e-324 for k in ks)
        ),
    )
    held = draw(st.integers(min_value=1, max_value=3))
    comments = []
    for i in range(n + held):
        candidate = i >= n
        vector = draw(vectors.filter(lambda v: not v.is_zero) if candidate else vectors)
        parent = None
        if i:
            parent = f"n{draw(st.integers(min_value=0, max_value=min(i, n) - 1))}"
        if vector.is_zero:
            kind, intensity = None, 0.0
        else:
            kind = draw(st.sampled_from(_GOVERNED_KINDS if candidate else list(EmotionKind)))
            intensity = draw(st.floats(min_value=0.1, max_value=1.0))
        comments.append(make_comment(f"n{i}", parent, float(i), kind, intensity, vector=vector))
    raw = draw(st.sampled_from([(0.4, 0.2, 0.2, 0.2), (1.0, 0.0, 0.0, 0.0), None]))
    if raw is None:
        raw = draw(st.lists(_unit, min_size=4, max_size=4))
        if sum(raw) == 0.0:
            raw = [1.0, 0.0, 0.0, 0.0]
        raw = [part / sum(raw) for part in raw]
    weights = InfluenceWeights(*raw)
    window = draw(st.integers(min_value=1, max_value=50))
    base = draw(st.floats(min_value=30.0, max_value=90.0))
    thresholds = ThresholdConfig(base={e: base for e in GOVERNED_EMOTIONS})
    active = draw(st.booleans())
    return comments[:n], comments[n:], weights, window, thresholds, active


@st.composite
def boundary_cases(draw):
    """A ``screened_cases`` case whose effective threshold for each governed
    emotion is the first candidate's exact hypothetical share of it, moved
    by -4 to +4 ulps (no relax, tighten or decay; floor = base = ceiling).
    Emotions the candidate's board holds none of keep their defaults."""
    tree, candidates, weights, window, _, active = draw(screened_cases())
    graph = built_engine(tree, weights=weights, window_size=window).graph
    candidate = candidates[0]
    mass, total = congraph._hypothetical_mass_totals(
        graph, window, weights, candidate, candidate.parent_id
    )
    exact_shares = {}
    for e in GOVERNED_EMOTIONS:
        share = 100.0 * mass.item(EMOTION_INDEX[e]) / total if total > 0.0 else 0.0
        ulps = draw(st.integers(min_value=-4, max_value=4))
        for _ in range(abs(ulps)):
            share = math.nextafter(share, math.copysign(math.inf, ulps))
        if 0.0 < share <= 100.0:
            exact_shares[e] = share
    thresholds = ThresholdConfig(
        base=exact_shares, floor=exact_shares, ceiling=exact_shares,
        active_relax=0.0, quiet_tighten=0.0, decay_gamma=0.0,
    )
    return tree, candidates, weights, window, thresholds, active


# the cases of the two bound properties, and their example budget: 300, or
# the hypothesis profile's where it asks for more (thorough: 3,000)
bound_cases = st.one_of(screened_cases(), boundary_cases())
_BOUND_EXAMPLES = max(300, settings().max_examples)


def screen_rejections(eng: Engine, candidates) -> dict[str, list[bool]]:
    """Whether the screen rejects held entries for ``candidates`` in
    ``eng``'s graph state, per path: a one-entry batch of each, and one
    batch of all."""
    entries = [QueueEntry(c, c.parent_id, c.created_at) for c in candidates]

    def batch(group):
        eng._screen = _HeldScreen()
        eng._screen.pending.extend(group)
        mask = eng._screen_mask(group, 0)
        return [mask[eng._screen.slot[e.comment.id]] for e in group]

    return {
        "one-entry batch": [batch([e])[0] for e in entries],
        "batch": batch(entries),
    }


def watch_screens(eng: Engine, batched) -> None:
    """Call ``batched(entry, rejected)`` for each entry a screen of ``eng``
    covers."""
    mask_of = eng._screen_mask

    def watched_mask(order, start):
        mask = mask_of(order, start)
        slot = eng._screen.slot
        for entry in order[start:]:
            if entry.comment.id in slot:
                batched(entry, mask[slot[entry.comment.id]])
        return mask

    eng._screen_mask = watched_mask


class TestRetestScreen:
    """The screen only ever rejects what the exact test rejects."""

    @given(bound_cases)
    @settings(max_examples=_BOUND_EXAMPLES, deadline=None)
    def test_screen_rejection_implies_exact_rejection(self, case):
        tree, candidates, weights, window, thresholds, active = case
        eng = Engine(
            weights=weights, window_size=window, thresholds=thresholds, queue_enabled=False
        )
        for comment in tree:
            eng.submit(comment, now=comment.created_at)
        eng._act_active = active
        for path in screen_rejections(eng, candidates).values():
            for candidate, rejected in zip(candidates, path):
                if rejected:
                    assert not eng._passes(candidate, candidate.parent_id, eng.processed_count)

    @staticmethod
    def subnormal_engine():
        """The hypothetical window holds only subnormal vectors, where
        rounding errors are absolute, not relative."""
        t = 5e-324
        rows = [
            ((0.0, 0.9333812082765152, 0, 0, 0, 0.861317802669013, 0, 0),
             None, EmotionKind.SADNESS, 0.3512509889149448),
            ((0, 0, 0, 0, 0.6215139002591755, 0.13538252956813634, 0, 0),
             "n0", EmotionKind.FEAR, 0.5970854474741094),
            ((0.46043610681860825, 0, 0, 0, 0, 0, 0.8153760228794953, 0),
             "n0", EmotionKind.ANGER, 0.40019697457355974),
            ((t, t, 2 * t, t, 0, 0, 0, 2 * t), "n1", EmotionKind.FEAR, 0.45692065861076536),
            ((3 * t, t, 0, t, t, t, t, 3 * t), "n0", EmotionKind.SADNESS, 0.4917199143926062),
        ]
        comments = [
            make_comment(f"n{i}", parent, float(i), kind, intensity, vector=EmotionVector(vec))
            for i, (vec, parent, kind, intensity) in enumerate(rows)
        ]
        weights = InfluenceWeights(
            0.40520489362130613, 0.3011271267073428, 0.29366797967135094, 0.0
        )
        eng = Engine(weights=weights, window_size=2, queue_enabled=False)
        for comment in comments[:-1]:
            eng.submit(comment, now=comment.created_at)
        return eng, comments[-1]

    def test_subnormal_board_is_deferred(self):
        # without its 2**-900 floor the screen rejected this comment, which
        # the exact test admits
        eng, candidate = self.subnormal_engine()
        assert eng._passes(candidate, "n0", eng.processed_count)
        for path in screen_rejections(eng, [candidate]).values():
            assert path == [False]

    def test_screen_rejects_most_failing_storm_retests(self, lexicon, emoji_lexicon):
        config = SimulationConfig()
        records, classified = storm_conversation(3, lexicon, emoji_lexicon, config, 400)
        eng = Engine()
        outcomes = {"rejected": 0, "deferred_failing": 0, "batched": 0}

        def audit(entry, rejected):
            outcomes["batched"] += 1
            exact = eng._passes(entry.comment, entry.parent_id, eng.processed_count)
            assert not (rejected and exact)
            if rejected:
                outcomes["rejected"] += 1
            elif not exact:
                outcomes["deferred_failing"] += 1

        watch_screens(eng, audit)
        replay(eng, records, classified)
        # 581 of the 599 screened entries are rejected
        assert outcomes["rejected"] > 500
        assert outcomes["deferred_failing"] <= outcomes["rejected"] // 100
        assert outcomes["batched"] > 300

    def test_tiny_damping_screens_without_ancestors(self, lexicon, emoji_lexicon):
        # below damping 2**-53 a child bumps no ancestor: every chain is empty
        records, classified = storm_conversation(3, lexicon, emoji_lexicon, SimulationConfig())
        screened, unscreened = Engine(damping=1e-17), Engine(damping=1e-17)
        batched = []
        watch_screens(screened, lambda *screen: batched.append(1))
        unscreened._screen_mask = lambda order, start: [False] * len(unscreened._screen)
        for eng in (screened, unscreened):
            replay(eng, records, classified)
        assert screened.decisions == unscreened.decisions
        assert screened._ancestries and not any(chain for chain in screened._ancestries.values())
        assert len(batched) > 100

    def test_pass_rule(self, lexicon, emoji_lexicon):
        # the first entry of every graph state goes to the exact test, and a
        # batched screen starts only with _SCREEN_BATCH_MIN or more left
        records, classified = storm_conversation(3, lexicon, emoji_lexicon, SimulationConfig(), 400)
        screened, unscreened = _PassRuleEngine(), Engine()
        unscreened._screen_mask = lambda order, start: [False] * len(unscreened._screen)
        for eng in (screened, unscreened):
            replay(eng, records, classified)
        assert screened.decisions == unscreened.decisions
        assert screened.batches > 10
        assert screened.first_tests > 100

    def test_screen_limits_follow_the_thresholds(self):
        # a held submission moves the thresholds (here by decay) but not the
        # window: the screen reads the new limits and the same sums
        eng = Engine(thresholds=ThresholdConfig(decay_gamma=20.0, decay_scale=4))
        eng.submit(make_comment("r", None, 0.0, EmotionKind.JOY, 0.5), now=0.0)
        state = eng._window()
        eff_before = eng._effective_tuple(eng.processed_count)
        before = eng._screen_inputs(state)
        decision = eng.submit(make_comment("x", "r", 1.0, EmotionKind.ANGER, 0.9), now=1.0)
        assert decision is AdmissionDecision.HELD
        assert eng._state is state
        eff_after = eng._effective_tuple(eng.processed_count)
        assert eff_after != eff_before
        after = eng._screen_inputs(state)
        assert after[0] == before[0] and after[5] == before[5]
        for new, old in zip(after[1:4], before[1:4]):
            assert new.tobytes() == old.tobytes()
        # the board is all joy, so each limit is the slack times eff_e / 100
        assert after[4] != before[4]
        assert [limit / e for limit, e in zip(after[4], eff_after)] == pytest.approx(
            [limit / e for limit, e in zip(before[4], eff_before)], rel=1e-15
        )

    @staticmethod
    def tie_engine(vector, intensities):
        """Every comment shares ``vector`` and replies to the root, so the
        hypothetical shares equal the current ones mathematically."""
        eng = Engine()
        comments = [
            make_comment(f"n{i}", None if i == 0 else "n0", float(i), EmotionKind.ANGER,
                         intensity, vector=vector)
            for i, intensity in enumerate(intensities)
        ]
        for comment in comments[:-1]:
            assert eng.submit(comment, now=comment.created_at) is AdmissionDecision.ADMITTED
        return eng, comments[-1]

    @pytest.mark.parametrize(
        "vector, intensities",
        [
            (EmotionVector.unit(EmotionKind.ANGER), (0.5, 0.8, 0.3)),
            # this mix's screened total lands an ulp off; without the slack
            # the screen would reject a comment the exact test admits
            (EmotionVector((0.6, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)), (0.64, 0.56, 0.73)),
        ],
        ids=["anger-only", "fixed-mix"],
    )
    def test_exact_tie_is_deferred_and_admitted(self, vector, intensities):
        eng, candidate = self.tie_engine(vector, intensities)
        anger = eng.board().get(EmotionKind.ANGER)
        assert anger > effective(eng)[EmotionKind.ANGER]  # breached: the tie decides
        for path in screen_rejections(eng, [candidate]).values():
            assert path == [False]
        assert eng._passes(candidate, "n0", eng.processed_count)
        assert eng.submit(candidate, now=candidate.created_at) is AdmissionDecision.ADMITTED


def certified(eng: Engine, candidate) -> bool | None:
    """The certificate's verdict on ``candidate`` in ``eng``'s graph state
    (None where it defers to the exact test)."""
    return eng._certify(candidate, candidate.parent_id, eng.processed_count)[0]


def exact(eng: Engine, candidate) -> bool:
    return eng._exact_passes(candidate, candidate.parent_id, eng.processed_count)


def built_engine(tree, **kwargs) -> Engine:
    """A queue-less engine that has admitted ``tree`` in order."""
    eng = Engine(queue_enabled=False, **kwargs)
    for comment in tree:
        eng.submit(comment, now=comment.created_at)
    return eng


def boundary_case(rows, window: int, base: float) -> tuple:
    """A ``screened_cases`` case: a tree whose ``rows`` are (parent, intensity,
    vector), the last one the candidate, and one base threshold for every
    governed emotion."""
    comments = [
        make_comment(f"n{i}", parent, float(i), EmotionKind.ANGER, intensity,
                     vector=EmotionVector(vector))
        for i, (parent, intensity, vector) in enumerate(rows)
    ]
    thresholds = ThresholdConfig(base={e: base for e in GOVERNED_EMOTIONS})
    return comments[:-1], comments[-1:], InfluenceWeights(), window, thresholds, False


_MIX = (0.6, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
# near-boundary cases found by random search against mutated certificates,
# which certify a pass where the exact test fails: without the slack, the
# first (an exact tie, which the exact test fails by rounding); ignoring the
# moved maximum, the second (the root's second reply moves the maximum reply
# count)
_ROUNDED_TIE = boundary_case(
    [(None, 0.7398847975375811, _MIX), ("n0", 0.43566122428286946, _MIX)],
    26, 30.187183372173884,
)
_MAX_REPLIES_MOVES = boundary_case(
    [
        (None, 0.49750332665284014, (0, 0, 0, 0, 1, 0, 0, 0)),
        ("n0", 0.9279956202586183, (1, 0, 0, 0, 0, 0, 0, 0)),
        ("n0", 0.3028949025887888, _MIX),
    ],
    7, 47.42701564588154,
)


class TestCertificate:
    """Wherever the certificate decides an exact test, it decides it as the
    exact test does."""

    @given(bound_cases)
    @example(_ROUNDED_TIE)
    @example(_MAX_REPLIES_MOVES)
    @settings(max_examples=_BOUND_EXAMPLES, deadline=None)
    def test_certified_verdict_is_the_exact_verdict(self, case):
        tree, candidates, weights, window, thresholds, active = case
        eng = built_engine(tree, weights=weights, window_size=window, thresholds=thresholds)
        eng._act_active = active
        for candidate in candidates:
            verdict = certified(eng, candidate)
            expected = exact(eng, candidate)
            assert verdict in (None, expected)
            assert eng._passes(candidate, candidate.parent_id, eng.processed_count) is expected

    @staticmethod
    def angry_tree(n, chain=False):
        """A binary reply tree, or a reply chain, two thirds anger and one
        third joy."""
        kinds = [EmotionKind.ANGER, EmotionKind.ANGER, EmotionKind.JOY]
        return [
            make_comment(f"n{i}", None if i == 0 else f"n{i - 1 if chain else (i - 1) // 2}",
                         float(i), kinds[i % 3], 0.3 + 0.05 * (i % 7))
            for i in range(n)
        ]

    @staticmethod
    def assert_decides_both_ways(eng, parent_id):
        """A furious reply under ``parent_id`` is certified to fail and a
        mild one to pass, as the exact test decides them."""
        furious = make_comment("x", parent_id, 99.0, EmotionKind.ANGER, 1.0)
        mild = make_comment("y", parent_id, 99.0, EmotionKind.SADNESS, 0.1)
        assert certified(eng, furious) is exact(eng, furious) is False
        assert certified(eng, mild) is exact(eng, mild) is True

    def test_window_not_full(self):
        # the hypothetical window keeps every row
        eng = built_engine(self.angry_tree(12), window_size=50)
        assert len(eng.graph) + 1 < eng.window_size
        self.assert_decides_both_ways(eng, "n5")

    def test_full_window_drops_its_first_row(self):
        # row n30 leaves the hypothetical window: a child of it bumps no row
        # there and moves no reply count there; a child of n34 does both
        eng = built_engine(self.angry_tree(40), window_size=10)
        assert eng.graph._index["n30"] == len(eng.graph) - eng.window_size
        self.assert_decides_both_ways(eng, "n30")
        self.assert_decides_both_ways(eng, "n34")

    @pytest.mark.parametrize("window", [_CERTIFY_MAX_BUMPS + 1, _CERTIFY_MAX_BUMPS + 2])
    def test_long_chain_in_the_window(self, window):
        # the candidate's parent and its ancestors fill the hypothetical
        # window: the certificate decides up to _CERTIFY_MAX_BUMPS of them
        eng = built_engine(self.angry_tree(40, chain=True), window_size=window)
        for kind, intensity in [(EmotionKind.ANGER, 1.0), (EmotionKind.SADNESS, 0.1)]:
            candidate = make_comment("c", "n39", 99.0, kind, intensity)
            verdict, patch = eng._certify(candidate, "n39", eng.processed_count)
            assert len(patch[0]) == window - 1
            if window - 1 > _CERTIFY_MAX_BUMPS:
                assert verdict is None
            else:
                assert verdict is exact(eng, candidate)
            assert eng._passes(candidate, "n39", eng.processed_count) is exact(eng, candidate)

    @pytest.mark.parametrize(
        "vector, intensities",
        [
            (EmotionVector.unit(EmotionKind.ANGER), (0.5, 0.8, 0.3)),
            (EmotionVector((0.6, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)), (0.64, 0.56, 0.73)),
        ],
        ids=["anger-only", "fixed-mix"],
    )
    def test_exact_tie_reaches_the_exact_test(self, vector, intensities):
        eng, candidate = TestRetestScreen.tie_engine(vector, intensities)
        assert certified(eng, candidate) is None
        assert eng._passes(candidate, "n0", eng.processed_count)

    def test_first_reply_moves_max_replies_from_zero(self):
        # the only row gains the first reply, and the maximum weight moves
        # from 1 to 1 + damping
        eng = built_engine([make_comment("r", None, 0.0, EmotionKind.JOY, 0.1)])
        assert eng.graph._max_replies == 0
        self.assert_decides_both_ways(eng, "r")

    def test_parent_becomes_the_max_reply_holder(self):
        # "a0" holds 2 replies, as many as the root; a third makes it the
        # only holder of the maximum, which moves from 2 to 3
        kinds = [EmotionKind.ANGER, EmotionKind.TRUST, EmotionKind.ANGER, EmotionKind.FEAR]
        tree = [make_comment("r", None, 0.0, EmotionKind.JOY, 0.6)]
        for i, parent in enumerate(["r", "r", "a0", "a0"]):
            tree.append(make_comment(f"a{i}", parent, 1.0 + i, kinds[i], 0.4))
        eng = built_engine(tree)
        assert eng.graph._max_replies == 2
        candidate = make_comment("c", "a0", 9.0, EmotionKind.ANGER, 1.0)
        assert eng._certify(candidate, "a0", eng.processed_count)[1][3] == 3
        self.assert_decides_both_ways(eng, "a0")

    def test_zero_total_window_decides_both_ways(self):
        # nothing in the window carries emotion, so the candidate's own mass
        # is the whole board it would make: all anger fails, a fifth passes
        tree = [make_comment("r", None, 0.0)] + [
            make_comment(f"n{i}", "r", float(i), None) for i in range(1, 4)
        ]
        eng = built_engine(tree)
        assert eng._window().total == 0.0
        furious = make_comment("x", "n1", 9.0, EmotionKind.ANGER, 0.7)
        mixed = EmotionVector.from_dict({"anger": 0.2, "joy": 0.8})
        mild = make_comment("y", "n1", 9.0, EmotionKind.ANGER, 0.7, vector=mixed)
        assert certified(eng, furious) is exact(eng, furious) is False
        assert certified(eng, mild) is exact(eng, mild) is True

    def test_subnormal_board_reaches_the_exact_test(self):
        eng, candidate = TestRetestScreen.subnormal_engine()
        assert certified(eng, candidate) is None
        assert exact(eng, candidate)
        assert eng._passes(candidate, "n0", eng.processed_count)

    @staticmethod
    def certified_count(records, classified) -> tuple[int, int]:
        """How many of one conversation's exact tests, at submit, in passes
        and at finalize, the certificate decides, each as ``_exact_passes``
        does, and how many there are."""
        eng = Engine()
        tally = {"tests": 0, "decided": 0}
        certify = eng._certify

        def audited(comment, parent_id, processed):
            verdict, patch = certify(comment, parent_id, processed)
            tally["tests"] += 1
            if verdict is not None:
                tally["decided"] += 1
                assert verdict is eng._exact_passes(comment, parent_id, processed)
            return verdict, patch

        eng._certify = audited
        replay(eng, records, classified)
        return tally["decided"], tally["tests"]

    def test_certificate_decides_most_storm_tests(self, lexicon, emoji_lexicon):
        # all 815 exact tests of this storm conversation are decided
        conversation = storm_conversation(3, lexicon, emoji_lexicon, SimulationConfig(), 400)
        decided, tests = self.certified_count(*conversation)
        assert tests > 700
        assert decided >= 0.8 * tests

    def test_certificate_decides_calibrated_tests(self, lexicon, emoji_lexicon):
        # one conversation of the calibrated shape (200 comments, troll rate
        # 0.15): all 121 of its exact tests are decided
        config = SimulationConfig()
        conversation = storm_conversation(4, lexicon, emoji_lexicon, config, troll_rate=0.15)
        decided, tests = self.certified_count(*conversation)
        assert tests > 100
        assert decided >= 0.99 * tests


class _PassRuleEngine(Engine):
    """Checks, at every batched screen, that the pass has already sent an
    entry of the graph state to the exact test and that the screen covers
    at least ``_SCREEN_BATCH_MIN`` entries."""

    batches = first_tests = 0
    in_pass = False
    tested = False  # an entry of this pass and graph state went to the exact test

    def _admit(self, *args):
        super()._admit(*args)
        self.tested = False

    def requeue_scan(self, now):
        return self._pass(super().requeue_scan, now)

    def finalize(self, now):
        return self._pass(super().finalize, now)

    def _pass(self, run, now):
        self.in_pass, self.tested = True, False
        try:
            return run(now)
        finally:
            self.in_pass = False

    def _passes(self, comment, parent_id, processed):
        if self.in_pass and _may_hold(comment) and not self.tested:
            self.first_tests += 1
        self.tested = True
        return super()._passes(comment, parent_id, processed)

    def _screen_mask(self, order, start):
        assert self.tested
        assert len(order) - start >= _SCREEN_BATCH_MIN
        self.batches += 1
        return super()._screen_mask(order, start)


class _BoardAuditEngine(Engine):
    """Checks the cached board against a fresh one after every operation."""

    def _audit(self) -> None:
        if self.graph is not None:
            fresh = congraph.board(self.graph, self.window_size, self.weights)
            assert self.board() == fresh
            if self.log_decisions:
                (line,) = decision_lines(self.decision_log[-1:])
                logged = json.loads(line)["board_after"]
                assert logged == {k: round(v, 6) for k, v in fresh.as_dict().items()}

    def submit(self, *args, **kwargs):
        decision = super().submit(*args, **kwargs)
        self._audit()
        return decision

    def requeue_scan(self, now):
        released = super().requeue_scan(now)
        self._audit()
        return released

    def finalize(self, now):
        outcomes = super().finalize(now)
        self._audit()
        return outcomes


class TestWindowCache:
    @pytest.mark.parametrize("window", [1, 100], ids=["window1", "default"])
    def test_cached_board_matches_fresh_board(self, lexicon, emoji_lexicon, monkeypatch, window):
        # a short idle timeout adds mid-stream finalize passes
        config = SimulationConfig(window_size=window, idle_timeout=30.0)
        records, classified = storm_conversation(1, lexicon, emoji_lexicon, config, 300)
        tags = list(range(len(records)))
        monkeypatch.setattr(harness, "Engine", _BoardAuditEngine)
        logged, _ = _simulate_conversation(records, tags, classified, config, True, True)
        unlogged, _ = _simulate_conversation(records, tags, classified, config, True, False)
        assert logged.decisions == unlogged.decisions
        kinds = {kind for _, kind in logged.decisions}
        assert {"held", "suspended"} <= kinds
        if window > 1:
            assert "released" in kinds


def scratch_influence(w, intensity, weight, depth, log_replies, max_weight, max_replies):
    """The influence formula computed from intensity and depth in the order
    the graph's stored row terms must reproduce."""
    infl = w.intensity * intensity
    infl += weight * (w.pagerank / max_weight)
    infl += w.depth / (1.0 + depth)
    if max_replies > 0:
        infl += log_replies * (w.replies / math.log2(1.0 + max_replies))
    return infl


def scratch_window_mass(graph, window, w) -> np.ndarray:
    n = len(graph)
    start = max(0, n - window)
    sl = slice(start, n)
    infl = scratch_influence(
        w, graph._intensity[sl], np.array(graph._weight[start:]), graph._depth[sl],
        graph._log_replies[sl], graph._max_weight, graph._max_replies,
    )
    return infl @ graph._vectors[sl]


def scratch_candidate_influence(graph, w, candidate, parent_idx, max_weight):
    depth = graph._depth[parent_idx] + 1.0
    return scratch_influence(w, candidate.intensity, 1.0, depth, 0.0, max_weight, 0)


def scratch_hypothetical_mass(graph, window, w, candidate, parent_id) -> np.ndarray:
    parent_idx = graph._index[parent_id]
    n = len(graph)
    start = max(0, n + 1 - window)
    sl = slice(start, n)
    bumps, max_weight, parent_replies, max_replies = congraph._admission_patch(
        graph, parent_idx, start
    )
    weight = np.array(graph._weight[start:])
    for idx, delta in zip(bumps, graph._powers):
        weight[idx - start] = graph._weight[idx] + delta
    log_replies = graph._log_replies[sl].copy()
    if parent_idx >= start:
        log_replies[parent_idx - start] = math.log2(1.0 + parent_replies)
    infl = scratch_influence(
        w, graph._intensity[sl], weight, graph._depth[sl], log_replies, max_weight, max_replies
    )
    cand = scratch_candidate_influence(graph, w, candidate, parent_idx, max_weight)
    return infl @ graph._vectors[sl] + cand * np.asarray(candidate.vector)


class _ScratchAuditEngine(Engine):
    """Checks every current and hypothetical mass the engine reads against
    the scratch formula, byte for byte."""

    hypotheticals = 0

    def _passes(self, comment, parent_id, processed):
        if _may_hold(comment):
            graph = self.graph
            state = self._window()
            mass, _ = congraph._hypothetical_mass_totals(
                graph, self.window_size, self.weights, comment, parent_id,
                self._hypothetical_weights(state), self._ancestry(graph._index[parent_id]),
            )
            expected = scratch_hypothetical_mass(
                graph, self.window_size, self.weights, comment, parent_id
            )
            assert mass.tobytes() == expected.tobytes()
            self.hypotheticals += 1
        return super()._passes(comment, parent_id, processed)

    def _admit(self, comment, parent_id, now, kind):
        super()._admit(comment, parent_id, now, kind)
        mass, _ = self._current_masses()
        expected = scratch_window_mass(self.graph, self.window_size, self.weights)
        assert mass.tobytes() == expected.tobytes()


class TestStoredRowTerms:
    """Masses built from the row terms the graph stores at admission equal
    the scratch formula from intensity and depth, byte for byte."""

    @given(screened_cases())
    @settings(max_examples=200, deadline=None)
    def test_window_hypothetical_and_candidate_masses(self, case):
        tree, candidates, weights, window, _, _ = case
        stored = congraph.ConversationGraph(tree[0], weights=weights)
        computed = congraph.ConversationGraph(tree[0])  # other weights: terms computed
        for comment in tree[1:]:
            stored.add(comment)
            computed.add(comment)
        expected = scratch_window_mass(stored, window, weights).tobytes()
        for graph in (stored, computed):
            assert congraph._window_mass_totals(graph, window, weights)[0].tobytes() == expected
        for candidate in candidates:
            expected = scratch_hypothetical_mass(
                stored, window, weights, candidate, candidate.parent_id
            ).tobytes()
            for graph in (stored, computed):
                mass, _ = congraph._hypothetical_mass_totals(
                    graph, window, weights, candidate, candidate.parent_id
                )
                assert mass.tobytes() == expected
        candidate = candidates[0]
        parent_idx = stored._index[candidate.parent_id]
        _, max_weight, _, _ = congraph._admission_patch(stored, parent_idx, 0)
        cand = congraph._candidate_influence(
            stored, weights, candidate.intensity, parent_idx, max_weight
        )
        assert cand == scratch_candidate_influence(
            stored, weights, candidate, parent_idx, max_weight
        )
        stored.add(candidate)
        assert congraph.node_influence(stored, candidate.id, weights) == cand

    @pytest.mark.parametrize("window", [1, 5, 100], ids=["window1", "window5", "partly-filled"])
    def test_root_only_and_partly_filled_windows(self, window):
        # a root alone has no replies anywhere (max_replies == 0); a window
        # wider than the graph reads every row
        weights = InfluenceWeights(0.3, 0.3, 0.2, 0.2)
        root = make_comment("r", None, 0.0, EmotionKind.ANGER, 0.7)
        graph = congraph.ConversationGraph(root, weights=weights)
        assert graph._max_replies == 0
        for i in range(4):
            mass, _ = congraph._window_mass_totals(graph, window, weights)
            assert mass.tobytes() == scratch_window_mass(graph, window, weights).tobytes()
            candidate = make_comment(f"c{i}", "r", i + 1.0, EmotionKind.FEAR, 0.4)
            mass, _ = congraph._hypothetical_mass_totals(graph, window, weights, candidate, "r")
            expected = scratch_hypothetical_mass(graph, window, weights, candidate, "r")
            assert mass.tobytes() == expected.tobytes()
            graph.add(candidate)

    @pytest.mark.parametrize(
        "seed, weights", [(2, InfluenceWeights()), (15, InfluenceWeights(0.3, 0.3, 0.2, 0.2))],
        ids=["default", "mixed"],
    )
    def test_engine_masses_through_a_storm_and_its_finalize(
        self, lexicon, emoji_lexicon, seed, weights
    ):
        # storms whose finalize releases revised entries
        records, classified = storm_conversation(
            seed, lexicon, emoji_lexicon, SimulationConfig()
        )
        eng = _ScratchAuditEngine(weights=weights)
        replay(eng, records, classified)
        revised = [
            e for e in eng.entries.values() if e.revised and e.status is QueueStatus.RELEASED
        ]
        # a revised release is admitted with its halved intensity, and is
        # among the last rows, inside the window the last audit read
        assert revised and eng.hypotheticals > 0
        for entry in revised:
            idx = eng.graph._index[entry.comment.id]
            assert eng.graph._intensity[idx] == entry.comment.intensity
            assert idx >= len(eng.graph) - eng.window_size


class TestSortedGapRing:
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 59.0, 60.0, 61.0, 300.0]),
                st.floats(min_value=0.0, max_value=500.0),
            ),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from([0.0, 1.0, 60.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_regime_matches_sorting_the_gaps(self, steps, cutoff):
        eng = Engine(activity_cutoff=cutoff)
        times: list[float] = []
        active = False
        now = 0.0
        for step in steps:
            now += step
            times.append(now)
            eng._push_admission_time(now)
            ring = times[-ACTIVITY_RING:]
            ordered = sorted(b - a for a, b in zip(ring, ring[1:]))
            assert eng._act_gaps == ordered
            if len(ring) == ACTIVITY_RING:  # before the ring fills, the regime stays quiet
                active = ordered[len(ordered) // 2] < cutoff
            assert eng._act_active == active

    @pytest.mark.parametrize("now", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, now):
        eng = Engine()
        with pytest.raises(ClockError):
            eng.submit(make_comment("r", None, 0.0), now=now)
        assert eng.processed_count == 0


def formula_thresholds(cfg: ThresholdConfig, processed: int, active: bool):
    adjust = cfg.active_relax if active else -cfg.quiet_tighten
    decay = cfg.decay_gamma * min(1.0, processed / cfg.decay_scale)
    return tuple(
        min(cfg.ceiling[e], max(cfg.floor[e], cfg.base[e] + adjust - decay))
        for e in GOVERNED_EMOTIONS
    )


class TestThresholdTable:
    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=30.0, max_value=90.0),
        st.lists(st.integers(min_value=0, max_value=120), min_size=1, max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_table_equals_the_formula(self, scale, gamma, relax, tighten, base, processed):
        cfg = ThresholdConfig(
            base={e: base for e in GOVERNED_EMOTIONS}, active_relax=relax,
            quiet_tighten=tighten, decay_gamma=gamma, decay_scale=scale,
        )
        eng = Engine(thresholds=cfg)
        for count in processed:  # below, at and above decay_scale
            for active in (False, True):
                eng._act_active = active
                assert eng._effective_tuple(count) == formula_thresholds(cfg, count, active)
        assert len(cfg._effective) <= 2 * (scale + 1)

    def test_engines_share_one_table_per_config(self):
        slow, fast = ThresholdConfig(decay_gamma=5.0), ThresholdConfig(decay_gamma=10.0)
        engines = [Engine(thresholds=cfg) for cfg in (slow, fast, slow)]
        for count in (0, 3, 500, 1000, 4000, 3):
            for eng in engines:
                assert eng._effective_tuple(count) == formula_thresholds(
                    eng.thresholds, count, False
                )
        assert slow._effective is not fast._effective
        assert engines[0]._effective_tuple(3) is engines[2]._effective_tuple(3)
        assert engines[0]._effective_tuple(3) != engines[1]._effective_tuple(3)
        # the config's equality and hash input ignore the table
        assert slow == ThresholdConfig(decay_gamma=5.0)
        assert "_effective" not in dataclasses.asdict(slow)

    def test_table_stays_bounded(self):
        cfg = ThresholdConfig(decay_scale=10**9)
        eng = Engine(thresholds=cfg)
        for count in range(0, 3 * _THRESHOLD_TABLE_MAX, 7):
            assert eng._effective_tuple(count) == formula_thresholds(cfg, count, False)
            assert len(cfg._effective) <= _THRESHOLD_TABLE_MAX
