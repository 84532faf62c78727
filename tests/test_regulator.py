from __future__ import annotations

import numpy as np
import pytest

from emoqueue.congraph import StructuralError
from emoqueue.emolex import EmotionKind
from emoqueue.harness import SimulationConfig, generate_synthetic, SyntheticSpec
from emoqueue.harness import _simulate_conversation  # tested via its public callers too
from emoqueue.ingest import partition_conversations
from emoqueue.regulator import (
    AdmissionDecision,
    ClockError,
    Engine,
    QueueStatus,
    RegulatorError,
    ThresholdConfig,
    UnknownParentError,
)
from emoqueue.emolex import classify_comment

from helpers import INTENSITY_ONLY, make_comment, no_decay_thresholds
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


def logged_activity(eng: Engine) -> str:
    return eng.decision_log[-1]["activity"]


def intensity_engine(**kwargs) -> Engine:
    kwargs.setdefault("weights", INTENSITY_ONLY)
    return Engine(**kwargs)


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


class TestEffectiveThresholds:
    def test_quiet_at_start(self):
        eff = Engine().effective()
        assert eff[EmotionKind.ANGER] == 45.0
        assert eff[EmotionKind.FEAR] == 55.0

    def test_active_relaxes(self):
        eff = active_engine(thresholds=no_decay_thresholds()).effective()
        assert eff[EmotionKind.ANGER] == 60.0
        assert eff[EmotionKind.FEAR] == 70.0

    def test_decay_saturates(self):
        # decay_scale=1 saturates the decay from the first processed comment
        eng = active_engine(thresholds=ThresholdConfig(decay_scale=1))
        assert eng.effective()[EmotionKind.ANGER] == 55.0

    def test_floor_clamps(self):
        eng = joy_engine([0.0], thresholds=ThresholdConfig(decay_gamma=30.0, decay_scale=1))
        assert eng.effective()[EmotionKind.ANGER] == 30.0

    def test_only_governed_emotions_present(self):
        assert set(Engine().effective()) == {
            EmotionKind.ANGER,
            EmotionKind.FEAR,
            EmotionKind.DISGUST,
            EmotionKind.SADNESS,
        }


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
        assert eng.decision_log == expected


class TestIdleTimeout:
    def test_idle_gap_finalizes_mid_stream(self, lexicon, emoji_lexicon):
        from emoqueue.harness import SimulationConfig as Config
        from helpers import make_record

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
        outcome = _simulate_conversation(records, [0, 1, 2], classified, config, True, False)
        # the held anger comment resolves at the idle finalize (t=610),
        # not at stream end; the late neutral comment still admits
        decisions = dict(outcome.decisions)
        assert decisions["late"] == "admitted"
        assert decisions["x"] in ("revised_released", "suspended")
        assert outcome.durations == [600.0]


class TestDecisionLog:
    def test_log_records_shape(self):
        eng = intensity_engine(log_decisions=True)
        eng.submit(make_comment("r", None, 0.0, EmotionKind.JOY, 0.35), now=0.0)
        eng.submit(make_comment("x", "r", 1.0, EmotionKind.ANGER, 0.65), now=1.0)
        eng.submit(make_comment("j", "r", 2.0, EmotionKind.JOY, 0.9), now=2.0)
        eng.finalize(9.0)
        log = eng.decision_log
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
                outcome = _simulate_conversation(group, tags, classified, config, True, False)
                ref = reference_replay(group, classified, config, queue_enabled=True)
                if outcome.decisions != ref.decisions:
                    mismatches += 1
        assert mismatches == 0
