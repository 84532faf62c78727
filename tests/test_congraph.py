from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from emoqueue.congraph import (
    ConversationGraph,
    InfluenceWeights,
    StructuralError,
    UnknownNodeError,
    _admission_patch,
    _candidate_influence,
    board,
    build_graph,
    hypothetical_board,
    node_influence,
    pagerank,
    prune_influential_toxic,
)
from emoqueue.emolex import EmotionKind

from helpers import INTENSITY_ONLY, make_comment
from reference import oracle_pagerank_power, oracle_pagerank_solve, subtree_shapes

GOLDEN = Path(__file__).parent / "data" / "golden_snapshot.json"


def chain_graph():
    return build_graph(
        [
            make_comment("A", None, 0.0, EmotionKind.JOY, 0.5),
            make_comment("B", "A", 1.0, EmotionKind.ANGER, 1.0),
            make_comment("C", "B", 2.0, EmotionKind.FEAR, 0.2),
        ]
    )


def random_tree_comments(rng: np.random.Generator, n: int):
    kinds = list(EmotionKind)
    comments = [make_comment("n0", None, 0.0, EmotionKind.JOY, 0.5)]
    for i in range(1, n):
        parent = f"n{int(rng.integers(0, i))}"
        if rng.random() < 0.25:
            comments.append(make_comment(f"n{i}", parent, float(i)))
        else:
            kind = kinds[int(rng.integers(0, 8))]
            intensity = round(float(rng.uniform(0.1, 1.0)), 3)
            comments.append(make_comment(f"n{i}", parent, float(i), kind, intensity))
    return comments


class TestBuildGraph:
    def test_chain_depths_and_replies(self):
        g = chain_graph()
        assert [g.depth_of(i) for i in "ABC"] == [0, 1, 2]
        assert [g.reply_count_of(i) for i in "ABC"] == [1, 1, 0]

    def test_star_reply_count(self):
        g = build_graph(
            [
                make_comment("A", None, 0.0),
                make_comment("B", "A", 1.0),
                make_comment("C", "A", 2.0),
            ]
        )
        assert g.reply_count_of("A") == 2
        assert g.depth_of("B") == g.depth_of("C") == 1

    def test_orphan_reattached_to_root(self):
        g = build_graph(
            [
                make_comment("A", None, 0.0),
                make_comment("B", "Z", 1.0),
            ]
        )
        assert g.parent_of("B") == "A"
        assert g.orphan_count == 1

    def test_zero_roots_rejected(self):
        with pytest.raises(StructuralError):
            build_graph([make_comment("A", "B", 0.0), make_comment("B", "A", 1.0)])

    def test_multiple_roots_rejected(self):
        with pytest.raises(StructuralError):
            build_graph([make_comment("A", None, 0.0), make_comment("B", None, 1.0)])

    def test_cycle_rejected(self):
        with pytest.raises(StructuralError):
            build_graph(
                [
                    make_comment("A", None, 0.0),
                    make_comment("B", "C", 1.0),
                    make_comment("C", "B", 2.0),
                ]
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(StructuralError):
            build_graph([make_comment("A", None, 0.0), make_comment("A", "A", 1.0)])

    def test_out_of_order_child_deferred(self):
        g = build_graph(
            [
                make_comment("A", None, 5.0),
                make_comment("B", "A", 1.0),  # earlier timestamp than its parent
            ]
        )
        assert g.ids() == ["A", "B"]

    def test_add_increments_only_parent_reply_count(self):
        rng = np.random.default_rng(7)
        comments = random_tree_comments(rng, 30)
        g = ConversationGraph(comments[0])
        for comment in comments[1:]:
            before = {i: g.reply_count_of(i) for i in g.ids()}
            g.add(comment)
            after = {i: g.reply_count_of(i) for i in g.ids() if i != comment.id}
            for node_id, count in after.items():
                expected = before[node_id] + (1 if node_id == comment.parent_id else 0)
                assert count == expected
            assert g.reply_count_of(comment.id) == 0


class TestPageRank:
    def test_single_root(self):
        g = build_graph([make_comment("A", None, 0.0)])
        result = pagerank(g)
        assert result.scores == {"A": 1.0}
        assert result.converged

    def test_chain_ordering(self):
        g = chain_graph()
        scores = pagerank(g).scores
        assert scores["A"] > scores["B"] > scores["C"]

    def test_star_symmetry(self):
        g = build_graph(
            [
                make_comment("A", None, 0.0),
                make_comment("B", "A", 1.0),
                make_comment("C", "A", 2.0),
                make_comment("D", "A", 3.0),
            ]
        )
        scores = pagerank(g).scores
        assert scores["B"] == pytest.approx(scores["C"], abs=1e-15)
        assert scores["C"] == pytest.approx(scores["D"], abs=1e-15)

    def test_matches_dense_power_iteration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            g = build_graph(random_tree_comments(rng, n))
            parents = [-1] + [g.ids().index(g.parent_of(i)) for i in g.ids()[1:]]
            engine = pagerank(g, tol=1e-12, max_iter=2000)
            oracle, converged, _ = oracle_pagerank_power(parents, tol=1e-12, max_iter=2000)
            assert converged and engine.converged
            for i, node_id in enumerate(g.ids()):
                assert engine.scores[node_id] == pytest.approx(oracle[i], abs=1e-10)

    def test_cached_shares_match_linear_solve_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            g = build_graph(random_tree_comments(rng, n))
            parents = [-1] + [g.ids().index(g.parent_of(i)) for i in g.ids()[1:]]
            exact = oracle_pagerank_solve(parents)
            shares = g.pagerank_shares()
            assert np.abs(shares - exact).max() < 1e-12
            assert abs(shares.sum() - 1.0) < 1e-12

    def test_same_subtree_shape_same_score(self):
        # the reference replay gives nodes of one subtree shape one score
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            parents = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
            exact = oracle_pagerank_solve(parents)
            shapes = subtree_shapes(parents)
            assert all(shapes[shapes[i]] == shapes[i] <= i for i in range(n))
            assert np.abs(exact - exact[shapes]).max() <= 1e-15 * exact.max()
            # every leaf has one shape
            leaves = set(range(n)) - set(parents)
            assert len({shapes[i] for i in leaves}) == 1

    def test_scores_sum_to_one(self):
        g = chain_graph()
        assert sum(pagerank(g).scores.values()) == pytest.approx(1.0, abs=1e-8)

    def test_unconverged_flag(self):
        g = chain_graph()
        result = pagerank(g, max_iter=1, tol=1e-15)
        assert not result.converged
        assert result.iterations == 1


class TestInfluence:
    def test_chain_fixture_values(self):
        # expected values from the influence formula with oracle PageRank shares
        g = chain_graph()
        parents = [-1, 0, 1]
        pr = oracle_pagerank_solve(parents)
        max_pr = pr.max()
        expected = {
            "A": 0.4 * 0.5 + 0.2 * (pr[0] / max_pr) + 0.2 * 1.0 + 0.2 * 1.0,
            "B": 0.4 * 1.0 + 0.2 * (pr[1] / max_pr) + 0.2 * 0.5 + 0.2 * 1.0,
            "C": 0.4 * 0.2 + 0.2 * (pr[2] / max_pr) + 0.2 / 3.0,
        }
        for node_id, value in expected.items():
            assert node_influence(g, node_id) == pytest.approx(value, abs=1e-12)
        # frozen literals
        assert node_influence(g, "A") == pytest.approx(0.8, abs=1e-9)
        assert node_influence(g, "B") == pytest.approx(0.8438290, abs=1e-6)
        assert node_influence(g, "C") == pytest.approx(0.2244121, abs=1e-6)

    def test_root_with_all_maxima_reaches_one(self):
        g = build_graph(
            [
                make_comment("A", None, 0.0, EmotionKind.ANGER, 1.0),
                make_comment("B", "A", 1.0),
            ]
        )
        assert node_influence(g, "A") == pytest.approx(1.0, abs=1e-12)

    def test_neutral_leaf_terms(self):
        g = build_graph(
            [
                make_comment("A", None, 0.0, EmotionKind.JOY, 0.8),
                make_comment("B", "A", 1.0),
            ]
        )
        shares = g.pagerank_shares()
        # leaf replies term is 0; intensity term is 0; only pagerank + depth remain
        expected = 0.2 * (shares[1] / shares.max()) + 0.2 * 0.5
        assert node_influence(g, "B") == pytest.approx(expected, abs=1e-12)

    def test_influence_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            g = build_graph(random_tree_comments(rng, n))
            raw = rng.dirichlet(np.ones(4))
            weights = InfluenceWeights(*[float(x) for x in raw])
            for node_id in g.ids():
                value = node_influence(g, node_id, weights)
                assert 0.0 <= value <= 1.0

    def test_unknown_node_raises(self):
        with pytest.raises(UnknownNodeError):
            node_influence(chain_graph(), "nope")

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            InfluenceWeights(0.5, 0.5, 0.5, 0.5)


class TestBoard:
    def test_single_anger_node(self):
        g = build_graph([make_comment("A", None, 0.0, EmotionKind.ANGER, 0.7)])
        brd = board(g, 100)
        assert brd.get(EmotionKind.ANGER) == pytest.approx(100.0)
        assert brd.contributing == 1

    def test_all_neutral_window(self):
        g = build_graph([make_comment("A", None, 0.0), make_comment("B", "A", 1.0)])
        brd = board(g, 100)
        assert brd.is_zero
        assert brd.contributing == 0

    def test_two_equal_influence_split(self):
        g = build_graph(
            [
                make_comment("A", None, 0.0, EmotionKind.ANGER, 0.6),
                make_comment("B", "A", 1.0, EmotionKind.JOY, 0.6),
            ]
        )
        brd = board(g, 100, INTENSITY_ONLY)
        assert brd.get(EmotionKind.ANGER) == pytest.approx(50.0, abs=1e-9)
        assert brd.get(EmotionKind.JOY) == pytest.approx(50.0, abs=1e-9)

    def test_percentages_sum_to_100_or_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            g = build_graph(random_tree_comments(rng, n))
            window = int(rng.integers(1, 70))
            brd = board(g, window)
            total = sum(brd.percentages)
            assert total == pytest.approx(100.0, abs=1e-6) or brd.is_zero
            assert all(p >= 0 for p in brd.percentages)

    def test_window_scopes_the_board(self):
        comments = [make_comment("A", None, 0.0, EmotionKind.ANGER, 1.0)]
        comments += [
            make_comment(f"J{i}", "A", float(i + 1), EmotionKind.JOY, 1.0)
            for i in range(3)
        ]
        g = build_graph(comments)
        # window of 3 excludes the anger root entirely
        brd = board(g, 3, INTENSITY_ONLY)
        assert brd.get(EmotionKind.ANGER) == 0.0
        assert brd.get(EmotionKind.JOY) == pytest.approx(100.0)

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected(self, window):
        g = chain_graph()
        with pytest.raises(ValueError):
            board(g, window)
        with pytest.raises(ValueError):
            hypothetical_board(g, window, InfluenceWeights(), make_comment("X", "A", 9.0), "A")


class TestHypotheticalBoard:
    def test_neutral_candidate_identical_board(self):
        # a zero-vector candidate adds no mass; with the engagement-coupled
        # terms (pagerank, replies) weighted 0 the board is exactly unchanged
        decoupled = InfluenceWeights(intensity=0.6, pagerank=0.0, depth=0.4, replies=0.0)
        g = chain_graph()
        hyp = hypothetical_board(g, 100, decoupled, make_comment("X", "A", 9.0), "A")
        cur = board(g, 100, decoupled)
        for h, c in zip(hyp.percentages, cur.percentages):
            assert h == pytest.approx(c, abs=1e-12)

    def test_neutral_candidate_consistent_with_real_admission(self):
        # under coupled weights the refreshed metrics shift the board; the
        # hypothetical must still equal what admitting the candidate yields
        g = chain_graph()
        cand = make_comment("X", "A", 9.0)
        hyp = hypothetical_board(g, 100, InfluenceWeights(), cand, "A")
        g.add(cand)
        real = board(g, 100)
        for h, r in zip(hyp.percentages, real.percentages):
            assert h == pytest.approx(r, abs=1e-9)

    def test_symmetric_split_against_single_joy_node(self):
        g = build_graph([make_comment("A", None, 0.0, EmotionKind.JOY, 0.6)])
        cand = make_comment("X", "A", 1.0, EmotionKind.ANGER, 0.6)
        hyp = hypothetical_board(g, 100, INTENSITY_ONLY, cand, "A")
        assert hyp.get(EmotionKind.ANGER) == pytest.approx(50.0, abs=1e-9)

    def test_high_intensity_reply_under_root_pushes_anger_to_65(self):
        # an anger reply directly under the root lifts the board to a 65% breach
        g = build_graph([make_comment("A", None, 0.0, EmotionKind.JOY, 0.35)])
        cand = make_comment("X", "A", 1.0, EmotionKind.ANGER, 0.65)
        hyp = hypothetical_board(g, 100, INTENSITY_ONLY, cand, "A")
        assert hyp.get(EmotionKind.ANGER) == pytest.approx(65.0, abs=1e-9)

    def test_never_mutates_state(self):
        g = chain_graph()
        before = board(g, 100)
        cand = make_comment("X", "B", 9.0, EmotionKind.SADNESS, 0.9)
        hypothetical_board(g, 100, InfluenceWeights(), cand, "B")
        after = board(g, 100)
        assert before.percentages == after.percentages  # bit-identical

    def test_unknown_parent_raises(self):
        with pytest.raises(UnknownNodeError):
            hypothetical_board(
                chain_graph(), 100, InfluenceWeights(), make_comment("X", "Q", 9.0), "Q"
            )

    def test_matches_realized_admission(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            comments = random_tree_comments(rng, n + 1)
            g = build_graph(comments[:-1]) if n > 0 else None
            g = build_graph(comments[:-1])
            cand = comments[-1]
            window = int(rng.integers(1, 50))
            hyp = hypothetical_board(g, window, InfluenceWeights(), cand, cand.parent_id)
            g.add(cand)
            real = board(g, window, InfluenceWeights())
            for h, r in zip(hyp.percentages, real.percentages):
                assert h == pytest.approx(r, abs=1e-9)


def deep_tree_comments(rng: np.random.Generator, n: int):
    """Mostly a chain, with side branches off the last 10 nodes."""
    kinds = list(EmotionKind)
    comments = [make_comment("n0", None, 0.0, EmotionKind.JOY, 0.5)]
    for i in range(1, n):
        back = 1 if rng.random() < 0.9 else int(rng.integers(1, min(i, 10) + 1))
        kind = kinds[int(rng.integers(0, 8))]
        intensity = round(float(rng.uniform(0.1, 1.0)), 3)
        comments.append(make_comment(f"n{i}", f"n{i - back}", float(i), kind, intensity))
    return comments


def unbounded_weights(parents: list[int], damping: float = 0.85) -> tuple[np.ndarray, float]:
    """Incremental PageRank weights walking every ancestor, in the same
    arithmetic order as ConversationGraph; parents[i] < i, -1 for the root."""
    weight = np.zeros(len(parents))
    max_weight = 1.0
    for idx, parent in enumerate(parents):
        weight[idx] = 1.0
        delta = damping
        anc = parent
        while anc >= 0:
            weight[anc] = weight[anc] + delta
            if weight[anc] > max_weight:
                max_weight = weight[anc]
            delta *= damping
            anc = parents[anc]
    return weight, max_weight


def wide_star_comments():
    """A hub under the root takes 9 replies, then 300 replies go to the root."""
    comments = [make_comment("n0", None, 0.0), make_comment("hub", "n0", 1.0)]
    comments += [make_comment(f"h{i}", "hub", 2.0 + i) for i in range(9)]
    comments += [make_comment(f"s{i}", "n0", 20.0 + i) for i in range(300)]
    return comments


class TestBoundedAncestorWalk:
    """Admission stops walking ancestors once damping**k < 2**-53; every
    skipped add is a floating-point no-op, so weights stay bit-identical."""

    @staticmethod
    def admit_all(comments):
        g = ConversationGraph(comments[0])
        for c in comments[1:]:
            g.add(c)
        parents = [-1] + [g._index[c.parent_id] for c in comments[1:]]
        return g, parents

    def test_deep_chain_weights_bit_identical(self):
        comments = [make_comment("n0", None, 0.0)] + [
            make_comment(f"n{i}", f"n{i - 1}", float(i)) for i in range(1, 2000)
        ]
        g, parents = self.admit_all(comments)
        weight, max_weight = unbounded_weights(parents)
        assert g.depth_of("n1999") == 1999
        assert np.array_equal(g._weight[: len(g)], weight)
        assert g._max_weight == max_weight

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_deep_random_tree_weights_bit_identical(self, seed):
        comments = deep_tree_comments(np.random.default_rng([29, seed]), 800)
        g, parents = self.admit_all(comments)
        weight, max_weight = unbounded_weights(parents)
        assert max(g.depth_of(c.id) for c in comments) > 226
        assert np.array_equal(g._weight[: len(g)], weight)
        assert g._max_weight == max_weight

    def test_wide_star_max_weight_moves_off_root(self):
        # a hub under the root takes 9 replies, so for a while it outweighs
        # the root (1 + 0.85 * 7 > 1 + 0.85 * (1 + 0.85 * 7)); then the star
        # widens under the root until the root is the heaviest again
        comments = wide_star_comments()
        g = ConversationGraph(comments[0])
        parents = [-1]
        heaviest = set()
        for c in comments[1:]:
            g.add(c)
            parents.append(g._index[c.parent_id])
            weight, max_weight = unbounded_weights(parents)
            assert np.array_equal(g._weight, weight)
            assert g._max_weight == max_weight
            heaviest.add(int(np.argmax(weight)))
        assert heaviest == {0, 1}

    @pytest.mark.parametrize("window", [1, 40, 100, 300])
    def test_hypothetical_board_matches_real_admission(self, window):
        comments = deep_tree_comments(np.random.default_rng([31, window]), 600)
        g, _ = self.admit_all(comments[:-1])
        cand = comments[-1]
        assert g.depth_of(cand.parent_id) > 226
        hyp = hypothetical_board(g, window, InfluenceWeights(), cand, cand.parent_id)
        g.add(cand)
        real = board(g, window, InfluenceWeights())
        # the hypothetical adds the candidate's mass outside the window's
        # matrix product, so the sums may round differently in the last bit
        assert hyp.percentages == pytest.approx(real.percentages, rel=0, abs=1e-12)
        assert hyp.contributing == real.contributing


class TestAdmissionPatch:
    """_admission_patch predicts, exactly, what each real admission changes."""

    @pytest.mark.parametrize("window", [1, 40, 300])
    @pytest.mark.parametrize("shape", ["deep-0", "deep-1", "wide-star"])
    def test_patch_predicts_every_admission(self, shape, window):
        if shape == "wide-star":
            comments = wide_star_comments()
        else:
            seed = int(shape.split("-")[1])
            comments = deep_tree_comments(np.random.default_rng([37, seed]), 600)
        weights = InfluenceWeights()
        g = ConversationGraph(comments[0])
        for cand in comments[1:]:
            n = len(g)
            start = max(0, n + 1 - window)
            parent_idx = g._index[cand.parent_id]
            bumps, max_weight, parent_replies, max_replies = _admission_patch(
                g, parent_idx, start
            )
            cand_infl = _candidate_influence(g, weights, cand.intensity, parent_idx, max_weight)
            old = list(g._weight)
            g.add(cand)
            assert g._max_weight == max_weight
            assert g._max_replies == max_replies
            assert g.reply_count_of(cand.parent_id) == parent_replies
            assert all(start <= row < n for row in bumps)
            for row, delta in zip(bumps, g._powers):
                assert g._weight[row] == old[row] + delta
            # no row in the window changed without a bump
            changed = {i for i in range(start, n) if g._weight[i] != old[i]}
            assert changed <= set(bumps)
            assert node_influence(g, cand.id, weights) == cand_infl
        if shape != "wide-star":
            assert max(g.depth_of(c.id) for c in comments) > 226


class TestPrune:
    def toxic_graph(self):
        comments = [
            make_comment("A", None, 0.0, EmotionKind.JOY, 0.4),
            make_comment("T", "A", 1.0, EmotionKind.ANGER, 1.0),
            make_comment("T1", "T", 2.0, EmotionKind.ANGER, 0.9),
            make_comment("T2", "T", 3.0, EmotionKind.ANGER, 0.9),
            make_comment("T3", "T1", 4.0, EmotionKind.DISGUST, 0.8),
            make_comment("B", "A", 5.0, EmotionKind.JOY, 0.5),
        ]
        return build_graph(comments)

    def test_no_selection_leaves_graph_unchanged(self):
        g = self.toxic_graph()
        result = prune_influential_toxic(g, {i: 0.0 for i in g.ids()}, 0.5, 0.5)
        assert result.removed_count == 0
        assert result.toxicity_reduction == 0.0
        assert len(result.graph) == len(g)

    def test_subtree_removed_with_seed(self):
        g = self.toxic_graph()
        toxicity = {"A": 0.0, "T": 0.9, "T1": 0.8, "T2": 0.7, "T3": 0.6, "B": 0.0}
        result = prune_influential_toxic(g, toxicity, influence_floor=0.0, toxicity_floor=0.85)
        # only T meets the floor; its whole subtree goes with it
        assert result.selected_ids == ("T",)
        assert result.removed_count == 4
        assert result.removed_toxic_mass == pytest.approx(0.9 + 0.8 + 0.7 + 0.6)
        assert result.toxicity_reduction == pytest.approx(3.0 / 3.0)
        assert set(result.graph.ids()) == {"A", "B"}

    def test_root_never_pruned(self):
        g = self.toxic_graph()
        toxicity = {i: 1.0 for i in g.ids()}
        result = prune_influential_toxic(g, toxicity, 0.0, 0.5)
        assert result.root_skipped
        assert "A" in result.graph.ids()

    def test_no_removed_node_has_surviving_descendant(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            g = build_graph(random_tree_comments(rng, int(rng.integers(5, 40))))
            toxicity = {i: float(rng.random()) for i in g.ids()}
            result = prune_influential_toxic(g, toxicity, 0.3, 0.5)
            survivors = set(result.graph.ids())
            removed = set(g.ids()) - survivors
            for node_id in survivors:
                parent = g.parent_of(node_id)
                assert parent is None or parent not in removed

    def test_scores_validated(self):
        g = self.toxic_graph()
        with pytest.raises(ValueError):
            prune_influential_toxic(g, {"T": 1.5}, 0.0, 0.5)


class TestSnapshot:
    def test_golden_snapshot(self):
        # the chain fixture's structure, board, PageRank shares and influence,
        # as 6-decimal golden values
        g = chain_graph()
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert (golden["root"], golden["orphans"]) == (g.root_id, g.orphan_count)
        brd = board(g, golden["window_size"])
        assert {k: round(v, 6) for k, v in brd.as_dict().items()} == golden["board"]
        assert [node["id"] for node in golden["nodes"]] == g.ids()
        shares = g.pagerank_shares()
        for idx, node in enumerate(golden["nodes"]):
            node_id = node["id"]
            comment = g.comment(node_id)
            assert node["parent"] == g.parent_of(node_id)
            assert node["timestamp"] == comment.created_at
            assert node["intensity"] == round(comment.intensity, 6)
            assert node["dominant"] == comment.dominant.value
            assert node["vector"] == {
                k: round(v, 6) for k, v in comment.vector.as_dict().items()
            }
            assert node["metrics"] == {
                "depth": g.depth_of(node_id),
                "replies": g.reply_count_of(node_id),
                "pagerank": round(float(shares[idx]), 6),
                "influence": round(node_influence(g, node_id), 6),
            }
