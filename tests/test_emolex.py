from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoqueue.emolex import (
    EMOTION_NAMES,
    ClassifiedComment,
    EmojiLexicon,
    EmotionKind,
    EmotionVector,
    Lexicon,
    LexiconError,
    classify,
    classify_comment,
    load_emoji_lexicon,
    load_lexicon,
    tokenize,
)


def write_lexicon(tmp_path, lines):
    path = tmp_path / "lex.tsv"
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


def simple_lexicon(mapping: dict[str, set[EmotionKind]]) -> Lexicon:
    return Lexicon(terms={t: frozenset(s) for t, s in mapping.items()})


EMPTY_EMOJI = EmojiLexicon(entries={})


class TestEmotionVector:
    def test_zero_vector_is_neutral(self):
        assert EmotionVector.zero().is_zero

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            EmotionVector((0.1, 0.2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EmotionVector((1.5,) + (0.0,) * 7)

    def test_dict_round_trip(self):
        vec = EmotionVector.unit(EmotionKind.JOY)
        assert EmotionVector.from_dict(vec.as_dict()) == vec

    def test_canonical_order(self):
        assert EMOTION_NAMES == (
            "anger",
            "fear",
            "anticipation",
            "trust",
            "surprise",
            "sadness",
            "joy",
            "disgust",
        )


class TestLoadLexicon:
    def test_flag_one_row_kept(self, tmp_path):
        lex = load_lexicon(write_lexicon(tmp_path, ["abandon\tfear\t1"]))
        assert lex.get("abandon") == frozenset({EmotionKind.FEAR})

    def test_flag_zero_row_excluded(self, tmp_path):
        lex = load_lexicon(write_lexicon(tmp_path, ["abandon\tfear\t0"]))
        assert "abandon" not in lex

    def test_empty_file_gives_empty_lexicon(self, tmp_path):
        lex = load_lexicon(write_lexicon(tmp_path, []))
        assert len(lex) == 0

    def test_valence_rows_ignored(self, tmp_path):
        lex = load_lexicon(
            write_lexicon(
                tmp_path, ["good\tpositive\t1", "bad\tnegative\t1", "good\tjoy\t1"]
            )
        )
        assert lex.get("good") == frozenset({EmotionKind.JOY})
        assert "bad" not in lex

    def test_unknown_emotion_skipped_without_abort(self, tmp_path):
        lex = load_lexicon(
            write_lexicon(tmp_path, ["x\tboredom\t1", "y\tanger\t1"])
        )
        assert "x" not in lex
        assert "y" in lex

    def test_malformed_lines_counted(self, tmp_path):
        lex = load_lexicon(
            write_lexicon(tmp_path, ["broken line", "a\tb", "ok\tanger\t1", "z\tfear\t2"])
        )
        assert lex.skipped_lines == 3
        assert lex.get("ok") == frozenset({EmotionKind.ANGER})

    def test_terms_lowercased(self, tmp_path):
        lex = load_lexicon(write_lexicon(tmp_path, ["FURY\tanger\t1"]))
        assert "fury" in lex

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(LexiconError):
            load_lexicon(tmp_path / "missing.tsv")

    def test_bundled_lexicon_loads(self, lexicon):
        assert len(lexicon) >= 100
        assert lexicon.skipped_lines == 0


class TestLoadEmojiLexicon:
    def test_weights_parsed(self, tmp_path):
        path = tmp_path / "emo.tsv"
        path.write_text("😡\tanger=1.0,fear=0.25\n", encoding="utf-8")
        lex = load_emoji_lexicon(path)
        vec = lex.get("😡")
        assert vec.get(EmotionKind.ANGER) == 1.0
        assert vec.get(EmotionKind.FEAR) == 0.25

    def test_bad_weight_skipped(self, tmp_path):
        path = tmp_path / "emo.tsv"
        path.write_text("😡\tanger=2.0\n😱\tfear=1.0\n", encoding="utf-8")
        lex = load_emoji_lexicon(path)
        assert "😡" not in lex
        assert lex.skipped_lines == 1

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(LexiconError):
            load_emoji_lexicon(tmp_path / "missing.tsv")


class TestTokenize:
    def test_drops_urls_mentions_and_unwraps_hashtags(self):
        assert tokenize("I HATE this! 😡 #angry @bob http://x.y") == [
            "i",
            "hate",
            "this",
            "😡",
            "angry",
        ]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_internal_hyphen_preserved(self):
        assert tokenize("co-operate") == ["co-operate"]

    def test_edge_punctuation_stripped(self):
        assert tokenize("'hello,' (world)...") == ["hello", "world"]

    def test_emoji_adjacent_to_text(self):
        assert tokenize("this!😡ok") == ["this", "😡", "ok"]

    def test_emoji_run_kept_together(self):
        tokens = tokenize("wow 👍🏽 ok")
        assert "👍🏽" in tokens

    def test_www_url_dropped(self):
        assert tokenize("see www.example.com now") == ["see", "now"]

    @given(st.text(max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_tokens_are_lowercase_and_trimmed(self, text):
        for tok in tokenize(text):
            assert tok == tok.lower()
            assert tok
            if tok.isascii():
                assert not tok[0] in "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"
                assert not tok[-1] in "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"


class TestClassify:
    def setup_method(self):
        self.lex = simple_lexicon(
            {
                "furious": {EmotionKind.ANGER},
                "afraid": {EmotionKind.FEAR},
                "glad": {EmotionKind.JOY},
            }
        )
        self.emoji = EmojiLexicon(
            entries={"😡": EmotionVector.unit(EmotionKind.ANGER)}
        )

    def test_neutral_text(self):
        vector, dominant, intensity = classify("the sky today", self.lex, self.emoji)
        assert vector.is_zero and dominant is None and intensity == 0.0

    def test_saturation_clamps_to_one(self):
        vector, dominant, intensity = classify(
            "furious furious furious", self.lex, self.emoji, kappa=4.0
        )
        assert dominant is EmotionKind.ANGER
        assert vector.get(EmotionKind.ANGER) == 1.0
        assert intensity == 1.0

    def test_single_emoji(self):
        vector, dominant, intensity = classify("😡", self.lex, self.emoji)
        assert dominant is EmotionKind.ANGER
        assert intensity == 1.0

    def test_emoji_weight_contributes_fractionally(self):
        emoji = EmojiLexicon(
            entries={"😟": EmotionVector.from_dict({"fear": 0.5})}
        )
        vector, dominant, intensity = classify("😟 the road", self.lex, emoji)
        assert dominant is EmotionKind.FEAR
        # raw fear 0.5 over 3 tokens, kappa 4
        assert intensity == pytest.approx(4 * 0.5 / 3)

    def test_tie_breaks_by_canonical_order(self):
        vector, dominant, _ = classify("furious afraid", self.lex, self.emoji)
        assert dominant is EmotionKind.ANGER
        assert vector.get(EmotionKind.ANGER) == 1.0
        assert vector.get(EmotionKind.FEAR) == 1.0

    def test_intensity_floor(self):
        text = "furious " + " ".join(["road"] * 49)
        _, dominant, intensity = classify(text, self.lex, self.emoji)
        assert dominant is EmotionKind.ANGER
        assert intensity == 0.1

    def test_kappa_must_be_positive(self):
        # NaN and infinity once passed a ``kappa <= 0`` check and gave every
        # emotive comment intensity 0.1 (NaN) or 1.0 (infinity)
        for kappa in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                classify("x", self.lex, self.emoji, kappa=kappa)

    def test_deterministic(self, lexicon, emoji_lexicon):
        text = "furious about the vile update 😡 #rage"
        assert classify(text, lexicon, emoji_lexicon) == classify(
            text, lexicon, emoji_lexicon
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bag_of_words_property(self, seed):
        rng = random.Random(seed)
        pool = ["furious", "afraid", "glad", "road", "the", "😡", "paper"]
        tokens = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
        shuffled = tokens[:]
        rng.shuffle(shuffled)
        assert classify(" ".join(tokens), self.lex, self.emoji) == classify(
            " ".join(shuffled), self.lex, self.emoji
        )

    @given(st.text(max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_output_invariants(self, text):
        vector, dominant, intensity = classify(text, self.lex, self.emoji)
        if dominant is None:
            assert vector.is_zero and intensity == 0.0
        else:
            assert 0.1 <= intensity <= 1.0
            assert vector.get(dominant) == 1.0


class TestClassifiedComment:
    def test_neutral_requires_zero_vector(self):
        with pytest.raises(ValueError):
            ClassifiedComment(
                "a", "u", None, 0.0, "", EmotionVector.unit(EmotionKind.JOY), None, 0.0
            )

    def test_intensity_range_enforced(self):
        with pytest.raises(ValueError):
            ClassifiedComment(
                "a",
                "u",
                None,
                0.0,
                "",
                EmotionVector.unit(EmotionKind.JOY),
                EmotionKind.JOY,
                0.05,
            )

    def test_classify_comment_round_trip(self, lexicon, emoji_lexicon):
        comment = classify_comment(
            "c1", "alice", None, 12.0, "furious rage", lexicon, emoji_lexicon
        )
        assert comment.dominant is EmotionKind.ANGER
        assert comment.intensity == 1.0
        assert comment.created_at == 12.0
