"""Lexicon-based emotion classification for comment text.

A comment is tokenized (URLs and @-mentions dropped, hashtags unwrapped,
emoji kept as standalone tokens), matched against a word lexicon in the
tab-separated ``term<TAB>emotion<TAB>flag`` format plus an emoji lexicon,
and scored with an 8-dimensional emotion vector, a dominant emotion and an
intensity. Intensity is the emotive-token density of the dominant emotion,
scaled by ``kappa`` and clamped into [0.1, 1.0]; a comment with no lexicon
hits is neutral (zero vector, no dominant, intensity 0).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

logger = logging.getLogger(__name__)

DEFAULT_KAPPA = 4.0

_DATA_DIR = Path(__file__).parent / "data"
DEFAULT_LEXICON_PATH = _DATA_DIR / "core_lexicon.tsv"
DEFAULT_EMOJI_LEXICON_PATH = _DATA_DIR / "emoji_emotions.tsv"


def check_kappa(kappa: float) -> None:
    """Raise ValueError unless ``kappa`` is positive and finite."""
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")


class LexiconError(Exception):
    """A lexicon file could not be loaded."""


class EmotionKind(str, Enum):
    """The eight tracked emotions, in canonical (tie-breaking) order."""

    ANGER = "anger"
    FEAR = "fear"
    ANTICIPATION = "anticipation"
    TRUST = "trust"
    SURPRISE = "surprise"
    SADNESS = "sadness"
    JOY = "joy"
    DISGUST = "disgust"


EMOTIONS: tuple[EmotionKind, ...] = tuple(EmotionKind)
EMOTION_NAMES: tuple[str, ...] = tuple(e.value for e in EMOTIONS)
EMOTION_INDEX: dict[EmotionKind, int] = {e: i for i, e in enumerate(EMOTIONS)}
_NAME_TO_KIND: dict[str, EmotionKind] = {e.value: e for e in EMOTIONS}

# NRC valence rows; recognized but never loaded as emotions.
_VALENCE_ROWS = frozenset({"positive", "negative"})


class EmotionVector(tuple):
    """Eight weights in [0, 1], canonical emotion order. All-zero = neutral."""

    __slots__ = ()

    def __new__(cls, weights: Iterable[float] = (0.0,) * 8) -> "EmotionVector":
        vals = tuple(float(w) for w in weights)
        if len(vals) != 8:
            raise ValueError(f"expected 8 weights, got {len(vals)}")
        for v in vals:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"weight {v} outside [0, 1]")
        return tuple.__new__(cls, vals)

    @classmethod
    def _from_trusted(cls, values: tuple[float, ...]) -> "EmotionVector":
        # internal: values already known to be 8 floats in [0, 1]
        return tuple.__new__(cls, values)

    @classmethod
    def zero(cls) -> "EmotionVector":
        return _ZERO_VECTOR

    @classmethod
    def unit(cls, kind: EmotionKind) -> "EmotionVector":
        vals = [0.0] * 8
        vals[EMOTION_INDEX[kind]] = 1.0
        return cls(vals)

    @classmethod
    def from_dict(cls, weights: Mapping[str, float]) -> "EmotionVector":
        unknown = set(weights) - set(EMOTION_NAMES)
        if unknown:
            raise ValueError(f"unknown emotions: {sorted(unknown)}")
        return cls(float(weights.get(name, 0.0)) for name in EMOTION_NAMES)

    def get(self, kind: EmotionKind) -> float:
        return self[EMOTION_INDEX[kind]]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(EMOTION_NAMES, self))

    @property
    def is_zero(self) -> bool:
        return not any(self)


_ZERO_VECTOR = EmotionVector()


@dataclass(frozen=True)
class Lexicon:
    """Word lexicon: lowercase term -> emotions the term is associated with."""

    terms: Mapping[str, frozenset[EmotionKind]]
    skipped_lines: int = 0

    def __contains__(self, term: str) -> bool:
        return term in self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def get(self, term: str) -> frozenset[EmotionKind] | None:
        return self.terms.get(term)


@dataclass(frozen=True)
class EmojiLexicon:
    """Emoji lexicon: codepoint sequence -> emotion weight vector."""

    entries: Mapping[str, EmotionVector]
    skipped_lines: int = 0

    def __contains__(self, emoji: str) -> bool:
        return emoji in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, emoji: str) -> EmotionVector | None:
        return self.entries.get(emoji)


@dataclass(frozen=True, slots=True)
class ClassifiedComment:
    """A comment with its classification attached.

    ``dominant`` is absent iff the vector is zero, in which case intensity
    is 0; otherwise intensity lies in [0.1, 1.0].
    """

    id: str
    author: str
    parent_id: str | None
    created_at: float
    text: str
    vector: EmotionVector
    dominant: EmotionKind | None
    intensity: float

    def __post_init__(self) -> None:
        if self.dominant is None:
            if not self.vector.is_zero or self.intensity != 0.0:
                raise ValueError("neutral comment must have zero vector and intensity 0")
        elif not 0.1 <= self.intensity <= 1.0:
            raise ValueError(f"intensity {self.intensity} outside [0.1, 1.0]")


def load_lexicon(path: str | Path = DEFAULT_LEXICON_PATH) -> Lexicon:
    """Load a word lexicon from tab-separated ``term<TAB>emotion<TAB>flag`` rows.

    Keeps exactly the terms whose flag is 1 and whose emotion is one of the
    eight tracked kinds. Valence rows (positive/negative) are recognized and
    ignored; rows naming any other emotion are skipped. Malformed rows are
    skipped and counted, never aborting the load.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LexiconError(f"cannot read lexicon {path}: {exc}") from exc

    terms: dict[str, set[EmotionKind]] = {}
    skipped = 0
    for line in raw.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            skipped += 1
            continue
        term, emotion, flag = (p.strip() for p in parts)
        if not term or " " in term or flag not in ("0", "1"):
            skipped += 1
            continue
        if flag == "0":
            continue
        emotion = emotion.lower()
        if emotion in _VALENCE_ROWS:
            continue
        kind = _NAME_TO_KIND.get(emotion)
        if kind is None:
            continue
        terms.setdefault(term.lower(), set()).add(kind)
    if skipped:
        logger.warning("lexicon %s: skipped %d malformed line(s)", path, skipped)
    frozen = {t: frozenset(s) for t, s in terms.items()}
    return Lexicon(terms=frozen, skipped_lines=skipped)


def load_emoji_lexicon(path: str | Path = DEFAULT_EMOJI_LEXICON_PATH) -> EmojiLexicon:
    """Load an emoji lexicon: ``emoji<TAB>emotion=weight[,emotion=weight...]``."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LexiconError(f"cannot read emoji lexicon {path}: {exc}") from exc

    entries: dict[str, EmotionVector] = {}
    skipped = 0
    for line in raw.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            skipped += 1
            continue
        emoji, spec = parts[0].strip(), parts[1].strip()
        if not emoji or not spec:
            skipped += 1
            continue
        weights = [0.0] * 8
        ok = True
        for pair in spec.split(","):
            name, _, value = pair.partition("=")
            kind = _NAME_TO_KIND.get(name.strip().lower())
            if kind is None:
                continue
            try:
                w = float(value)
            except ValueError:
                ok = False
                break
            if not 0.0 <= w <= 1.0:
                ok = False
                break
            weights[EMOTION_INDEX[kind]] = w
        if not ok:
            skipped += 1
            continue
        entries[emoji] = EmotionVector(weights)
    if skipped:
        logger.warning("emoji lexicon %s: skipped %d malformed line(s)", path, skipped)
    return EmojiLexicon(entries=entries, skipped_lines=skipped)


# Characters stripped from token edges. Interior punctuation (co-operate,
# a,b) is preserved.
_EDGE_PUNCT = (
    "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"
    "‘’“”–—…¡¿«»"
)

_EMOJI_RANGES = (
    (0x1F1E6, 0x1F1FF),
    (0x1F300, 0x1F5FF),
    (0x1F600, 0x1F64F),
    (0x1F680, 0x1F6FF),
    (0x1F900, 0x1F9FF),
    (0x1FA70, 0x1FAFF),
    (0x2600, 0x26FF),
    (0x2700, 0x27BF),
    (0x2B00, 0x2BFF),
)
# Joiners/selectors extend an emoji run but are not emoji on their own.
_EMOJI_EXTENDERS = frozenset({0x200D, 0xFE0F, 0x20E3} | set(range(0x1F3FB, 0x1F400)))


def _is_emoji_char(ch: str) -> bool:
    cp = ord(ch)
    for lo, hi in _EMOJI_RANGES:
        if lo <= cp <= hi:
            return True
    return False


def _split_emoji_runs(chunk: str) -> list[tuple[bool, str]]:
    """Split a chunk into (is_emoji, piece) segments, grouping emoji runs."""
    pieces: list[tuple[bool, str]] = []
    buf: list[str] = []
    buf_emoji = False
    for ch in chunk:
        if _is_emoji_char(ch):
            emoji = True
        elif ord(ch) in _EMOJI_EXTENDERS:
            emoji = buf_emoji and bool(buf)
        else:
            emoji = False
        if buf and emoji != buf_emoji:
            pieces.append((buf_emoji, "".join(buf)))
            buf = []
        buf.append(ch)
        buf_emoji = emoji
    if buf:
        pieces.append((buf_emoji, "".join(buf)))
    return pieces


def tokenize(text: str) -> list[str]:
    """Tokenize comment text.

    Lowercases, drops URLs and @-mentions, keeps the word of a hashtag,
    emits emoji as standalone tokens, and strips punctuation from token
    edges. Empty input yields an empty list.
    """
    if not text:
        return []
    out: list[str] = []
    for chunk in text.split():
        if chunk.isalnum() and chunk.isascii():
            out.append(chunk.lower())
            continue
        lower = chunk.lower()
        if lower.startswith(("http://", "https://", "www.")) or lower.startswith("@"):
            continue
        if lower.startswith("#"):
            lower = lower.lstrip("#")
            if not lower:
                continue
        if lower.isascii():
            word = lower.strip(_EDGE_PUNCT)
            if word:
                out.append(word)
            continue
        for is_emoji, piece in _split_emoji_runs(lower):
            if is_emoji:
                out.append(piece)
            else:
                word = piece.strip(_EDGE_PUNCT)
                if word:
                    out.append(word)
    return out


def classify(
    text: str,
    lexicon: Lexicon,
    emoji_lexicon: EmojiLexicon,
    kappa: float = DEFAULT_KAPPA,
) -> tuple[EmotionVector, EmotionKind | None, float]:
    """Score a comment: (vector, dominant emotion, intensity).

    Raw weight per emotion is the count of word-lexicon hits plus the sum
    of emoji-lexicon weights; the vector is raw normalized by its maximum,
    the dominant emotion is the argmax (ties broken by canonical order) and
    intensity is ``clamp(kappa * raw(dominant) / token_count, 0.1, 1.0)``.
    """
    check_kappa(kappa)
    tokens = tokenize(text)
    raw = [0.0] * 8
    word_terms = lexicon.terms
    emoji_entries = emoji_lexicon.entries
    for tok in tokens:
        kinds = word_terms.get(tok)
        if kinds is not None:
            for kind in kinds:
                raw[EMOTION_INDEX[kind]] += 1.0
            continue
        vec = emoji_entries.get(tok)
        if vec is not None:
            for i, w in enumerate(vec):
                if w:
                    raw[i] += w
        elif not tok.isascii() and len(tok) > 1:
            # unknown multi-codepoint emoji run: fall back per codepoint
            for ch in tok:
                vec = emoji_entries.get(ch)
                if vec is not None:
                    for i, w in enumerate(vec):
                        if w:
                            raw[i] += w
    peak = max(raw)
    if peak <= 0.0:
        return _ZERO_VECTOR, None, 0.0
    dominant = EMOTIONS[raw.index(peak)]
    vector = EmotionVector._from_trusted(tuple(r / peak for r in raw))
    intensity = kappa * peak / max(1, len(tokens))
    intensity = min(1.0, max(0.1, intensity))
    return vector, dominant, intensity


def classify_comment(
    comment_id: str,
    author: str,
    parent_id: str | None,
    created_at: float,
    text: str,
    lexicon: Lexicon,
    emoji_lexicon: EmojiLexicon,
    kappa: float = DEFAULT_KAPPA,
) -> ClassifiedComment:
    """Classify raw comment fields into a ClassifiedComment."""
    vector, dominant, intensity = classify(text, lexicon, emoji_lexicon, kappa)
    return ClassifiedComment(
        id=comment_id,
        author=author,
        parent_id=parent_id,
        created_at=float(created_at),
        text=text,
        vector=vector,
        dominant=dominant,
        intensity=intensity,
    )
