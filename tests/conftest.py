from __future__ import annotations

import os

# set before numpy loads: tests/reference.py multiplies small dense matrices,
# and OpenBLAS threads on them oversubscribe the cores when test processes run
# side by side (two concurrent runs of the wide-star oracle tests on 2 cores
# took 26 s each unpinned and 8 s each pinned)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

from emoqueue.emolex import load_emoji_lexicon, load_lexicon


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon()


@pytest.fixture(scope="session")
def emoji_lexicon():
    return load_emoji_lexicon()
