from __future__ import annotations

import os

# set before numpy loads: tests/reference.py multiplies small dense matrices,
# and OpenBLAS threads on them oversubscribe the cores when test processes run
# side by side (two concurrent runs of the wide-star oracle tests on 2 cores
# took 26 s each unpinned and 8 s each pinned)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest
from hypothesis import settings

from emoqueue.emolex import load_emoji_lexicon, load_lexicon

# CI selects this profile (HYPOTHESIS_PROFILE=ci) so that a failing property
# prints the blob that replays it; deadline=None because shared CI cores make
# single examples slow
settings.register_profile("ci", print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon()


@pytest.fixture(scope="session")
def emoji_lexicon():
    return load_emoji_lexicon()
