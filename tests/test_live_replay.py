"""The benchmark's live replay (perfbench/run.py ``LiveReplay``) feeds comments
to ``Engine.submit`` one at a time and checks its decisions against the batch
run's; a change that breaks that replay fails here, not only in a benchmark
run."""

from __future__ import annotations

import importlib.util
import sys
from itertools import chain
from pathlib import Path

import pytest

from emoqueue.emolex import classify_comment
from emoqueue.harness import (
    SimulationConfig,
    SyntheticSpec,
    _simulate_conversation,
    generate_synthetic,
)
from emoqueue.ingest import partition_conversations

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_live_replay_decides_as_the_batch_replay(run, lexicon, emoji_lexicon):
    config = SimulationConfig()
    spec = SyntheticSpec(conversations=4, comments_per_conversation=80, troll_rate=0.4)
    groups = partition_conversations(generate_synthetic(spec, 3))
    live = run.LiveReplay(groups, config, lexicon, emoji_lexicon)
    live.run(50)  # in chunks, as the benchmark measures it
    live.run()
    assert live.done
    batch = []
    for group in groups:
        classified = [
            classify_comment(
                r.id, r.author, r.parent_id, r.created_at, r.text,
                lexicon, emoji_lexicon, config.kappa,
            )
            for r in group
        ]
        engine, _ = _simulate_conversation(
            group, list(range(len(group))), classified, config, True, False
        )
        batch.append(engine.decisions)
    assert run._per_comment(live.decisions) == run._per_comment(chain.from_iterable(batch))
    assert {"held", "released"} <= {kind for _, kind in live.decisions}
    assert live.engines == live.conserved == len(groups)
