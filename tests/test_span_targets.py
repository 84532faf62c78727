"""The benchmark's tracer wraps emoqueue callables by name (perfbench/spans.py
TARGETS); a callable renamed or moved away fails here, not only in a traced
benchmark run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from emoqueue.emolex import EmotionKind
from emoqueue.regulator import Engine

from helpers import INTENSITY_ONLY, make_comment

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_exists_on_its_owner(spans):
    assert spans.TARGETS
    for owner, attr, span, _ in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner!r} has no {attr}"


def test_requeue_pass_runs_inside_the_submit_span(spans):
    # an admission's requeue pass is timed as its own layer inside submit
    tracer = spans.Tracer()
    with tracer.installed():
        eng = Engine(weights=INTENSITY_ONLY)
        eng.submit(make_comment("r", None, 0.0, EmotionKind.JOY, 0.35), now=0.0)
        eng.submit(make_comment("x", "r", 1.0, EmotionKind.ANGER, 0.75), now=1.0)
        eng.submit(make_comment("j", "r", 2.0, EmotionKind.JOY, 0.9), now=2.0)
        eng.finalize(3.0)
    names = [record[0] for record in tracer.spans]
    parents = {
        record[0]: tracer.spans[record[3]][0] for record in tracer.spans if record[3] >= 0
    }
    assert eng.held_active_count == 0 and eng.ever_held_count == 1
    assert names.count("Engine.submit") == 3
    assert "Engine.finalize" in names
    assert parents["Engine.requeue_scan"] == "Engine.submit"
