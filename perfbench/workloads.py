"""The benchmark's workloads.

Every workload is a comment stream made by ``generate_synthetic`` from the
seed the benchmark is given; the program under test only ever sees the
stream file and the records parsed from it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from emoqueue.harness import SyntheticSpec, generate_synthetic
from emoqueue.ingest import RawRecord

# Only the ungoverned categories of the default mixture, renormalised. In a
# single reply chain one held comment defers every later comment (its parent
# is never published), so a governed comment early in the chain would turn
# the workload into a finalize-only run. Without governed text nothing is
# held, for every seed, and the chain measures graph appends alone.
_UNGOVERNED_MIXTURE = {
    "neutral": 0.70 / 0.85,
    "joy": 0.06 / 0.85,
    "trust": 0.04 / 0.85,
    "anticipation": 0.03 / 0.85,
    "surprise": 0.02 / 0.85,
}


# Why each workload exists is stated in BENCHMARK.json and perfbench/README.md.
@dataclass(frozen=True)
class Workload:
    name: str
    spec: SyntheticSpec
    chain: bool
    # output check against tests/reference.py: how many conversations, and
    # how many leading comments of each (the oracle is cubic in its size)
    reference_conversations: int
    reference_prefix: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="calibrated",
            spec=SyntheticSpec(
                conversations=50,
                comments_per_conversation=200,
                troll_rate=0.15,
                inter_arrival_mean=12.0,
            ),
            chain=False,
            reference_conversations=3,
            reference_prefix=200,
        ),
        Workload(
            name="troll_storm",
            spec=SyntheticSpec(
                conversations=10,
                comments_per_conversation=1000,
                troll_rate=0.6,
                inter_arrival_mean=12.0,
            ),
            chain=False,
            reference_conversations=2,
            reference_prefix=300,
        ),
        Workload(
            name="deep_chain",
            spec=SyntheticSpec(
                conversations=1,
                comments_per_conversation=1500,
                troll_rate=0.0,
                mixture=_UNGOVERNED_MIXTURE,
                inter_arrival_mean=12.0,
            ),
            chain=True,
            reference_conversations=1,
            reference_prefix=400,
        ),
    )
}


def make_records(workload: Workload, seed: int) -> list[RawRecord]:
    """The workload's stream for ``seed``; a chain re-parents each comment
    under the one before it and keeps the generator's text and clock."""
    records = generate_synthetic(workload.spec, seed)
    if workload.chain:
        records = [records[0]] + [
            dataclasses.replace(record, parent_id=prev.id)
            for prev, record in zip(records, records[1:])
        ]
    return records
