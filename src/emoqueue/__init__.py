"""emoqueue: emotion-aware comment queuing over conversation streams.

Pipeline: lexicon-based emotion classification (:mod:`emoqueue.emolex`),
reply-tree influence metrics and emotion boards (:mod:`emoqueue.congraph`),
an adaptive comment-queuing engine (:mod:`emoqueue.regulator`), stream
ingestion and replay (:mod:`emoqueue.ingest`), toxicity-pruning baselines
(:mod:`emoqueue.baseline`), and a paired-run simulation harness
(:mod:`emoqueue.harness`).
"""

from .congraph import (
    ConversationGraph,
    EmotionBoard,
    InfluenceWeights,
    board,
    build_graph,
    hypothetical_board,
    node_influence,
    pagerank,
    prune_influential_toxic,
)
from .emolex import (
    ClassifiedComment,
    EmojiLexicon,
    EmotionKind,
    EmotionVector,
    Lexicon,
    classify,
    classify_comment,
    load_emoji_lexicon,
    load_lexicon,
    tokenize,
)
from .harness import (
    ComparisonReport,
    RunReport,
    SimulationConfig,
    SyntheticSpec,
    compare,
    generate_synthetic,
    run_paired,
    run_with_queue,
    run_without_queue,
)
from .ingest import RawRecord, parse_jsonl, partition_conversations
from .regulator import (
    AdmissionDecision,
    Engine,
    QueueEntry,
    QueueStatus,
    ThresholdConfig,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissionDecision",
    "ClassifiedComment",
    "ComparisonReport",
    "ConversationGraph",
    "EmojiLexicon",
    "EmotionBoard",
    "EmotionKind",
    "EmotionVector",
    "Engine",
    "InfluenceWeights",
    "Lexicon",
    "QueueEntry",
    "QueueStatus",
    "RawRecord",
    "RunReport",
    "SimulationConfig",
    "SyntheticSpec",
    "ThresholdConfig",
    "board",
    "build_graph",
    "classify",
    "classify_comment",
    "compare",
    "generate_synthetic",
    "hypothetical_board",
    "load_emoji_lexicon",
    "load_lexicon",
    "node_influence",
    "pagerank",
    "parse_jsonl",
    "partition_conversations",
    "prune_influential_toxic",
    "run_paired",
    "run_with_queue",
    "run_without_queue",
    "tokenize",
]
