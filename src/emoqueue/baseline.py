"""Pluggable toxicity scoring for the node-pruning comparison.

Two providers share the ``score(text) -> float in [0, 1]`` protocol:

* ``OfflineToxicityProxy``: pure lexicon-density score, no network.
* ``ExternalScoreClient``: generic HTTP "score endpoint" client (POST
  ``{"text": ...}``, response ``{"score": ...}``) with a JSONL content-hash
  cache and a token-bucket rate limit. Disabled unless an endpoint is
  configured; failures raise, never silently score 0.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import congraph
from .congraph import ConversationGraph, InfluenceWeights
from .emolex import EmotionKind, Lexicon, check_kappa, tokenize

logger = logging.getLogger(__name__)

DEFAULT_PROXY_KAPPA = 3.0
DEFAULT_TOXICITY_FLOOR = 0.5
DEFAULT_TEXT_ONLY_FLOOR = 0.8
DEFAULT_INFLUENCE_PERCENTILE = 95.0

_TOXIC_KINDS = (EmotionKind.ANGER, EmotionKind.DISGUST, EmotionKind.FEAR)


class ProviderError(Exception):
    """The external scoring provider failed (network, auth, bad payload)."""


class OfflineToxicityProxy:
    """Deterministic toxicity proxy: density of anger/disgust/fear lexicon hits."""

    kind = "offline_proxy"

    def __init__(self, lexicon: Lexicon, kappa: float = DEFAULT_PROXY_KAPPA):
        check_kappa(kappa)
        self._lexicon = lexicon
        self._kappa = kappa

    def score(self, text: str) -> float:
        tokens = tokenize(text)
        hits = 0
        terms = self._lexicon.terms
        for tok in tokens:
            kinds = terms.get(tok)
            if kinds:
                for kind in _TOXIC_KINDS:
                    if kind in kinds:
                        hits += 1
        return min(1.0, max(0.0, self._kappa * hits / max(1, len(tokens))))


class _TokenBucket:
    """Serializes requests to at most ``rate`` per second (capacity 1)."""

    def __init__(
        self,
        rate: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self._interval = 1.0 / rate
        self._clock = clock
        self._sleep = sleep
        self._next_free = clock()

    def acquire(self) -> None:
        now = self._clock()
        if now < self._next_free:
            self._sleep(self._next_free - now)
            now = self._next_free
        self._next_free = now + self._interval


class ExternalScoreClient:
    """Generic HTTP scoring client with content-hash caching.

    Requests are serialized through the token bucket. One client owns its
    cache file; share a client between threads, not a cache path between
    clients.
    """

    kind = "external_http"

    def __init__(
        self,
        endpoint: str,
        *,
        key_env: str | None = None,
        cache_path: str | Path | None = None,
        rate_per_sec: float = 1.0,
        timeout: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if not endpoint:
            raise ProviderError("external provider requires an endpoint")
        self.endpoint = endpoint
        self.key_env = key_env
        self.timeout = timeout
        self.cache_path = Path(cache_path) if cache_path else None
        self._bucket = _TokenBucket(rate_per_sec, clock=clock, sleep=sleep)
        self._cache: dict[str, float] = {}
        self.requests_made = 0
        if self.cache_path is not None:
            self._load_cache()

    def _load_cache(self) -> None:
        assert self.cache_path is not None
        if not self.cache_path.exists():
            return
        entries: dict[str, float] = {}
        corrupt = 0
        for line in self.cache_path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                digest = obj["hash"]
                score = float(obj["score"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                corrupt += 1
                continue
            if isinstance(digest, str) and 0.0 <= score <= 1.0:
                entries[digest] = score
            else:
                corrupt += 1
        self._cache = entries
        if corrupt:
            logger.warning(
                "cache %s: dropped %d corrupt line(s), rebuilding", self.cache_path, corrupt
            )
            self._rewrite_cache()

    def _rewrite_cache(self) -> None:
        assert self.cache_path is not None
        lines = [
            json.dumps({"hash": h, "score": s}, sort_keys=True)
            for h, s in sorted(self._cache.items())
        ]
        self.cache_path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")

    def _append_cache(self, digest: str, score: float) -> None:
        if self.cache_path is None:
            return
        with self.cache_path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"hash": digest, "score": score}, sort_keys=True) + "\n")

    def score(self, text: str) -> float:
        if not text:
            raise ProviderError("external provider requires non-empty text")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        cached = self._cache.get(digest)
        if cached is not None:
            return cached
        self._bucket.acquire()
        payload = json.dumps({"text": text}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.key_env:
            key = os.environ.get(self.key_env)
            if not key:
                raise ProviderError(f"API key env var {self.key_env} is not set")
            headers["Authorization"] = f"Bearer {key}"
        request = urllib.request.Request(self.endpoint, data=payload, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = response.read()
        except (urllib.error.URLError, OSError) as exc:
            raise ProviderError(f"score request failed: {exc}") from exc
        self.requests_made += 1
        try:
            score = float(json.loads(body)["score"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ProviderError(f"malformed score response: {body[:200]!r}") from exc
        if not 0.0 <= score <= 1.0:
            raise ProviderError(f"score {score} outside [0, 1]")
        self._cache[digest] = score
        self._append_cache(digest, score)
        return score


@dataclass(frozen=True)
class PolicyOutcome:
    detected_count: int
    detected_fraction: float
    removed_count: int
    removed_fraction: float
    toxicity_reduction: float


@dataclass(frozen=True)
class PolicyComparison:
    node_count: int
    influence_and_toxicity: PolicyOutcome
    toxicity_only: PolicyOutcome


def check_policy_settings(
    influence_percentile: float, toxicity_floor: float, text_only_floor: float
) -> None:
    """Raise ValueError unless the influence percentile lies in [0, 100] and
    both toxicity floors in [0, 1], the range of a provider's scores (NaN lies
    in neither)."""
    if not 0.0 <= influence_percentile <= 100.0:
        raise ValueError(f"influence percentile must lie in [0, 100], got {influence_percentile}")
    for name, floor in (("toxicity floor", toxicity_floor), ("text-only floor", text_only_floor)):
        if not 0.0 <= floor <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {floor}")


def compare_policies_corpus(
    graphs: Sequence[ConversationGraph],
    provider,
    *,
    weights: InfluenceWeights = InfluenceWeights(),
    influence_percentile: float = DEFAULT_INFLUENCE_PERCENTILE,
    toxicity_floor: float = DEFAULT_TOXICITY_FLOOR,
    text_only_floor: float = DEFAULT_TEXT_ONLY_FLOOR,
) -> PolicyComparison:
    """Compare two pruning policies, pooled over a corpus of graphs.

    Policy A selects nodes by influence (at or above the given percentile of
    each graph's influence scores) AND toxicity; policy B is text-only, using
    toxicity alone at a stricter floor since it cannot see engagement.
    Detected/removed fractions are pooled over all nodes; the reduction is
    pooled removed toxic mass over pooled total toxic mass. Settings outside
    ``check_policy_settings`` raise ValueError.
    """
    check_policy_settings(influence_percentile, toxicity_floor, text_only_floor)
    total_nodes = 0
    det = {"a": 0, "b": 0}
    rem = {"a": 0, "b": 0}
    removed_mass = {"a": 0.0, "b": 0.0}
    total_mass = 0.0
    for graph in graphs:
        toxicity = {
            node_id: provider.score(graph.comment(node_id).text) for node_id in graph.ids()
        }
        influences = np.array(
            [congraph.node_influence(graph, i, weights) for i in graph.ids()]
        )
        influence_floor = float(np.percentile(influences, influence_percentile))
        res_a = congraph.prune_influential_toxic(
            graph, toxicity, influence_floor, toxicity_floor, weights
        )
        res_b = congraph.prune_influential_toxic(
            graph, toxicity, 0.0, text_only_floor, weights
        )
        total_nodes += len(graph)
        det["a"] += len(res_a.selected_ids)
        det["b"] += len(res_b.selected_ids)
        rem["a"] += res_a.removed_count
        rem["b"] += res_b.removed_count
        removed_mass["a"] += res_a.removed_toxic_mass
        removed_mass["b"] += res_b.removed_toxic_mass
        total_mass += sum(toxicity.values())

    def outcome(tag: str) -> PolicyOutcome:
        return PolicyOutcome(
            detected_count=det[tag],
            detected_fraction=det[tag] / total_nodes if total_nodes else 0.0,
            removed_count=rem[tag],
            removed_fraction=rem[tag] / total_nodes if total_nodes else 0.0,
            toxicity_reduction=removed_mass[tag] / total_mass if total_mass > 0 else 0.0,
        )

    return PolicyComparison(
        node_count=total_nodes,
        influence_and_toxicity=outcome("a"),
        toxicity_only=outcome("b"),
    )
