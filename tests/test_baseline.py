from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from emoqueue.baseline import (
    ExternalScoreClient,
    OfflineToxicityProxy,
    ProviderError,
    _TokenBucket,
    check_policy_settings,
    compare_policies_corpus,
)
from emoqueue.congraph import build_graph
from emoqueue.emolex import EmotionKind

from helpers import make_comment


class TestOfflineProxy:
    def test_no_hits_scores_zero(self, lexicon):
        proxy = OfflineToxicityProxy(lexicon)
        assert proxy.score("the sky today") == 0.0

    def test_all_toxic_tokens_saturate(self, lexicon):
        proxy = OfflineToxicityProxy(lexicon)
        assert proxy.score("furious rage vile rotten") == 1.0

    def test_two_hits_over_six_tokens(self, lexicon):
        # kappa_t * 2 / 6 = 3 * 2 / 6 = 1.0
        proxy = OfflineToxicityProxy(lexicon)
        assert proxy.score("furious rage the road water paper") == 1.0

    def test_one_hit_over_six_tokens(self, lexicon):
        proxy = OfflineToxicityProxy(lexicon)
        assert proxy.score("furious the road water paper line") == pytest.approx(0.5)

    def test_positive_words_do_not_count(self, lexicon):
        proxy = OfflineToxicityProxy(lexicon)
        assert proxy.score("joy happy celebrate") == 0.0

    @pytest.mark.parametrize("kappa", [0.0, -3.0, float("nan"), float("inf")])
    def test_kappa_must_be_positive_and_finite(self, lexicon, kappa):
        # a NaN kappa once scored every text 0
        with pytest.raises(ValueError):
            OfflineToxicityProxy(lexicon, kappa=kappa)

    def test_deterministic(self, lexicon):
        proxy = OfflineToxicityProxy(lexicon)
        text = "furious about the vile statement"
        assert proxy.score(text) == proxy.score(text)

    def test_score_toxicity_dispatch(self, lexicon):
        proxy = OfflineToxicityProxy(lexicon)
        assert proxy.score("furious rage the road water paper") == 1.0

    def test_scores_always_in_unit_interval(self, lexicon):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        proxy = OfflineToxicityProxy(lexicon)

        @given(st.text(max_size=120))
        @settings(max_examples=120, deadline=None)
        def check(text):
            assert 0.0 <= proxy.score(text) <= 1.0

        check()


class TestTokenBucket:
    def test_serializes_at_rate(self):
        clock = {"t": 0.0}
        sleeps: list[float] = []

        def fake_clock():
            return clock["t"]

        def fake_sleep(dt):
            sleeps.append(dt)
            clock["t"] += dt

        bucket = _TokenBucket(rate=1.0, clock=fake_clock, sleep=fake_sleep)
        bucket.acquire()  # immediate
        bucket.acquire()  # must wait a full second
        assert sleeps == [pytest.approx(1.0)]

    def test_idle_time_refills(self):
        clock = {"t": 0.0}
        sleeps: list[float] = []
        bucket = _TokenBucket(
            rate=1.0, clock=lambda: clock["t"], sleep=lambda dt: sleeps.append(dt)
        )
        bucket.acquire()
        clock["t"] += 5.0
        bucket.acquire()
        assert sleeps == []

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            _TokenBucket(rate=0.0)


class _ScoreHandler(BaseHTTPRequestHandler):
    scores: dict[str, float] = {}
    calls: list[dict] = []
    fail_mode: str | None = None

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        type(self).calls.append(
            {"text": payload.get("text"), "auth": self.headers.get("Authorization")}
        )
        if type(self).fail_mode == "http_error":
            self.send_response(500)
            self.end_headers()
            return
        if type(self).fail_mode == "bad_json":
            body = b"not json"
        elif type(self).fail_mode == "bad_score":
            body = json.dumps({"score": 7.5}).encode()
        else:
            score = type(self).scores.get(payload["text"], 0.25)
            body = json.dumps({"score": score}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def score_server():
    _ScoreHandler.scores = {}
    _ScoreHandler.calls = []
    _ScoreHandler.fail_mode = None
    server = HTTPServer(("127.0.0.1", 0), _ScoreHandler)
    # a short poll keeps shutdown() from waiting out the default 0.5 s poll
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/score", _ScoreHandler
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class TestExternalClient:
    def client(self, endpoint, tmp_path, **kwargs):
        kwargs.setdefault("cache_path", tmp_path / "cache.jsonl")
        kwargs.setdefault("rate_per_sec", 10_000.0)
        return ExternalScoreClient(endpoint, **kwargs)

    def test_scores_via_http(self, score_server, tmp_path):
        endpoint, handler = score_server
        handler.scores["awful text"] = 0.9
        client = self.client(endpoint, tmp_path)
        assert client.score("awful text") == 0.9
        assert handler.calls[0]["text"] == "awful text"

    def test_cache_prevents_second_request(self, score_server, tmp_path):
        endpoint, handler = score_server
        client = self.client(endpoint, tmp_path)
        client.score("same text")
        client.score("same text")
        assert len(handler.calls) == 1
        assert client.requests_made == 1

    def test_warm_cache_makes_zero_network_calls(self, score_server, tmp_path):
        endpoint, handler = score_server
        first = self.client(endpoint, tmp_path)
        first.score("warm me")
        handler.calls.clear()
        second = self.client(endpoint, tmp_path)
        assert second.score("warm me") == 0.25
        assert handler.calls == []

    def test_auth_header_from_env(self, score_server, tmp_path, monkeypatch):
        endpoint, handler = score_server
        monkeypatch.setenv("SCORE_KEY", "sekrit")
        client = self.client(endpoint, tmp_path, key_env="SCORE_KEY")
        client.score("hello")
        assert handler.calls[0]["auth"] == "Bearer sekrit"

    def test_missing_key_env_raises(self, score_server, tmp_path, monkeypatch):
        endpoint, _ = score_server
        monkeypatch.delenv("NOPE_KEY", raising=False)
        client = self.client(endpoint, tmp_path, key_env="NOPE_KEY")
        with pytest.raises(ProviderError):
            client.score("hello")

    def test_http_error_raises_never_scores_zero(self, score_server, tmp_path):
        endpoint, handler = score_server
        handler.fail_mode = "http_error"
        client = self.client(endpoint, tmp_path)
        with pytest.raises(ProviderError):
            client.score("boom")

    def test_malformed_response_raises(self, score_server, tmp_path):
        endpoint, handler = score_server
        handler.fail_mode = "bad_json"
        client = self.client(endpoint, tmp_path)
        with pytest.raises(ProviderError):
            client.score("boom")

    def test_out_of_range_score_raises(self, score_server, tmp_path):
        endpoint, handler = score_server
        handler.fail_mode = "bad_score"
        client = self.client(endpoint, tmp_path)
        with pytest.raises(ProviderError):
            client.score("boom")

    def test_empty_text_rejected(self, score_server, tmp_path):
        endpoint, _ = score_server
        client = self.client(endpoint, tmp_path)
        with pytest.raises(ProviderError):
            client.score("")

    def test_corrupt_cache_rebuilt(self, score_server, tmp_path):
        endpoint, _ = score_server
        cache = tmp_path / "cache.jsonl"
        cache.write_text(
            json.dumps({"hash": "a" * 64, "score": 0.5})
            + "\ngarbage line\n"
            + json.dumps({"hash": "b" * 64, "score": 2.0})
            + "\n",
            encoding="utf-8",
        )
        client = self.client(endpoint, tmp_path, cache_path=cache)
        assert len(client._cache) == 1
        rebuilt = cache.read_text(encoding="utf-8").strip().splitlines()
        assert len(rebuilt) == 1

    def test_make_provider_requires_endpoint(self):
        with pytest.raises(ProviderError):
            ExternalScoreClient("")

    def test_make_provider_offline(self, lexicon):
        provider = OfflineToxicityProxy(lexicon)
        assert provider.kind == "offline_proxy"


class TestComparePolicies:
    def build_toxic_graph(self):
        comments = [
            make_comment("root", None, 0.0, EmotionKind.JOY, 0.3, text="celebrate today"),
            make_comment("t", "root", 1.0, EmotionKind.ANGER, 1.0, text="furious rage rage"),
            make_comment("t1", "t", 2.0, EmotionKind.ANGER, 0.9, text="furious rage about this"),
            make_comment("t2", "t", 3.0, EmotionKind.ANGER, 0.9, text="vile rotten filth here"),
            make_comment("calm", "root", 4.0, EmotionKind.TRUST, 0.4, text="honest point about the plan"),
        ]
        return build_graph(comments)

    def test_clean_graph_scores_zero_everywhere(self, lexicon):
        graph = build_graph(
            [
                make_comment("root", None, 0.0, EmotionKind.JOY, 0.3, text="happy news"),
                make_comment("a", "root", 1.0, EmotionKind.TRUST, 0.4, text="honest take"),
            ]
        )
        provider = OfflineToxicityProxy(lexicon)
        result = compare_policies_corpus([graph], provider)
        assert result.influence_and_toxicity.toxicity_reduction == 0.0
        assert result.toxicity_only.toxicity_reduction == 0.0
        assert result.influence_and_toxicity.detected_count == 0

    def test_influence_gate_narrows_detection(self, lexicon):
        graph = self.build_toxic_graph()
        provider = OfflineToxicityProxy(lexicon)
        result = compare_policies_corpus(
            [graph], provider, influence_percentile=80.0, toxicity_floor=0.5,
            text_only_floor=0.5,
        )
        a, b = result.influence_and_toxicity, result.toxicity_only
        assert result.node_count == 5
        # ungated text-only selection is a superset of the influence-gated one
        assert a.detected_count <= b.detected_count
        assert b.detected_count == 3  # the three toxic texts
        assert 0.0 < b.toxicity_reduction <= 1.0

    def test_influence_gated_policy_targets_engaged_subtrees(self, lexicon):
        graph = self.build_toxic_graph()
        # at kappa 0.5 the toxic texts score 0.5, 0.25 and 0.375
        provider = OfflineToxicityProxy(lexicon, kappa=0.5)
        result = compare_policies_corpus(
            [graph], provider, influence_percentile=70.0, toxicity_floor=0.2,
            text_only_floor=0.6,  # a text-only floor above every score
        )
        a, b = result.influence_and_toxicity, result.toxicity_only
        assert b.detected_count == 0 and b.toxicity_reduction == 0.0
        # the heavily-replied troll seed is influential enough to be caught
        assert a.detected_count >= 1
        assert a.removed_count >= a.detected_count
        assert a.toxicity_reduction > 0.0

    @pytest.mark.parametrize(
        "setting",
        [
            {"influence_percentile": 150.0},
            {"influence_percentile": -1.0},
            {"influence_percentile": float("nan")},
            {"toxicity_floor": float("nan")},
            {"toxicity_floor": -0.1},
            {"text_only_floor": 5.0},
            {"text_only_floor": float("nan")},
        ],
        ids=[
            "percentile=150", "percentile=-1", "percentile=nan", "toxicity-floor=nan",
            "toxicity-floor=-0.1", "text-only-floor=5", "text-only-floor=nan",
        ],
    )
    def test_out_of_range_setting_raises(self, lexicon, setting):
        graph = self.build_toxic_graph()
        with pytest.raises(ValueError, match="must lie in"):
            compare_policies_corpus([graph], OfflineToxicityProxy(lexicon), **setting)
        with pytest.raises(ValueError, match="must lie in"):
            check_policy_settings(
                **{
                    "influence_percentile": 95.0,
                    "toxicity_floor": 0.5,
                    "text_only_floor": 0.8,
                    **setting,
                }
            )

    def test_range_ends_are_accepted(self, lexicon):
        check_policy_settings(0.0, 0.0, 1.0)
        check_policy_settings(100.0, 1.0, 0.0)
        result = compare_policies_corpus(
            [self.build_toxic_graph()], OfflineToxicityProxy(lexicon),
            influence_percentile=100.0, toxicity_floor=1.0, text_only_floor=1.0,
        )
        assert result.toxicity_only.detected_count == 3
