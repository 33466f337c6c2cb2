import threading
from pathlib import Path

import pytest

from exsearch.errors import AuthError, EndpointError, LogprobsUnsupported
from exsearch.llm import (
    ChatTurn,
    EndpointConfig,
    HttpChatClient,
    build_system_prompt,
    build_user_turn,
)
from exsearch.stub import ChainOracleBehavior, FlakyBehavior, ScriptedBehavior, StubChatServer
from exsearch.trajectory import ScoredPassage, Step, Trajectory

FIXTURES = Path(__file__).parent / "fixtures"


def make_config(server, **kw):
    kw.setdefault("backoff_base", 0.01)
    return EndpointConfig(base_url=server.base_url, model_name="stub", **kw)


def simple_trajectory():
    step = Step(sub_query="alpha rel", retrieved=(ScoredPassage("p1", 1.0, 1),),
                selected=None, evidence="beta", hop=1)
    return Trajectory(question="alpha rel", steps=(step,), terminated=True, budget=2)


class TestPrompts:
    def test_assembled_prompt_matches_golden_bytes(self):
        golden = (FIXTURES / "agent_prompt_golden.txt").read_text(encoding="utf-8")
        assembled = build_system_prompt() + "\n\n" + build_user_turn("Q")
        assert assembled == golden

    def test_user_turn_carries_query_marker(self):
        assert "<USER QUERY> Q" in build_user_turn("Q")

    def test_deterministic(self):
        q = "Which magazine was started first?"
        assert build_user_turn(q) == build_user_turn(q)
        assert build_system_prompt() == build_system_prompt()

    def test_chat_turn_validation(self):
        with pytest.raises(ValueError):
            ChatTurn("user", "")
        with pytest.raises(ValueError):
            ChatTurn("oracle", "x")


class TestComplete:
    def test_echoes_canned_trace_verbatim(self):
        canned = "<THINK> a sub-query\n"
        with StubChatServer(ScriptedBehavior([canned])) as server:
            client = HttpChatClient(make_config(server))
            out = client.complete([ChatTurn("system", "s"), ChatTurn("user", "u")],
                                  ["<SEARCH>"])
        assert out == canned

    def test_retries_through_two_429s(self):
        behavior = FlakyBehavior([429, 429], ScriptedBehavior(["ok"]))
        with StubChatServer(behavior) as server:
            client = HttpChatClient(make_config(server, max_retries=3))
            out = client.complete([ChatTurn("user", "u")], [])
        assert out == "ok"

    def test_gives_up_after_max_retries(self):
        behavior = FlakyBehavior([500] * 10, ScriptedBehavior(["never"]))
        with StubChatServer(behavior) as server:
            client = HttpChatClient(make_config(server, max_retries=2))
            with pytest.raises(EndpointError):
                client.complete([ChatTurn("user", "u")], [])

    def test_refused_connection_fails_later_requests_at_once(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("exsearch.llm.time.sleep", sleeps.append)
        with StubChatServer(ScriptedBehavior(["never"])) as server:
            config = make_config(server, max_retries=2)
        client = HttpChatClient(config)
        posts = []
        real_post = client._session.post
        monkeypatch.setattr(client._session, "post",
                            lambda *a, **kw: posts.append(1) or real_post(*a, **kw))
        with pytest.raises(EndpointError, match="after 3 attempts"):
            client.complete([ChatTurn("user", "u")], [])
        for _ in range(3):
            with pytest.raises(EndpointError, match="^endpoint unreachable: "):
                client.complete([ChatTurn("user", "u")], [])
        assert len(posts) == 3 and len(sleeps) == 2

    def test_server_errors_do_not_mark_client_unreachable(self):
        behavior = FlakyBehavior([500] * 3, ScriptedBehavior(["ok"]))
        with StubChatServer(behavior) as server:
            client = HttpChatClient(make_config(server, max_retries=2))
            with pytest.raises(EndpointError, match="HTTP 500"):
                client.complete([ChatTurn("user", "u")], [])
            assert client.complete([ChatTurn("user", "u")], []) == "ok"

    def test_missing_api_key_fails_before_any_request(self, monkeypatch):
        monkeypatch.delenv("EXSEARCH_API_KEY", raising=False)
        calls = []

        def behavior(request):
            calls.append(request)
            return 200, {"choices": [{"message": {"content": "x"}}]}

        with StubChatServer(behavior) as server:
            client = HttpChatClient(make_config(server))
            with pytest.raises(AuthError):
                client.complete([ChatTurn("user", "u")], [])
        assert calls == []

    def test_401_is_not_retried(self):
        statuses = []

        def behavior(request):
            statuses.append(1)
            return 401, {"error": "no"}

        with StubChatServer(behavior) as server:
            client = HttpChatClient(make_config(server, max_retries=5))
            with pytest.raises(AuthError):
                client.complete([ChatTurn("user", "u")], [])
        assert len(statuses) == 1

    def test_parallelism_cap_is_respected(self):
        active = {"now": 0, "peak": 0}
        lock = threading.Lock()
        release = threading.Event()

        def behavior(request):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            release.wait(0.2)
            with lock:
                active["now"] -= 1
            return 200, {"choices": [{"message": {"content": "x"}}]}

        with StubChatServer(behavior) as server:
            client = HttpChatClient(make_config(server, parallelism_cap=2))
            threads = [threading.Thread(
                target=lambda: client.complete([ChatTurn("user", "u")], []))
                for _ in range(6)]
            for t in threads:
                t.start()
            release.set()
            for t in threads:
                t.join()
        assert active["peak"] <= 2


class TestScoring:
    def test_token_logprobs_are_summed(self):
        script = [{"content": "four times",
                   "logprobs": [{"token": "four", "logprob": -0.1},
                                {"token": "times", "logprob": -0.2}]}]
        with StubChatServer(ScriptedBehavior(script)) as server:
            client = HttpChatClient(make_config(server, supports_logprobs="yes"))
            got = client.score_answer_logprob("alpha rel", simple_trajectory(),
                                              "four times")
        assert got == pytest.approx(-0.3)

    def test_backend_without_logprobs_raises(self):
        with StubChatServer(ChainOracleBehavior(logprobs_enabled=False)) as server:
            client = HttpChatClient(make_config(server, supports_logprobs="probe"))
            with pytest.raises(LogprobsUnsupported):
                client.score_answer_logprob("alpha rel", simple_trajectory(), "x")

    def test_probe_caches_negative_result(self):
        calls = []
        oracle = ChainOracleBehavior(logprobs_enabled=False)

        def behavior(request):
            calls.append(1)
            return oracle(request)

        with StubChatServer(behavior) as server:
            client = HttpChatClient(make_config(server, supports_logprobs="probe"))
            for _ in range(3):
                with pytest.raises(LogprobsUnsupported):
                    client.score_answer_logprob("alpha rel", simple_trajectory(), "x")
        assert len(calls) == 1

    def test_configured_no_never_calls_endpoint(self):
        def behavior(request):
            raise AssertionError("must not be called")

        with StubChatServer(behavior) as server:
            client = HttpChatClient(make_config(server, supports_logprobs="no"))
            with pytest.raises(LogprobsUnsupported):
                client.score_answer_logprob("alpha rel", simple_trajectory(), "x")

    def test_longer_answer_never_scores_above_its_prefix(self):
        table = {"alpha": -0.4, "beta": -1.1, "gamma": -0.2}
        oracle = ChainOracleBehavior(logprob_table=table, default_logprob=-0.5)
        with StubChatServer(oracle) as server:
            client = HttpChatClient(make_config(server, supports_logprobs="yes"))
            words = ["alpha", "beta", "gamma", "delta"]
            scores = [client.score_answer_logprob("alpha rel", simple_trajectory(),
                                                  " ".join(words[:n]))
                      for n in range(1, len(words) + 1)]
        assert all(b <= a for a, b in zip(scores, scores[1:]))
