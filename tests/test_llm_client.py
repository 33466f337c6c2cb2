import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.parse
from pathlib import Path

import pytest

from exsearch.errors import AuthError, EndpointError, LogprobsUnsupported, Timeout
from exsearch.llm import (
    ChatTurn,
    EndpointConfig,
    HttpChatClient,
    build_system_prompt,
    build_user_turn,
)
from exsearch.stub import (ChainOracleBehavior, FlakyBehavior, ScriptedBehavior, StubChatServer,
                           chat_response)
from exsearch.trajectory import ScoredPassage, Step, Trajectory

FIXTURES = Path(__file__).parent / "fixtures"


def make_config(server, **kw):
    kw.setdefault("backoff_base", 0.01)
    return EndpointConfig(base_url=server.base_url, model_name="stub", **kw)


class KeepAliveOnceServer:
    """Raw-socket HTTP/1.1 server that answers one request per connection
    with a keep-alive response, then closes the connection the client
    holds idle. ``closed`` is set each time it has closed one."""

    def __init__(self, content: str = "ok"):
        self.body = json.dumps(chat_response(content)).encode("utf-8")
        self.connections = 0
        self.closed = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self._listener.getsockname()[1]}/v1"

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            with conn, conn.makefile("rb") as request:
                length = 0
                while (line := request.readline()) not in (b"\r\n", b""):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                request.read(length)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                             b"Connection: keep-alive\r\n"
                             b"Content-Length: %d\r\n\r\n" % len(self.body) + self.body)
            self.closed.set()

    def __enter__(self) -> "KeepAliveOnceServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        # close() alone does not wake a thread blocked in accept() on Linux
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._thread.join(timeout=5)


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
        real_send = client._send
        monkeypatch.setattr(client, "_send",
                            lambda *a, **kw: posts.append(1) or real_send(*a, **kw))
        with pytest.raises(EndpointError, match="after 3 attempts"):
            client.complete([ChatTurn("user", "u")], [])
        for _ in range(3):
            with pytest.raises(EndpointError, match="^endpoint unreachable: "):
                client.complete([ChatTurn("user", "u")], [])
        assert len(posts) == 3 and len(sleeps) == 2

    def test_reopens_a_kept_alive_connection_the_server_closed(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("exsearch.llm.time.sleep", sleeps.append)
        with KeepAliveOnceServer() as server:
            client = HttpChatClient(make_config(server, max_retries=0))
            assert client.complete([ChatTurn("user", "u")], []) == "ok"
            assert server.closed.wait(5)
            assert client.complete([ChatTurn("user", "u")], []) == "ok"
        assert server.connections == 2 and sleeps == []

    def test_stalled_endpoint_times_out_and_stays_reachable(self, monkeypatch):
        stalled = []
        both_stalled = threading.Event()

        def behavior(request):
            if len(stalled) < 2:
                time.sleep(0.3)
                stalled.append(1)
                if len(stalled) == 2:
                    both_stalled.set()
                return 200, chat_response("late")
            return 200, chat_response("ok")

        with StubChatServer(behavior) as server:
            client = HttpChatClient(make_config(server, timeout=0.1, max_retries=1))
            sends = []
            real_send = client._send
            monkeypatch.setattr(client, "_send",
                                lambda *a, **kw: sends.append(1) or real_send(*a, **kw))
            with pytest.raises(Timeout, match="after 2 attempts"):
                client.complete([ChatTurn("user", "u")], [])
            assert len(sends) == 2
            assert both_stalled.wait(5)
            assert client.complete([ChatTurn("user", "u")], []) == "ok"

    def test_http_proxy_from_the_environment_carries_the_request(self, monkeypatch):
        received = []

        def behavior(request):
            received.append(request)
            return 200, chat_response("via proxy")

        for name in ("no_proxy", "NO_PROXY", "all_proxy", "ALL_PROXY"):
            monkeypatch.delenv(name, raising=False)
        with StubChatServer(behavior) as proxy:
            monkeypatch.setenv("http_proxy", proxy.base_url.rsplit("/", 1)[0])
            client = HttpChatClient(EndpointConfig(base_url="http://endpoint.invalid/v1",
                                                   model_name="stub", max_retries=0))
            assert client.complete([ChatTurn("user", "u")], []) == "via proxy"
        assert [r["model"] for r in received] == ["stub"]

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
        # The stub runs its behavior under a lock, so requests in flight are
        # counted in the handler: from a parsed request to its response,
        # whose first byte the client cannot read before send_response.
        active = {"now": 0, "peak": 0}
        lock = threading.Lock()

        def behavior(request):
            time.sleep(0.05)  # time for every uncapped request to arrive
            return 200, {"choices": [{"message": {"content": "x"}}]}

        server = StubChatServer(behavior)
        handler = server._server.RequestHandlerClass
        parse, respond = handler.parse_request, handler.send_response

        def parse_request(h):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            return parse(h)

        def send_response(h, *args):
            with lock:
                active["now"] -= 1
            respond(h, *args)

        handler.parse_request, handler.send_response = parse_request, send_response
        with server:
            client = HttpChatClient(make_config(server, parallelism_cap=2))
            threads = [threading.Thread(
                target=lambda: client.complete([ChatTurn("user", "u")], []))
                for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert active["peak"] <= 2

    def test_threads_share_at_most_cap_kept_alive_connections(self):
        def echo(request):
            return 200, chat_response(request["messages"][-1]["content"])

        server = StubChatServer(echo)
        server._server.RequestHandlerClass.protocol_version = "HTTP/1.1"
        accepted = []
        process = server._server.process_request
        server._server.process_request = lambda *a: accepted.append(1) or process(*a)
        wrong = []

        def worker(client, t):
            for i in range(15):
                text = f"thread {t} request {i}"
                try:
                    got = client.complete([ChatTurn("user", text)], [])
                except EndpointError as exc:
                    got = exc
                if got != text:
                    wrong.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                client = HttpChatClient(make_config(server, parallelism_cap=3))
                threads = [threading.Thread(target=worker, args=(client, t))
                           for t in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert 1 <= len(accepted) <= 3


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


class TestEndpointConfig:
    @pytest.mark.parametrize("field, value", [
        ("base_url", "localhost:8000/v1"),
        ("base_url", "ftp://host/v1"),
        ("base_url", "http:///v1"),
        ("base_url", "http://host:port/v1"),
        ("model_name", 3),
        ("api_key_env", None),
        ("timeout", "3"),
        ("timeout", True),
        ("timeout", float("inf")),
        ("timeout", 0),
        ("backoff_base", -1.0),
        ("max_retries", 2.0),
        ("max_retries", -1),
        ("parallelism_cap", "4"),
        ("parallelism_cap", 0),
    ])
    def test_rejects_ill_typed_or_out_of_range_values(self, field, value):
        kw = {"base_url": "http://127.0.0.1:9/v1", "model_name": "stub", field: value}
        with pytest.raises(ValueError, match=field):
            EndpointConfig(**kw)

    def test_accepts_integer_timeouts_and_https(self):
        config = EndpointConfig(base_url="https://example.org/v1", model_name="m",
                                timeout=3, backoff_base=0)
        assert config.timeout == 3


class TestStubServer:
    @pytest.mark.parametrize("body, status", [
        (b"[]", 400),                   # JSON, but not an object
        (b"\xff{not json", 400),        # neither UTF-8 nor JSON
        (b'{"messages": "x"}', 500),    # the behavior raises AttributeError
    ], ids=["array", "undecodable", "behavior-raises"])
    def test_bad_bodies_get_an_error_response(self, body, status):
        with StubChatServer(ChainOracleBehavior()) as server:
            url = urllib.parse.urlsplit(server.base_url)
            conn = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
            try:
                conn.request("POST", "/v1/chat/completions", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == status
                assert "error" in json.loads(response.read())
            finally:
                conn.close()
            # the server keeps serving after the bad request
            client = HttpChatClient(make_config(server))
            out = client.complete([ChatTurn("user", "<USER QUERY> ent1 rel0")], ["<SEARCH>"])
            assert out == "<THINK> ent1 rel0\n"


def loaded_modules(imports: str) -> set[str]:
    """The modules in ``sys.modules`` after ``import <imports>`` in a fresh
    interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"import sys, {imports}; print('\\n'.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return set(out.stdout.split())


def test_importing_exsearch_leaves_requests_unloaded():
    loaded = loaded_modules("exsearch, exsearch.cli, exsearch.stub")
    assert sorted(m for m in loaded if m.split(".")[0] == "requests") == []


@pytest.mark.parametrize("module", ["exsearch.stub", "exsearch.trajectory",
                                    "exsearch.retrieval", "exsearch.metrics"])
def test_light_modules_load_neither_numpy_nor_the_trainer(module):
    heavy = {"numpy", "exsearch.policy", "exsearch.training"}
    assert sorted(loaded_modules(module) & heavy) == []
