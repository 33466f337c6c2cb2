"""Local chat-completion stub server for offline tests and demos.

Implements the wire protocol of :mod:`exsearch.llm` on 127.0.0.1 so every
network path (retries, stop handling, log-probability scoring) is exercised
without a live model. Behaviors:

* :class:`ScriptedBehavior` replays a fixed response sequence verbatim;
* :class:`ChainOracleBehavior` acts as a rule-based search agent over
  synthetic chain questions ("ent7 rel2 rel0"), reading its partial
  transcript with :func:`exsearch.grammar.iter_actions` and emitting
  well-formed THINK/RECORD/FINAL segments;
* :class:`FlakyBehavior` prefixes any behavior with scripted HTTP statuses.

:class:`StubChatServer` serves a behavior over HTTP/1.x from a lean
:mod:`socketserver` handler: it acts only on a request's ``Content-Length``
and ``Connection`` headers, keeps connections alive by :mod:`http.server`'s
rule, and sends each reply in one write. It needs only the standard library
and :mod:`exsearch.grammar`, and loads no :mod:`http.server`: the stub runs
as a child process in tests and benchmarks, and each start pays for what
this module imports.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import threading
from collections.abc import Callable, Sequence
from http import HTTPStatus

from .grammar import FINAL, RANK, RECORD, SEARCH, iter_actions

Responder = Callable[[dict], tuple[int, dict]]

_MAXLINE = 65536  # http.server's limit on a request or header line
_REASONS = {status.value: status.phrase.encode("ascii") for status in HTTPStatus}
_FIRST_DOC_RE = re.compile(r"\[1\] Title: .*? Content: (.*?)(?= \[\d+\] Title: |$)")


def chat_response(content: str, logprobs: list[dict] | None = None) -> dict:
    choice: dict = {"message": {"role": "assistant", "content": content}}
    if logprobs is not None:
        choice["logprobs"] = {"content": logprobs}
    return {"choices": [choice]}


def _truncate_at_stops(text: str, stops: Sequence[str]) -> str:
    cut = len(text)
    for stop in stops:
        idx = text.find(stop)
        if idx != -1:
            cut = min(cut, idx)
    return text[:cut]


class ScriptedBehavior:
    """Replay canned responses in order; each item is a str or a dict
    {"status": int, "content": str, "logprobs": [...]?}."""

    def __init__(self, script: list, index: int = 0):
        self.script = script
        self.index = index

    def __call__(self, request: dict) -> tuple[int, dict]:
        if self.index >= len(self.script):
            return 500, {"error": "scripted stub exhausted"}
        item = self.script[self.index]
        self.index += 1
        if isinstance(item, str):
            return 200, chat_response(item)
        status = item.get("status", 200)
        if status != 200:
            return status, {"error": f"scripted status {status}"}
        return 200, chat_response(item.get("content", ""), item.get("logprobs"))


class FlakyBehavior:
    """Answer with scripted HTTP statuses before delegating to ``inner``."""

    def __init__(self, statuses: list[int], inner: Responder):
        self.statuses = statuses
        self.inner = inner

    def __call__(self, request: dict) -> tuple[int, dict]:
        if self.statuses:
            status = self.statuses.pop(0)
            if status != 200:
                return status, {"error": f"flaky status {status}"}
        return self.inner(request)


class ChainOracleBehavior:
    """Deterministic search agent over synthetic chain questions.

    Reads the question's relation sequence from the user turn, records the
    object of the top injected document at each hop, and answers with the
    last recorded evidence; each generation is cut at the request's stop
    sequences. Scoring requests are answered from ``logprob_table`` (per
    whitespace token, ``default_logprob`` otherwise) unless
    ``logprobs_enabled`` is off.
    """

    def __init__(self, logprob_table: dict[str, float] | None = None,
                 default_logprob: float = -0.5, logprobs_enabled: bool = True):
        self.logprob_table = {} if logprob_table is None else logprob_table
        self.default_logprob = default_logprob
        self.logprobs_enabled = logprobs_enabled

    @staticmethod
    def _question(request: dict) -> str:
        for message in request.get("messages", []):
            if message.get("role") == "user":
                m = re.search(r"<USER QUERY>[ \t]*(.*)", message["content"])
                if m:
                    return m.group(1).strip()
        return ""

    @staticmethod
    def _partial(request: dict) -> str:
        partial = ""
        for message in request.get("messages", []):
            if message.get("role") == "assistant":
                partial = message["content"]
        return partial

    def _score(self, target: str) -> tuple[int, dict]:
        if not self.logprobs_enabled:
            return 200, chat_response(target)
        logprobs = [
            {"token": tok, "logprob": self.logprob_table.get(tok, self.default_logprob)}
            for tok in target.split()
        ]
        return 200, chat_response(target, logprobs)

    def __call__(self, request: dict) -> tuple[int, dict]:
        if "score_completion" in request:
            return self._score(request["score_completion"])

        question = self._question(request)
        tokens = question.split()
        relations = tokens[1:]
        actions = list(iter_actions(self._partial(request)))
        last = actions[-1] if actions else None
        searches = [payload for tag, payload in actions if tag == SEARCH]
        records = [payload for tag, payload in actions if tag == RECORD]

        if last == (FINAL, ""):
            text = f" {records[-1] if records else 'unknown'}\n"
        elif last == (RANK, ""):
            text = " " + " > ".join(f"[{i}]" for i in range(1, 4)) + "\n"
        elif len(searches) > len(records):
            hop = len(searches)
            doc = _FIRST_DOC_RE.search(searches[-1])
            obj = doc.group(1).split()[-1] if doc and doc.group(1).split() else "unknown"
            if hop < len(relations):
                text = f"<RECORD> {obj}\n<THINK> {obj} {relations[hop]}\n<SEARCH>"
            else:
                text = f"<RECORD> {obj}\n<FINAL>"
        elif not actions:
            start = tokens[0] if tokens else "unknown"
            first_rel = relations[0] if relations else ""
            text = f"<THINK> {start} {first_rel}\n<SEARCH>"
        else:
            text = "<FINAL>"

        return 200, chat_response(_truncate_at_stops(text, request.get("stop", [])))


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True  # as http.server's ThreadingHTTPServer sets them
    allow_reuse_address = True
    stopping = False

    def serve_until_stopped(self) -> None:
        """Accept connections until ``stopping`` is set. ``handle_request``
        waits without a timeout, so an idle server never wakes up; the
        connection :meth:`StubChatServer.__exit__` opens after setting
        ``stopping`` ends the last wait, and is refused unserved."""
        while not self.stopping:
            self.handle_request()

    def verify_request(self, request, client_address) -> bool:
        return not self.stopping


class StubChatServer:
    """Threaded HTTP/1.x server speaking the chat-completion protocol.

    Each connection is served by its own daemon thread. Per request the
    handler reads the request line and the header lines, acting only on
    ``Content-Length`` and ``Connection``, reads the body by its
    ``Content-Length`` (chunked bodies and ``Expect: 100-continue`` are not
    supported), calls the behavior under one lock, and writes the status
    line, ``Content-Type``, ``Content-Length`` and the JSON body in one
    write. A method other than POST gets 501 and a malformed request line or
    ``Content-Length`` 400, and each closes the connection.

    Connections follow :mod:`http.server`'s keep-alive rule: one stays open
    only when the handler's ``protocol_version`` is ``"HTTP/1.1"`` (the
    default is ``"HTTP/1.0"``) and the request either is HTTP/1.1 without
    ``Connection: close`` or says ``Connection: keep-alive``. The handler
    class is ``_server.RequestHandlerClass``, one per server; setting its
    ``disable_nagle_algorithm`` turns on TCP_NODELAY.

    The ``with`` block runs the server. Leaving it stops the server at once:
    the accept loop waits with no poll interval, and the exit wakes it with
    one connection that it refuses.
    """

    def __init__(self, behavior: Responder):
        self.behavior = behavior
        self._lock = threading.Lock()
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            protocol_version = "HTTP/1.0"

            def handle(self):
                while self._serve_one():
                    pass

            def _serve_one(self) -> bool:
                """Answer one request; whether the connection stays open."""
                words = self.rfile.readline(_MAXLINE + 1).split()
                if not words:  # end of stream, or a blank line, which http.server also drops
                    return False
                headers = {}
                while (line := self.rfile.readline(_MAXLINE + 1)) not in (b"\r\n", b"\n", b""):
                    name, _, value = line.partition(b":")
                    headers.setdefault(name.strip().lower(), value.strip())
                if len(words) != 3 or not words[2].startswith(b"HTTP/"):
                    return self._reply(400, {"error": "malformed request line"}, False)
                method, _, version = words
                if method != b"POST":
                    return self._reply(501, {"error": f"unsupported method {method!r}"},
                                       False)
                try:
                    length = int(headers.get(b"content-length", 0))
                except ValueError:
                    length = -1
                if length < 0:
                    return self._reply(400, {"error": "malformed Content-Length"}, False)
                connection = headers.get(b"connection", b"").lower()
                keep_alive = self.protocol_version >= "HTTP/1.1" and (
                    connection == b"keep-alive"
                    or (version >= b"HTTP/1.1" and connection != b"close"))
                try:
                    request = json.loads(self.rfile.read(length))
                except ValueError:  # not JSON, or not UTF-8
                    request = None
                if not isinstance(request, dict):
                    return self._reply(400, {"error": "request body is not a JSON object"},
                                       keep_alive)
                try:
                    with outer._lock:
                        status, body = outer.behavior(request)
                except Exception as exc:  # answer, and keep serving
                    import traceback  # here only: a clean start need not load it

                    traceback.print_exc()
                    status, body = 500, {"error": f"stub behavior raised {exc!r}"}
                return self._reply(status, body, keep_alive)

            def _reply(self, status: int, body: dict, keep_alive: bool) -> bool:
                payload = json.dumps(body).encode("utf-8")
                self.wfile.write(b"%s %d %s\r\nContent-Type: application/json\r\n"
                                 b"Content-Length: %d\r\n\r\n%s" % (
                                     self.protocol_version.encode("ascii"), status,
                                     _REASONS.get(status, b""), len(payload), payload))
                return keep_alive

        self._server = _Server(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_until_stopped,
                                        daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1"

    def __enter__(self) -> "StubChatServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.stopping = True
        # A connection wakes the accept loop at once; it waits in the listen
        # backlog if the loop has not yet begun to wait.
        socket.create_connection(self._server.server_address).close()
        self._thread.join()
        self._server.server_close()
