"""HTTP chat-completion client and the chat-driven policy built on it.

The engine, not the model, executes retrieval: generation is driven
turn-by-turn with stop sequences at the search and final-answer tags, and
retrieved documents are injected into the running transcript between
generations. Each generation is read with :func:`exsearch.grammar.iter_actions`,
so a tag counts only at the start of a line: an episode records the first
<RECORD> payload and takes the last <THINK> that has a payload as its next
sub-query; a generation without one ends the search. The wire protocol is the de-facto open chat-completion shape:

    request  {"model", "messages": [{"role", "content"}, ...],
              "max_tokens", "stop": [...], "logprobs"?: bool,
              "score_completion"?: str}
    response {"choices": [{"message": {"role", "content"},
                           "logprobs"?: {"content": [{"token", "logprob"}]}}]}

Requests are JSON POSTs to ``<base_url>/chat/completions``. The standard
library's :mod:`http.client` only opens connections: TCP, TLS verified
against the system trust store (``SSL_CERT_FILE``, ``SSL_CERT_DIR``) with
SNI, and the ``CONNECT`` tunnel to an HTTPS endpoint through a proxy. The
exchange runs here on the open socket: each request goes out in one write,
byte for byte what ``HTTPConnection.request`` sends, and the reply is read
from a per-connection buffer. Replies may use ``Content-Length``, chunked
transfer coding or end at the close of the connection; ``1xx`` replies are
skipped. Status lines and headers longer than 65,536 bytes, more than 100
headers, and malformed or truncated replies raise
:class:`http.client.HTTPException` subclasses, retried like transport errors.
Connections stay open (HTTP/1.1 keep-alive), one per request in flight, and
are reused by the next request from any thread; each thread sends one request
at a time, so the caller's worker threads (``--jobs``) bound both. One the
server has closed while idle, asked to close, or sent more bytes than its
reply, is reopened before use. Proxies come from the environment (``http_proxy``,
``https_proxy``, ``no_proxy``), resolved once per client.

A trailing assistant message is treated as a prefix the model continues.
``score_completion`` requests per-token log-probabilities of the given text
conditioned on the messages; servers without log-probability support simply
omit the ``logprobs`` field (or send null), which surfaces as
LogprobsUnsupported here; the first scoring request settles this, and a
negative answer is cached. A reply of any other shape than the one above,
including a log-probability that is not a finite number <= 0, raises
EndpointError.

:func:`chat_turns` builds the prompt that generation, answer scoring and the
SFT records of :mod:`exsearch.training` share.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import socket
import ssl
import threading
import time
import urllib.parse
import urllib.request
import weakref
from base64 import b64encode
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import AuthError, EndpointError, LogprobsUnsupported, NoDocuments, Timeout
from .grammar import FINAL_VARIANTS, RANK, RECORD, SEARCH, THINK, iter_actions
from .trajectory import Passage, Trajectory, check_settings, finite_real, render_transcript

if TYPE_CHECKING:  # the episode's annotations only: importing the client loads no numpy
    import numpy as np

DEFAULT_API_KEY_ENV = "EXSEARCH_API_KEY"
MAX_RETRIES = 20  # the largest max_retries an EndpointConfig accepts
MAX_BACKOFF_S = 60.0  # the longest wait before a retry, jitter included
# The largest timeout an EndpointConfig accepts: an hour outlasts any one
# completion, and socket timeouts hold at most 2**63 ns (a larger one raises
# OverflowError on the first request).
MAX_TIMEOUT_S = 3600.0

SYSTEM_PROMPT = """You are an intelligent search agent capable of simulating a question-answering process by actively seeking information from Wikipedia to answer a given question.

Specifically, given an open-domain query, please iteratively: (1) Formulate a sub-query to search on Wikipedia; (2) Select useful documents from the search results and (3) Extract supporting facts from the selected documents.
Your output should include three types of special actions corresponding to the above steps:
(1) <THINK>: Formulate a sub-query.
(2) <SEARCH>: Retrieve and carefully read the documents using the formulated sub-query.
(3) <RECORD>: Extract the answer to the sub-query from the documents.

Since this is a multi-hop question, your output should interleave <THINK>, <SEARCH> and <RECORD> actions until reaching the final answer. Conclude your output with the special token <FINIAL> followed by the final answer."""

USER_TURN_TEMPLATE = """Below is the task for you to complete:

<USER QUERY> {question}
Your Output:"""

# The tag grammar tolerates all final-token spellings the prompt and parser
# know about, so generation halts wherever the model announces its answer.
GENERATION_STOPS = [SEARCH, *FINAL_VARIANTS]
# Token limit of a generation; an episode's rank and answer generations use 64.
MAX_TOKENS = 512


def build_system_prompt() -> str:
    """The static instruction block sent as the system turn."""
    return SYSTEM_PROMPT


def build_user_turn(question: str) -> str:
    """The task block sent as the user turn."""
    return USER_TURN_TEMPLATE.format(question=question)


@dataclass(frozen=True)
class ChatTurn:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown chat role {self.role!r}")
        if self.role in ("system", "user") and not self.content:
            raise ValueError(f"{self.role} turn must have content")


def chat_turns(question: str, assistant: str = "") -> list[ChatTurn]:
    """The system turn, the user turn for ``question`` and, when
    ``assistant`` is non-empty, the assistant prefix the model continues."""
    turns = [ChatTurn("system", build_system_prompt()),
             ChatTurn("user", build_user_turn(question))]
    if assistant:
        turns.append(ChatTurn("assistant", assistant))
    return turns


def wire_messages(turns: Sequence[ChatTurn]) -> list[dict]:
    """Turns as ``{"role", "content"}`` messages, in requests and SFT records."""
    return [{"role": t.role, "content": t.content} for t in turns]


def _last_subquery(actions: Sequence[tuple[str, str]]) -> str | None:
    """The payload of the last <THINK> that has one; None when none has."""
    return next((payload for tag, payload in reversed(actions) if tag == THINK and payload),
                None)


def _answer_prefix(trajectory: Trajectory) -> str:
    """The assistant prefix of answering and answer scoring: the canonical
    transcript (no document bodies) closed by a bare final-answer tag."""
    return render_transcript(trajectory, "")


@dataclass
class EndpointConfig:
    """Connection settings for one chat-completion endpoint."""

    base_url: str
    model_name: str
    api_key_env: str = DEFAULT_API_KEY_ENV
    timeout: float = 30.0
    max_retries: int = 3
    backoff_base: float = 1.0

    def __post_init__(self):
        check_settings(self)
        try:
            url = urllib.parse.urlsplit(self.base_url)
            url.port
        except ValueError as exc:  # a malformed port or IPv6 literal
            raise ValueError(f"base_url {self.base_url!r}: {exc}") from None
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http:// or https:// URL naming a "
                             f"host, got {self.base_url!r}")
        if not 0 < self.timeout <= MAX_TIMEOUT_S:
            raise ValueError(f"timeout must be positive and at most {MAX_TIMEOUT_S:g} s")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if not 0 <= self.max_retries <= MAX_RETRIES:
            raise ValueError(f"max_retries must be between 0 and {MAX_RETRIES}")


class _ConnectFailed(OSError):
    """The connection to the endpoint (or its proxy) could not be opened."""


# http.client's limits on a reply: bytes in a line, header lines per reply
_MAXLINE = 65536
_MAXHEADERS = 100
_CONTROL_RE = re.compile(r"[\x00-\x1f\x7f]")


def _header_value(value: str) -> bytes:
    """A request header's value on the wire; ValueError (as
    ``HTTPConnection.putheader`` raises) when it cannot be sent as is."""
    if _CONTROL_RE.search(value):
        raise ValueError(f"header value {value!r} holds a control character")
    return value.encode("latin-1")


def _host_header(host: str, port: int | None, default_port: int) -> bytes:
    """The Host header ``http.client`` sends for ``host`` and ``port``; a
    port of None means ``host`` is a URL's netloc, sent as written."""
    try:
        name = host.encode("ascii")
    except UnicodeEncodeError:
        name = host.encode("idna")
    if port is not None and ":" in host:
        name = b"[" + name + b"]"
    if name.startswith(b"["):  # an IPv6 literal loses its zone
        name, zone, _ = name.partition(b"%")
        if zone:
            name += b"]"
    if port is None or port == default_port:
        return name
    return b"%s:%d" % (name, port)


class _Connection:
    """One kept-alive connection. ``http`` (an ``HTTPConnection``) opens the
    socket; requests and replies go over ``sock`` here. ``buffer`` holds the
    bytes received but not yet parsed: it exists while the socket does."""

    __slots__ = ("http", "sock", "buffer")

    def __init__(self, conn: http.client.HTTPConnection):
        self.http = conn
        self.sock: socket.socket | None = None
        self.buffer: bytearray | None = None

    def open(self) -> None:
        self.http.connect()
        self.sock = self.http.sock
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()

    def close(self) -> None:
        self.sock = self.buffer = None
        self.http.close()

    def _fill(self) -> bool:
        """Receive what the peer has sent; False at the end of the stream."""
        data = self.sock.recv(65536)
        self.buffer += data
        return bool(data)

    def _line(self, what: str) -> bytes:
        """The next line with its ending; at the end of the stream, what is
        left (b"" when nothing is)."""
        buffer = self.buffer
        start = 0
        while (end := buffer.find(b"\n", start)) < 0:
            if len(buffer) > _MAXLINE:
                raise http.client.LineTooLong(what)
            start = len(buffer)
            if not self._fill():
                line = bytes(buffer)
                buffer.clear()
                return line
        if end >= _MAXLINE:
            raise http.client.LineTooLong(what)
        line = bytes(buffer[:end + 1])
        del buffer[:end + 1]
        return line

    def _take(self, n: int) -> bytes:
        buffer = self.buffer
        while len(buffer) < n:
            if not self._fill():
                raise http.client.IncompleteRead(bytes(buffer), n - len(buffer))
        data = bytes(buffer[:n])
        del buffer[:n]
        return data

    def _read_head(self) -> tuple[bytes, int, dict[bytes, bytes]]:
        """A reply's version, status and headers (names lower-cased; the
        first of repeated ones)."""
        line = self._line("status line")
        if not line:
            raise http.client.RemoteDisconnected(
                "Remote end closed connection without response")
        parts = line.split(None, 2)
        if (len(parts) < 2 or not parts[0].startswith(b"HTTP/")
                or len(parts[1]) != 3 or not parts[1].isdigit()):
            raise http.client.BadStatusLine(line.decode("latin-1"))
        headers: dict[bytes, bytes] = {}
        lines = 0
        while (header := self._line("header line")) not in (b"\r\n", b"\n", b""):
            lines += 1
            if lines > _MAXHEADERS:
                raise http.client.HTTPException(f"got more than {_MAXHEADERS} headers")
            name, colon, value = header.partition(b":")
            if colon:
                headers.setdefault(name.strip().lower(), value.strip())
        return parts[0], int(parts[1]), headers

    def _chunked(self) -> bytes:
        chunks = []
        while True:
            size = self._line("chunk size").partition(b";")[0]
            try:
                n = int(size, 16)
            except ValueError:
                n = -1
            if n < 0:
                raise http.client.IncompleteRead(b"".join(chunks))
            if n == 0:
                break
            chunks.append(self._take(n))
            self._take(2)  # the chunk's CRLF
        while self._line("trailer line") not in (b"\r\n", b"\n", b""):
            pass
        return b"".join(chunks)

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        """Send ``request`` in one write and read its reply: the status and
        the body. The connection is closed after a reply that ends it and
        when bytes beyond the reply have arrived."""
        self.sock.sendall(request)
        version, status, headers = self._read_head()
        while 100 <= status < 200:
            version, status, headers = self._read_head()
        tokens = headers.get(b"connection", b"").lower()
        if version in (b"HTTP/1.0", b"HTTP/0.9"):
            close = b"keep-alive" not in tokens and b"keep-alive" not in headers
        elif version.startswith(b"HTTP/1."):
            close = b"close" in tokens
        else:
            raise http.client.UnknownProtocol(version.decode("latin-1"))
        length = headers.get(b"content-length", b"")
        if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
            body = self._chunked()
        elif status in (204, 304):
            body = b""
        elif length.isdigit():
            body = self._take(int(length))
        else:  # the body ends with the connection
            while self._fill():
                pass
            body, close = bytes(self.buffer), True
        if close or self.buffer:
            self.close()
        return status, body


def _dropped(sock: socket.socket) -> bool:
    """Whether an idle kept-alive socket is readable: the server has closed
    it (or sent bytes no request asked for), so it must not be reused."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _close_all(connections: list[_Connection]) -> None:
    while connections:
        connections.pop().close()


def _head(body: bytes) -> str:
    """The start of an error response's body, for the error message."""
    return body.decode("utf-8", "replace")[:200]


def _environment_proxy(scheme: str, origin: str) -> tuple[tuple[str, int] | None,
                                                         dict[str, str]]:
    """The proxy the environment names for ``scheme://origin`` (None when it
    names none or ``no_proxy`` exempts the origin) and the headers that
    authenticate to it."""
    proxies = urllib.request.getproxies()
    proxy = proxies.get(scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(origin):
        return None, {}
    url = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    if url.scheme != "http" or not url.hostname:
        raise ValueError(f"unsupported proxy {proxy!r}: need http://host[:port]")
    address = (url.hostname, url.port or 80)
    if url.username is None:
        return address, {}
    user = urllib.parse.unquote(url.username)
    password = urllib.parse.unquote(url.password or "")
    token = b64encode(f"{user}:{password}".encode()).decode("ascii")
    return address, {"Proxy-Authorization": f"Basic {token}"}


class HttpChatClient:
    """Thread-safe chat-completion client.

    Requests go over kept-alive connections, one per request in flight and
    reused by whichever thread sends next, so there are at most as many as
    threads calling the client; they are closed when the client is
    garbage-collected. The target URL, the proxy and the TLS context are
    resolved once, here.

    Retries transport errors and HTTP 429/5xx with exponential backoff
    (factor 2 plus up to 10% jitter, each wait at most ``MAX_BACKOFF_S``) up
    to ``max_retries`` (at most ``MAX_RETRIES``); 401/403 raise AuthError
    immediately and are never retried. A request whose every attempt failed
    to connect marks the client unreachable: each later request raises
    EndpointError at once, without network I/O or backoff. Whether the
    endpoint reports log-probabilities is settled by the first scoring
    request (one thread probes while the others wait) and cached write-once.
    """

    def __init__(self, config: EndpointConfig):
        self.config = config
        url = urllib.parse.urlsplit(f"{config.base_url.rstrip('/')}/chat/completions")
        origin = url.netloc.rpartition("@")[2]
        default_port = 443 if url.scheme == "https" else 80
        self._address = (url.hostname, url.port or default_port)
        path = urllib.parse.quote(url.path + (f"?{url.query}" if url.query else ""),
                                  safe="!#$%&'()*+,/:;=?@[]~")
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        self._proxy, self._proxy_headers = _environment_proxy(url.scheme, origin)
        self._peer = self._proxy or self._address  # where connections go
        headers = {"Content-Type": "application/json"}
        if self._tls is None:
            headers.update(self._proxy_headers)
        if self._proxy is not None and self._tls is None:
            # A plain-HTTP proxy takes the full URL in the request line.
            path = f"http://{origin}{path}"
            host = _host_header(origin, None, default_port)
        else:
            host = _host_header(*self._address, default_port)
        # A request's bytes, as HTTPConnection.request orders them: the
        # Content-Length and Authorization values go between these two parts.
        self._request_head = (f"POST {path} HTTP/1.1\r\nHost: ".encode("ascii") + host
                              + b"\r\nAccept-Encoding: identity\r\nContent-Length: ")
        self._request_tail = b"".join(
            b"\r\n%s: %s" % (name.encode("ascii"), _header_value(value))
            for name, value in headers.items()) + b"\r\n\r\n"
        # One connection per request in flight: at most one per calling thread.
        self._idle: list[_Connection] = []
        weakref.finalize(self, _close_all, self._idle)
        self._probe_lock = threading.Lock()
        self._unreachable: str | None = None
        self._logprobs_ok: bool | None = None  # settled by the first scoring request

    def _api_key(self) -> str:
        key = os.environ.get(self.config.api_key_env)
        if not key:
            raise AuthError(
                f"environment variable {self.config.api_key_env} is not set")
        return key

    def _connection(self) -> _Connection:
        """An idle connection, closed first if the server dropped it, or a
        new one. ``list.pop`` is atomic, so threads never share one."""
        try:
            conn = self._idle.pop()
        except IndexError:
            if self._tls is None:
                return _Connection(http.client.HTTPConnection(
                    *self._peer, timeout=self.config.timeout))
            https = http.client.HTTPSConnection(*self._peer, timeout=self.config.timeout,
                                                context=self._tls)
            if self._proxy is not None:
                https.set_tunnel(*self._address, headers=self._proxy_headers)
            return _Connection(https)
        if conn.sock is not None and _dropped(conn.sock):
            conn.close()
        return conn

    def _send(self, request: bytes) -> tuple[int, bytes]:
        """One POST over a kept-alive connection: the status and the body.

        The connection is closed after any error and after a reply that
        ends it, and goes back to the idle list either way (a closed one
        reconnects when next used); a connection that cannot be opened
        raises _ConnectFailed.
        """
        conn = self._connection()
        try:
            if conn.sock is None:
                try:
                    conn.open()
                except TimeoutError:
                    raise
                except OSError as exc:
                    host, port = self._peer
                    raise _ConnectFailed(f"cannot connect to {host}:{port}: {exc}") from exc
            return conn.exchange(request)
        except BaseException:
            conn.close()
            raise
        finally:
            self._idle.append(conn)

    def _request(self, payload: dict) -> dict:
        if self._unreachable is not None:
            raise EndpointError(f"endpoint unreachable: {self._unreachable}")
        authorization = _header_value(f"Bearer {self._api_key()}")
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        request = b"%s%d\r\nAuthorization: %s%s%s" % (
            self._request_head, len(body), authorization, self._request_tail, body)
        attempts = self.config.max_retries + 1
        last_error: Exception | None = None
        timed_out = False
        for attempt in range(attempts):
            if attempt:
                delay = self.config.backoff_base * (2 ** (attempt - 1))
                time.sleep(min(MAX_BACKOFF_S, delay * (1.0 + 0.1 * random.random())))
            try:
                status, data = self._send(request)
            except TimeoutError as exc:
                last_error, timed_out = exc, True
                continue
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status in (401, 403):
                raise AuthError(f"endpoint rejected credentials (HTTP {status})")
            if status == 429 or status >= 500:
                last_error = EndpointError(f"HTTP {status}: {_head(data)}")
                continue
            if status != 200:
                raise EndpointError(f"HTTP {status}: {_head(data)}")
            try:
                return json.loads(data)
            except ValueError as exc:
                raise EndpointError(f"endpoint returned non-JSON body: {exc}") from exc
        if isinstance(last_error, _ConnectFailed):
            self._unreachable = str(last_error)
        if timed_out:
            raise Timeout(f"no response within {self.config.timeout}s "
                          f"after {attempts} attempts") from last_error
        raise EndpointError(
            f"request failed after {attempts} attempts: {last_error}") from last_error

    @staticmethod
    def _choice(response) -> tuple[dict, dict]:
        """A reply's first choice and its message, both JSON objects."""
        try:
            choice = response["choices"][0]
            message = choice["message"]
        except (KeyError, IndexError, TypeError):
            message = None
        if not isinstance(message, dict):
            raise EndpointError(f"malformed endpoint response: {response!r}")
        return choice, message

    def _body(self, turns: Sequence[ChatTurn], **options) -> dict:
        return {"model": self.config.model_name, "messages": wire_messages(turns),
                **options}

    def complete(self, turns: Sequence[ChatTurn], stop_sequences: Sequence[str],
                 max_tokens: int = MAX_TOKENS) -> str:
        """Run one generation and return the assistant text."""
        payload = self._body(turns, max_tokens=max_tokens, stop=list(stop_sequences))
        _, message = self._choice(self._request(payload))
        content = message.get("content")
        if not isinstance(content, str):
            raise EndpointError(f"endpoint message content is not a string: {content!r}")
        return content

    def _score_request(self, turns: Sequence[ChatTurn], target: str) -> list[float]:
        response = self._request(self._body(turns, max_tokens=0, logprobs=True,
                                            score_completion=target))
        choice, message = self._choice(response)
        logprobs = choice.get("logprobs")
        if logprobs is None:
            logprobs = message.get("logprobs")
        if logprobs is None:
            raise LogprobsUnsupported(
                f"endpoint {self.config.base_url} reports no token log-probabilities")
        items = logprobs.get("content") if isinstance(logprobs, dict) else None
        if not (isinstance(items, list) and all(
                isinstance(item, dict) and isinstance(item.get("token"), str)
                and finite_real(item.get("logprob")) and item["logprob"] <= 0
                for item in items)):
            raise EndpointError(f"malformed token log-probabilities: {logprobs!r}")
        return [float(item["logprob"]) for item in items]

    def _ensure_logprobs(self, turns: Sequence[ChatTurn], target: str) -> list[float]:
        if self._logprobs_ok is False:
            raise LogprobsUnsupported(
                f"endpoint {self.config.base_url} reports no token log-probabilities")
        if self._logprobs_ok is None:
            with self._probe_lock:
                if self._logprobs_ok is None:
                    try:
                        scores = self._score_request(turns, target)
                    except LogprobsUnsupported:
                        self._logprobs_ok = False
                        raise
                    self._logprobs_ok = True
                    return scores
        return self._score_request(turns, target)

    def score_answer_logprob(self, question: str, trajectory: Trajectory,
                             y: str) -> float:
        """Sum of token log-probs of ``y`` after the answer prefix of the
        rendered transcript, as :meth:`ChatEpisode.answer` generates it."""
        turns = chat_turns(question, _answer_prefix(trajectory))
        return sum(self._ensure_logprobs(turns, y), 0.0)  # a float, also for no tokens


class ChatPolicy:
    """Policy implementation that drives a chat endpoint per episode.

    Each :meth:`start` opens a :class:`ChatEpisode` holding that episode's
    transcript, so one policy (and its client) can serve concurrent
    episodes. Its decisions return text only; answer likelihoods for
    importance weighting come from :meth:`score_answer`.
    """

    def __init__(self, client: HttpChatClient):
        self.client = client

    def start(self, question: str) -> "ChatEpisode":
        return ChatEpisode(self.client, question)

    def score_answer(self, question: str, trajectory: Trajectory, y: str) -> float:
        return self.client.score_answer_logprob(question, trajectory, y)


@dataclass
class ChatEpisode:
    """One episode's running transcript and the decisions that extend it."""

    client: HttpChatClient
    question: str
    assistant: str = ""
    pending_think: str | None = None
    finalizing: bool = False
    docs_injected: bool = False

    def _generate(self, stop: Sequence[str], max_tokens: int = MAX_TOKENS) -> str:
        return self.client.complete(chat_turns(self.question, self.assistant), stop,
                                    max_tokens)

    def _append(self, text: str) -> None:
        if self.assistant and not self.assistant.endswith("\n") and text and not text.startswith("\n"):
            self.assistant += "\n"
        self.assistant += text

    def propose_subquery(self, history: Trajectory,
                         rng: np.random.Generator) -> str | None:
        if self.finalizing:
            return None
        if self.pending_think is not None:
            sub_query, self.pending_think = self.pending_think, None
            return sub_query
        text = self._generate(GENERATION_STOPS)
        self._append(text)
        sub_query = _last_subquery(list(iter_actions(text)))
        self.finalizing = sub_query is None
        return sub_query

    def _docs_line(self, documents: Sequence[Passage]) -> str:
        def flat(text: str) -> str:
            return " ".join(text.split())

        rendered = " ".join(
            f"[{i}] Title: {flat(doc.title)}. Content: {flat(doc.text)}"
            for i, doc in enumerate(documents, 1))
        return f"{SEARCH} {rendered}\n"

    def rank_directive(self, sub_query: str, documents: Sequence[Passage]) -> str:
        self._append(self._docs_line(documents))
        self.docs_injected = True
        self._append(RANK)
        text = self._generate(["\n"], max_tokens=64)
        self._append(f" {text.strip()}\n")
        return text.strip()

    def extract_evidence(self, documents: Sequence[Passage],
                         rng: np.random.Generator) -> str:
        if not documents:
            raise NoDocuments("cannot extract evidence from an empty document list")
        if not self.docs_injected:
            self._append(self._docs_line(documents))
        self.docs_injected = False
        text = self._generate(GENERATION_STOPS)
        self._append(text)
        actions = list(iter_actions(text))
        self.pending_think = _last_subquery(actions)
        self.finalizing = self.pending_think is None
        return next((payload for tag, payload in actions if tag == RECORD), "")

    def answer(self, trajectory: Trajectory, rng: np.random.Generator) -> str:
        self.assistant = _answer_prefix(trajectory)
        text = self._generate(["\n"], max_tokens=64)
        self._append(text)
        return text.strip()
