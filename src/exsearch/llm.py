"""HTTP chat-completion client and the chat-driven policy built on it.

The engine, not the model, executes retrieval: generation is driven
turn-by-turn with stop sequences at the search and final-answer tags, and
retrieved documents are injected into the running transcript between
generations. The wire protocol is the de-facto open chat-completion shape:

    request  {"model", "messages": [{"role", "content"}, ...],
              "max_tokens", "stop": [...], "logprobs"?: bool,
              "score_completion"?: str}
    response {"choices": [{"message": {"role", "content"},
                           "logprobs"?: {"content": [{"token", "logprob"}]}}]}

Requests are JSON POSTs to ``<base_url>/chat/completions`` over the standard
library's :mod:`http.client`. Connections stay open (HTTP/1.1 keep-alive),
one per request in flight, and are reused by the next request from any
thread; one the server has closed while idle is reopened before use.
Proxies come from the environment (``http_proxy``, ``https_proxy``,
``no_proxy``), resolved once per client; HTTPS is verified against the
system trust store (``SSL_CERT_FILE``, ``SSL_CERT_DIR``).

A trailing assistant message is treated as a prefix the model continues.
``score_completion`` requests per-token log-probabilities of the given text
conditioned on the messages; servers without log-probability support simply
omit the ``logprobs`` field, which surfaces as LogprobsUnsupported here.

:func:`chat_turns` builds the prompt that generation, answer scoring and the
SFT records of :mod:`exsearch.training` share.
"""

from __future__ import annotations

import http.client
import json
import math
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
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import AuthError, EndpointError, LogprobsUnsupported, NoDocuments, Timeout
from .trajectory import (FINAL_VARIANTS, RANK, RECORD, SEARCH, THINK, Passage, Trajectory,
                         render_transcript)

DEFAULT_API_KEY_ENV = "EXSEARCH_API_KEY"

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

_THINK_RE = re.compile(rf"{THINK}[ \t]*(.+)")
_RECORD_RE = re.compile(rf"{RECORD}[ \t]*(.*)")


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
    parallelism_cap: int = 4
    supports_logprobs: str = "probe"  # yes | no | probe
    backoff_base: float = 1.0

    def __post_init__(self):
        for name in ("base_url", "model_name", "api_key_env"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string")
        try:
            url = urllib.parse.urlsplit(self.base_url)
            url.port
        except ValueError as exc:  # a malformed port or IPv6 literal
            raise ValueError(f"base_url {self.base_url!r}: {exc}") from None
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http:// or https:// URL naming a "
                             f"host, got {self.base_url!r}")
        for name in ("timeout", "backoff_base"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number")
        for name in ("max_retries", "parallelism_cap"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.parallelism_cap < 1:
            raise ValueError("parallelism_cap must be >= 1")
        if self.supports_logprobs not in ("yes", "no", "probe"):
            raise ValueError("supports_logprobs must be yes, no or probe")


class _ConnectFailed(OSError):
    """The connection to the endpoint (or its proxy) could not be opened."""


def _dropped(sock: socket.socket) -> bool:
    """Whether an idle kept-alive socket is readable: the server has closed
    it (or sent bytes no request asked for), so it must not be reused."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
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
    """Thread-safe chat-completion client with bounded parallelism.

    Requests go over kept-alive connections, one per request in flight and
    reused by whichever thread sends next; they are closed when the client
    is garbage-collected. The target URL, the proxy and the TLS context are
    resolved once, here.

    Retries transport errors and HTTP 429/5xx with exponential backoff
    (factor 2 plus jitter) up to ``max_retries``; 401/403 raise AuthError
    immediately and are never retried. A request whose every attempt failed
    to connect marks the client unreachable: each later request raises
    EndpointError at once, without network I/O or backoff. The resolved
    log-probability capability is cached write-once after the first probe.
    """

    def __init__(self, config: EndpointConfig):
        self.config = config
        url = urllib.parse.urlsplit(f"{config.base_url.rstrip('/')}/chat/completions")
        origin = url.netloc.rpartition("@")[2]
        self._address = (url.hostname, url.port or (443 if url.scheme == "https" else 80))
        self._path = urllib.parse.quote(url.path + (f"?{url.query}" if url.query else ""),
                                        safe="!#$%&'()*+,/:;=?@[]~")
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        self._proxy, self._proxy_headers = _environment_proxy(url.scheme, origin)
        if self._proxy is not None and self._tls is None:
            # A plain-HTTP proxy takes the full URL in the request line.
            self._path = f"http://{origin}{self._path}"
        self._peer = self._proxy or self._address  # where connections go
        # At most parallelism_cap connections exist: one per request in flight.
        self._idle: list[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_all, self._idle)
        self._slots = threading.BoundedSemaphore(config.parallelism_cap)
        self._probe_lock = threading.Lock()
        self._unreachable: str | None = None
        self._logprobs_ok: bool | None = {
            "yes": True, "no": False, "probe": None
        }[config.supports_logprobs]

    def _api_key(self) -> str:
        key = os.environ.get(self.config.api_key_env)
        if not key:
            raise AuthError(
                f"environment variable {self.config.api_key_env} is not set")
        return key

    def _connection(self) -> http.client.HTTPConnection:
        """An idle connection, closed first if the server dropped it, or a
        new one. ``list.pop`` is atomic, so threads never share one."""
        try:
            conn = self._idle.pop()
        except IndexError:
            if self._tls is None:
                return http.client.HTTPConnection(*self._peer, timeout=self.config.timeout)
            conn = http.client.HTTPSConnection(*self._peer, timeout=self.config.timeout,
                                               context=self._tls)
            if self._proxy is not None:
                conn.set_tunnel(*self._address, headers=self._proxy_headers)
            return conn
        if conn.sock is not None and _dropped(conn.sock):
            conn.close()
        return conn

    def _send(self, body: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """One POST over a kept-alive connection: the status and the body.

        The connection is closed after any error and after a response that
        ends it, and goes back to the idle list either way (a closed one
        reconnects when next used); a connection that cannot be opened
        raises _ConnectFailed.
        """
        conn = self._connection()
        try:
            if conn.sock is None:
                try:
                    conn.connect()
                except TimeoutError:
                    raise
                except OSError as exc:
                    host, port = self._peer
                    raise _ConnectFailed(f"cannot connect to {host}:{port}: {exc}") from exc
            conn.request("POST", self._path, body, headers)
            response = conn.getresponse()
            data = response.read()
            if response.will_close:
                conn.close()
            return response.status, data
        except BaseException:
            conn.close()
            raise
        finally:
            self._idle.append(conn)

    def _request(self, payload: dict) -> dict:
        if self._unreachable is not None:
            raise EndpointError(f"endpoint unreachable: {self._unreachable}")
        headers = {"Authorization": f"Bearer {self._api_key()}",
                   "Content-Type": "application/json"}
        if self._tls is None:
            headers.update(self._proxy_headers)
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        attempts = self.config.max_retries + 1
        last_error: Exception | None = None
        timed_out = False
        for attempt in range(attempts):
            if attempt:
                delay = self.config.backoff_base * (2 ** (attempt - 1))
                time.sleep(delay * (1.0 + 0.1 * random.random()))
            try:
                with self._slots:
                    status, data = self._send(body, headers)
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
    def _message(response: dict) -> dict:
        try:
            return response["choices"][0]["message"]
        except (KeyError, IndexError, TypeError) as exc:
            raise EndpointError(f"malformed endpoint response: {response!r}") from exc

    def _body(self, turns: Sequence[ChatTurn], **options) -> dict:
        return {"model": self.config.model_name, "messages": wire_messages(turns),
                **options}

    def complete(self, turns: Sequence[ChatTurn], stop_sequences: Sequence[str],
                 max_tokens: int = MAX_TOKENS) -> str:
        """Run one generation and return the assistant text."""
        payload = self._body(turns, max_tokens=max_tokens, stop=list(stop_sequences))
        message = self._message(self._request(payload))
        content = message.get("content")
        if content is None:
            raise EndpointError("endpoint response carries no message content")
        return content

    def _score_request(self, turns: Sequence[ChatTurn], target: str) -> list[float]:
        response = self._request(self._body(turns, max_tokens=0, logprobs=True,
                                            score_completion=target))
        message = self._message(response)
        logprobs = response["choices"][0].get("logprobs") or message.get("logprobs")
        if not logprobs or "content" not in logprobs:
            raise LogprobsUnsupported(
                f"endpoint {self.config.base_url} reports no token log-probabilities")
        return [float(item["logprob"]) for item in logprobs["content"]]

    def _ensure_logprobs(self, turns: Sequence[ChatTurn], target: str) -> list[float]:
        if self._logprobs_ok is False:
            raise LogprobsUnsupported("endpoint is configured without logprobs support")
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
        return sum(self._ensure_logprobs(turns, y))


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
        thinks = _THINK_RE.findall(text)
        if not thinks:
            self.finalizing = True
            return None
        return thinks[-1].strip()

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
        record = _RECORD_RE.search(text)
        evidence = record.group(1).strip() if record else ""
        thinks = _THINK_RE.findall(text)
        if thinks:
            self.pending_think = thinks[-1].strip()
        else:
            self.finalizing = True
        return evidence

    def answer(self, trajectory: Trajectory, rng: np.random.Generator) -> str:
        self.assistant = _answer_prefix(trajectory)
        text = self._generate(["\n"], max_tokens=64)
        self._append(text)
        return text.strip()
