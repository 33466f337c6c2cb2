"""The offline chat-completion stub, run as its own process.

Run from the repository root: ``python3 perfbench/stub_server.py``. Prints
one JSON line ``{"base_url": ...}`` once it listens on 127.0.0.1. Every
``stats`` line read from standard input is answered with one JSON line of
counters since start: HTTP requests handled, responses other than 200, and
seconds spent in the stub's model logic. End of input stops the server.
The stub speaks HTTP/1.1 with keep-alive and TCP_NODELAY.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from exsearch.stub import ChainOracleBehavior, StubChatServer  # noqa: E402


class CountingBehavior:
    """Counts the requests reaching the stub; the server calls it under its lock."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = 0
        self.non_200 = 0
        self.busy_s = 0.0

    def __call__(self, request: dict):
        started = time.perf_counter()
        status, body = self.inner(request)
        self.busy_s += time.perf_counter() - started
        self.requests += 1
        self.non_200 += status != 200
        return status, body


def main() -> int:
    behavior = CountingBehavior(ChainOracleBehavior())
    server = StubChatServer(behavior)
    # Keep connections alive and send replies without Nagle delay, as a
    # remote endpoint does: with the stub's HTTP/1.0 default every request
    # opens a TCP connection, and the TIME_WAIT sockets left behind pile up
    # across runs and slow the connects of later ones.
    handler = server._server.RequestHandlerClass
    handler.protocol_version = "HTTP/1.1"
    handler.disable_nagle_algorithm = True
    with server:
        print(json.dumps({"base_url": server.base_url}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps({"requests": behavior.requests,
                                  "non_200": behavior.non_200,
                                  "busy_s": behavior.busy_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
