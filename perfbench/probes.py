"""Probes that wrap exsearch's public functions from outside the package.

Two levels share one recorder:

* the light probes, always on, time each episode and read the failure
  count off every batch ``training.e_step`` returns;
* the traced probes, on only in a traced unit, also record one span per
  call at every layer boundary, plus counters.

Every name is patched where it is looked up: ``exsearch.training`` imports
``run_episode``, ``write_jsonl`` and ``render_transcript`` by name, so the
copies in that namespace (and in ``exsearch.llm``) are wrapped as well as
the originals. Methods are patched on their class, so internal callers such
as ``exact_marginal_set`` are seen too.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import exsearch.agent
import exsearch.llm
import exsearch.policy
import exsearch.retrieval
import exsearch.training
import exsearch.trajectory

_READERS = ("read_passages_jsonl", "read_examples_jsonl",
            "read_trajectories_jsonl", "read_weighted_jsonl")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    ident: str | None = None
    thread: int = 0


@dataclass
class UnitTrace:
    """What one unit of work left in the recorder."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    episode_ms: list[float] = field(default_factory=list)


class Recorder:
    """Spans, counters and episode latencies for the unit being run.

    Spans are kept in memory; a span's parent is the innermost open span of
    its thread, or for the first span of a worker thread the innermost open
    span of the main thread, which is where the pool was started.
    """

    def __init__(self):
        self.traced = False
        self.unit = UnitTrace()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.retrievers: dict[int, object] = {}

    # -- unit lifecycle ---------------------------------------------------

    def begin_unit(self, traced: bool) -> None:
        self.traced = traced
        self.unit = UnitTrace()
        self.retrievers = {}

    def end_unit(self) -> UnitTrace:
        unit = self.unit
        if self.traced:
            unit.counts["retrieval.cache_entries"] = sum(
                len(r.cache) for r in self.retrievers.values())
            unit.episode_ms = [(s.end - s.start) * 1e3 for s in unit.spans
                               if s.name == "agent.run_episode"]
        self.traced = False
        self.retrievers = {}
        return unit

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, ident: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            spans = self.unit.spans
            if ident is None and parent is not None:
                ident = spans[parent].ident
            index = len(spans)
            spans.append(Span(name, time.perf_counter(), parent=parent,
                              ident=ident, thread=threading.get_ident()))
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.unit.spans[index].end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, ident: str | None = None):
        """Span around a block of benchmark code; a no-op when untraced."""
        index = self.open(name, ident) if self.traced else None
        try:
            yield
        finally:
            if index is not None:
                self.close(index)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.unit.counts[name] += n

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str, ident=None, after=None,
              light=None) -> None:
        """Wrap ``owner.attr`` with a span named ``name`` when traced.

        ``after(args, kwargs, result)`` runs after a traced call; ``light``
        is a replacement for the untraced call path (default: call through).
        """
        fn = getattr(owner, attr)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.traced:
                if light is not None:
                    return light(fn, args, kwargs)
                return fn(*args, **kwargs)
            index = recorder.open(name, ident(args, kwargs) if ident else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Patch every probe point; :meth:`uninstall` restores the originals."""
        retrieval, policy, training, trajectory = (
            exsearch.retrieval, exsearch.policy, exsearch.training, exsearch.trajectory)

        # retrieval: the module-level search is what Retriever.search calls
        # on a cache miss, so its calls are the misses.
        self._wrap(retrieval, "search", "retrieval.search")
        for fn in ("build_index", "load_index"):
            self._wrap(retrieval, fn, f"retrieval.{fn}")
        self._wrap(retrieval, "save_index", "retrieval.save_index",
                   after=self._after_save_index)
        original_rsearch = retrieval.Retriever.search

        @functools.wraps(original_rsearch)
        def retriever_search(retriever, query, k):
            if self.traced:
                self.retrievers[id(retriever)] = retriever
                self.count("retrieval.Retriever.search.calls")
            return original_rsearch(retriever, query, k)

        self._patch(retrieval.Retriever, "search", retriever_search)

        # policy: patched on the class so exact_marginal_set is seen too.
        self._wrap(policy.TabularPolicy, "enumerate_trajectories",
                   "policy.enumerate_trajectories", ident=_example_ident,
                   after=lambda a, k, leaves: self.count("policy.leaves", len(leaves)))
        self._wrap(policy.TabularPolicy, "trajectory_log_prob",
                   "policy.trajectory_log_prob")

        # training: em_train looks these names up in its own module.
        self._wrap(training, "e_step", "training.e_step",
                   after=self._after_e_step, light=self._light_e_step)
        for fn in ("m_step_tabular", "compute_elbo", "mean_train_loglik"):
            self._wrap(training, fn, f"training.{fn}")

        # agent: the CLI calls agent.run_episode, the trainer its own import.
        for owner in (exsearch.agent, training):
            self._wrap(owner, "run_episode", "agent.run_episode",
                       ident=lambda a, k: a[0] if a else k.get("question"),
                       after=self._after_episode, light=self._timed_episode)

        # llm
        self._wrap(exsearch.llm.HttpChatClient, "complete", "llm.complete")

        # trajectory I/O and rendering, wherever the names were imported
        for owner in (trajectory, training):
            self._wrap(owner, "write_jsonl", "trajectory.write_jsonl",
                       after=self._after_write_jsonl)
        for fn in _READERS:
            self._wrap(trajectory, fn, "trajectory.read_jsonl")
        for owner in (trajectory, training, exsearch.llm):
            self._wrap(owner, "render_transcript", "trajectory.render_transcript")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- probe callbacks ----------------------------------------------------

    def _timed_episode(self, fn, args, kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        self.unit.episode_ms.append((time.perf_counter() - started) * 1e3)
        return result

    def _after_episode(self, args, kwargs, result) -> None:
        self.count("agent.hops", len(result.trajectory.steps))

    def _light_e_step(self, fn, args, kwargs):
        batches = fn(*args, **kwargs)
        self.count("training.episode_failures", sum(b.failures for b in batches))
        return batches

    def _after_e_step(self, args, kwargs, batches) -> None:
        """Failures, effective sample size 1/sum(w^2) of each example's
        normalised weights (Kong 1992), and examples whose raw weights all sit
        at the no-signal floor (an example without items counts as one)."""
        floor = exsearch.policy.LOG_FLOOR
        failures = ess = weighted = no_signal = 0
        for batch in batches:
            failures += batch.failures
            if batch.items:
                ess += 1.0 / sum(wt.weight * wt.weight for wt in batch.items)
                weighted += 1
            no_signal += all(
                wt.log_weight <= (0.0 if wt.weight_mode.startswith("reward-") else floor)
                for wt in batch.items)
        with self._lock:
            counts = self.unit.counts
            counts["training.episode_failures"] += failures
            counts["training.ess_sum"] += ess
            counts["training.examples"] += len(batches)
            counts["training.examples_with_items"] += weighted
            counts["training.no_signal"] += no_signal

    def _after_save_index(self, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        if os.path.isdir(path):
            path = os.path.join(path, exsearch.retrieval.INDEX_FILENAME)
        self.count("retrieval.index_bytes", os.path.getsize(path))

    def _after_write_jsonl(self, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        self.count("trajectory.write_jsonl.bytes", os.path.getsize(path))


def _example_ident(args, kwargs) -> str | None:
    example = args[1] if len(args) > 1 else kwargs.get("example")
    return getattr(example, "id", example)


# -- span analysis -------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children on other threads may overlap each other, so the covered part is
    the union of the child intervals, clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


def write_spans(path, units: list[tuple[int, list[Span]]]) -> None:
    """Write the spans of each (unit number, spans) pair as gzip-compressed
    JSON lines, one span per line; ``parent`` indexes spans of the same unit."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for unit, spans in units:
            for index, span in enumerate(spans):
                fh.write(json.dumps({
                    "unit": unit, "index": index, "name": span.name,
                    "start": span.start, "end": span.end, "parent": span.parent,
                    "id": span.ident, "thread": span.thread}))
                fh.write("\n")
