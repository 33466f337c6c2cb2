"""exsearch benchmark: one workload per run, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload exact_em --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``exact_em``,
``sampled_em_10k``, ``llm_pipeline``. The run generates its inputs from
``--seed`` (not timed), then repeats units of fixed work, each with a timed
set-up and a timed body, until ``--seconds`` would be exceeded, checking the
outputs of every unit outside the timed parts.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics:

* ``setup_s``: median set-up time of a unit;
* ``wall_s``: median time of a unit's fixed work, set-up excluded;
* ``ops_per_s``: operations completed per second of work; an operation is
  an EM iteration in ``exact_em`` and an episode in the other two;
* ``op_p50_ms`` / ``op_p90_ms``: operation latency percentiles;
* ``peak_rss_mb``: ``ru_maxrss`` of the process.

With ``--trace 1`` units alternate between untraced and traced; the traced
ones record a span around every call into each layer and the JSON holds the
per-layer metrics, averaged per unit, with the tracing overhead. Spans are
written to ``.perfbench_traces/`` at the end of the run. ``BENCHMARK.json``
at the repository root names both sets of metrics and their units.

The run pins itself, and the stub process it starts, to one CPU (the
highest-numbered one it may use); see ``pin_to_one_cpu``.

The lines before the JSON give a readable summary: the metrics with units,
failed operations, the quality figures the checks use, and the git commit,
Python, numpy, core count and the CPU the run was pinned to. The exit code
is 1 when an output check fails and 2 when the checkout holds no exsearch
sources.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def git_sha() -> str:
    """HEAD's commit read from .git without running git; "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_to_one_cpu() -> int | None:
    """Run this process, and every thread and process it starts later, on
    one CPU; returns that CPU, or None where affinity cannot be set.

    Every workload is one closed loop: in ``llm_pipeline`` the client and
    the stub take turns, never computing at once. On two CPUs each request
    and each reply wakes the other CPU, and on a virtual machine that
    wake-up waits for the host to schedule the CPU: on a 2-vCPU virtual
    machine an ``llm_pipeline`` unit took 2.1-2.8 s unpinned, moving with
    the host's load, and 1.35-1.5 s pinned. On one CPU the turn passes
    without a wake-up and the run measures the program.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # affinity fixed by the environment; run unpinned
        return None
    return cpu


def run_units(workload, recorder, seconds: float, traced_run: bool):
    """Repeat units until the next one would overrun ``seconds``.

    In a traced run units come in pairs on the same inputs, one untraced
    and one traced, the traced one first in every second pair so that
    whatever the first unit of a pair pays is not counted as tracing cost.
    Returns one record per unit: (traced, setup_s, wall_s, trace, result).
    """
    deadline = time.perf_counter() + seconds
    units = []
    last_cost = 0.0
    minimum = 2 if traced_run else 1
    while (len(units) < minimum or (traced_run and len(units) % 2 == 1)
           or time.perf_counter() + last_cost <= deadline):
        began = time.perf_counter()
        pair, second = divmod(len(units), 2)
        traced = traced_run and bool(second) != bool(pair % 2)
        inputs = workload.prepare(len(units) // 2 if traced_run else len(units))
        # Objects alive now belong to the benchmark (inputs, oracles, earlier
        # units); freezing them keeps the collector from rescanning them
        # during the unit, as it would not in a process running only it.
        gc.collect()
        gc.freeze()
        recorder.begin_unit(traced)
        with recorder.span("unit"):
            t0 = time.perf_counter()
            state = workload.setup(inputs)
            t1 = time.perf_counter()
            workload.work(state)
            t2 = time.perf_counter()
        trace = recorder.end_unit()
        result = workload.finish(state, trace)
        units.append((traced, t1 - t0, t2 - t1, trace, result))
        last_cost = time.perf_counter() - began
    return units


def end_to_end(units) -> dict[str, float]:
    results = [u[4] for u in units]
    walls = [u[2] for u in units]
    op_ms = [ms for r in results for ms in r.op_ms]
    return {
        "setup_s": statistics.median(u[1] for u in units),
        "wall_s": statistics.median(walls),
        "ops_per_s": len(op_ms) / sum(walls),
        "op_p50_ms": percentile(op_ms, 50),
        "op_p90_ms": percentile(op_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def mean_quality(results) -> dict[str, float]:
    """Each quality figure averaged over the units that report it."""
    values = defaultdict(list)
    for result in results:
        for name, value in result.quality.items():
            values[name].append(value)
    return {name: statistics.mean(v) for name, v in values.items()}


def per_layer(units) -> tuple[dict[str, float], list[tuple[str, float]]]:
    """Per-layer metrics of the traced units, and each span name's share of
    self time, largest first."""
    from probes import self_times

    traced = [u for u in units if u[0]]
    n = len(traced)
    calls, busy, own = Counter(), Counter(), Counter()
    durations = defaultdict(list)
    counts, layers = Counter(), Counter()
    for _t, _s, _w, trace, result in traced:
        for span, self_s in zip(trace.spans, self_times(trace.spans)):
            calls[span.name] += 1
            busy[span.name] += span.end - span.start
            own[span.name] += self_s
            durations[span.name].append((span.end - span.start) * 1e3)
        counts.update(trace.counts)
        layers.update(result.layers)
    total_self = sum(own.values()) or 1.0
    episodes = calls["agent.run_episode"]
    quality = mean_quality([u[4] for u in units])
    m = {
        "retrieval.search.calls": calls["retrieval.search"] / n,
        "retrieval.search.busy_s": busy["retrieval.search"] / n,
        "retrieval.search.p50_ms": percentile(durations["retrieval.search"], 50),
        "retrieval.search.p90_ms": percentile(durations["retrieval.search"], 90),
        "retrieval.search.self_share": own["retrieval.search"] / total_self,
        "retrieval.Retriever.search.calls": counts["retrieval.Retriever.search.calls"] / n,
        "retrieval.cache_hit_ratio": (
            1.0 - calls["retrieval.search"] / counts["retrieval.Retriever.search.calls"]
            if counts["retrieval.Retriever.search.calls"] else 0.0),
        "retrieval.cache_entries": counts["retrieval.cache_entries"] / n,
        "retrieval.build_index.s": busy["retrieval.build_index"] / n,
        "retrieval.save_index.s": busy["retrieval.save_index"] / n,
        "retrieval.load_index.s": busy["retrieval.load_index"] / n,
        "retrieval.index_bytes": (counts["retrieval.index_bytes"]
                                  / max(1, calls["retrieval.save_index"])),
        "policy.enumerate_trajectories.calls": calls["policy.enumerate_trajectories"] / n,
        "policy.enumerate_trajectories.busy_s": busy["policy.enumerate_trajectories"] / n,
        "policy.enumerate_trajectories.self_share":
            own["policy.enumerate_trajectories"] / total_self,
        "policy.leaves": counts["policy.leaves"] / n,
        "policy.trajectory_log_prob.calls": calls["policy.trajectory_log_prob"] / n,
        "policy.trajectory_log_prob.busy_s": busy["policy.trajectory_log_prob"] / n,
        "training.e_step.self_s": own["training.e_step"] / n,
        "training.m_step_tabular.self_s": own["training.m_step_tabular"] / n,
        "training.compute_elbo.self_s": own["training.compute_elbo"] / n,
        "training.mean_train_loglik.self_s": own["training.mean_train_loglik"] / n,
        "training.episode_failures": counts["training.episode_failures"] / n,
        "training.ess_mean": (counts["training.ess_sum"]
                              / max(1, counts["training.examples_with_items"])),
        "training.no_signal_share": (counts["training.no_signal"]
                                     / max(1, counts["training.examples"])),
        "training.final_train_loglik": quality.get("final_train_loglik", 0.0),
        "training.heldout_em": quality.get("heldout_em", 0.0),
        "agent.run_episode.calls": episodes / n,
        "agent.run_episode.self_s": own["agent.run_episode"] / n,
        "agent.hops_per_episode": counts["agent.hops"] / max(1, episodes),
        "llm.complete.calls": calls["llm.complete"] / n,
        "llm.complete.busy_s": busy["llm.complete"] / n,
        "llm.complete.p50_ms": percentile(durations["llm.complete"], 50),
        "llm.complete.p90_ms": percentile(durations["llm.complete"], 90),
        "llm.complete.self_share": own["llm.complete"] / total_self,
        "llm.requests_per_episode": calls["llm.complete"] / max(1, episodes),
        "llm.retries": ((layers["stub.requests"] - calls["llm.complete"]) / n
                        if layers["stub.requests"] else 0.0),
        "stub.requests": layers["stub.requests"] / n,
        "stub.behavior.busy_s": layers["stub.behavior.busy_s"] / n,
        "stub.non_200": layers["stub.non_200"] / n,
        "trajectory.write_jsonl.busy_s": busy["trajectory.write_jsonl"] / n,
        "trajectory.write_jsonl.bytes": counts["trajectory.write_jsonl.bytes"] / n,
        "trajectory.read_jsonl.busy_s": busy["trajectory.read_jsonl"] / n,
        "trajectory.render_transcript.calls": calls["trajectory.render_transcript"] / n,
        "trajectory.render_transcript.busy_s": busy["trajectory.render_transcript"] / n,
        "cli.ingest.s": busy["cli.ingest"] / n,
        "cli.explore.s": busy["cli.explore"] / n,
        "cli.weigh.s": busy["cli.weigh"] / n,
        "cli.export_sft.s": busy["cli.export_sft"] / n,
        "cli.answer_em": quality.get("answer_em", 0.0),
        "trace.overhead_s": statistics.median(
            (a[2] - b[2]) if a[0] else (b[2] - a[2])
            for a, b in zip(units[0::2], units[1::2])),
    }
    shares = sorted(((name, own[name] / total_self) for name in own),
                    key=lambda item: -item[1])
    return m, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "exsearch" / "__init__.py").is_file():
        print(f"perfbench: error: no exsearch sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    import numpy

    import exsearch
    from probes import Recorder, write_spans
    from workloads import WORKLOADS

    if Path(exsearch.__file__).resolve().parent != SRC / "exsearch":
        print(f"perfbench: error: imported exsearch from {exsearch.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    recorder = Recorder()
    recorder.install()
    workload = None
    crashed = None
    units = []
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir, recorder)
        units = run_units(workload, recorder, args.seconds, bool(args.trace))
    except Exception:  # report the run as failed, with its traceback
        crashed = traceback.format_exc()
    finally:
        if workload is not None:
            workload.close()
        recorder.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            (ROOT / ".perfbench_work").rmdir()

    results = [u[4] for u in units]
    run_checks = workload.run_checks(results) if results else []
    failed_checks = [(i, c) for i, r in enumerate(results) for c in r.checks if not c.ok]
    failed_checks += [("all", c) for c in run_checks if not c.ok]
    attempted = sum(r.attempted + len(r.checks) for r in results) + len(run_checks)
    failed = sum(r.failures for r in results) + len(failed_checks)
    if crashed:
        print(crashed, file=sys.stderr)
        attempted, failed = attempted + 1, failed + 1
    correct = failed == 0

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} units={len(units)} "
          f"git={git_sha()} python={platform.python_version()} "
          f"numpy={numpy.__version__} nproc={os.cpu_count()} pinned_cpu={cpu}")
    for unit, check in failed_checks:
        print(f"  CHECK FAILED unit {unit}: {check.name}: {check.detail}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    metrics: dict[str, float] = {}
    if units and args.trace:
        metrics, shares = per_layer(units)
        print("  self-time share: " + ", ".join(
            f"{name} {share:.1%}" for name, share in shares[:6]))
        write_spans(ROOT / ".perfbench_traces" / f"{args.workload}-seed{args.seed}.jsonl.gz",
                    [(i, u[3].spans) for i, u in enumerate(units) if u[0]])
    elif units:
        metrics = end_to_end(units)
        n_ops = sum(len(r.op_ms) for r in results)
        print(f"  operation = one {workload.OPERATION}; "
              f"{n_ops} operations over {len(units)} units")
    if metrics and set(metrics) != set(table):
        print("perfbench: error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(table))}", file=sys.stderr)
        return 2
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {table[name]}")
    if units and not args.trace:
        print(f"  {'failed_ratio':42s} {failed / max(1, attempted):14.6g} ratio")
        for name, value in mean_quality(results).items():
            print(f"  {name:42s} {value:14.6g} (mean over units)")

    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": table[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
