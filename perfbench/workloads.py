"""The benchmark's three workloads.

Each workload runs closed-loop in this process, one unit of fixed work after
another. A unit goes through four phases:

* ``prepare``: generate its inputs from the seed (not timed);
* ``setup``: build what the work needs, e.g. the index or the stub (timed as
  ``setup_s``);
* ``work``: the fixed work itself (timed as ``wall_s``);
* ``finish``: stop what setup started and check the outputs (not timed).

Why these three: each puts most of its time in a different layer, so an
optimisation of one layer has one workload where it should show and two
where the prediction is "no change".

* ``exact_em`` is bound by trajectory enumeration (``policy``): a tiny
  corpus whose searches are all cached after the first iteration.
* ``sampled_em_10k`` is bound by cold BM25 search (``retrieval``) over 10,000
  passages; no enumeration runs.
* ``llm_pipeline`` is bound by the chat-endpoint round trip (``llm``):
  explore -> weigh -> export-sft through the CLI against the offline stub.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from exsearch import cli, retrieval, synth, training, trajectory
from exsearch.agent import AgentConfig
from exsearch.policy import TabularPolicy, TabularPolicyParams

from bm25_oracle import BruteForceBM25

HERE = Path(__file__).resolve().parent


def unit_seed(seed: int, unit: int) -> int:
    """Seed of one unit's inputs, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, unit]).generate_state(1)[0])


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class UnitResult:
    """What ``finish`` reports about one unit."""

    op_ms: list[float]            # latency of each operation completed
    attempted: int                # operations attempted, failed ones included
    failures: int                 # operations that failed
    checks: list[Check]
    quality: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


class Workload:
    """Interface of a workload; see the module docstring for the phases."""

    OPERATION = "episode"  # what ops_per_s and op_p50_ms/op_p90_ms count

    def run_checks(self, results: list[UnitResult]) -> list[Check]:
        """Checks on the run as a whole, after its last unit."""
        return []

    def close(self) -> None:
        """Stop anything still running; called once the run ends."""


# -- exact_em ---------------------------------------------------------------------


class ExactEM(Workload):
    """Exact-enumeration EM on the acceptance training world.

    20 entities x 4 relations at density 0.8, 6 aligned distinct-node
    2-hop questions, budget 3, k 3: about 2,700 enumerated leaves per
    question, enumerated three times per example per iteration (E-step,
    training log-likelihood, log-likelihood validation). Each unit trains a
    fresh uniform policy for ITERATIONS iterations on a world of its own, so
    the run's medians average over worlds as well as over repeats.
    """

    name = "exact_em"
    OPERATION = "EM iteration"
    ENTITIES, RELATIONS, DENSITY, QUESTIONS = 20, 4, 0.8, 6
    BUDGET, K, ITERATIONS = 3, 3, 2

    def __init__(self, seed: int, work_dir: Path, recorder):
        self.seed = seed
        self.recorder = recorder
        self.agent_config = AgentConfig(budget=self.BUDGET, k=self.K)
        self.config = training.TrainConfig(
            iterations=self.ITERATIONS, e_step_mode="exact-enumeration",
            early_stop_patience=0, validation_metric="loglik")

    def prepare(self, unit: int):
        world_seed = unit_seed(self.seed, unit)
        world = synth.generate_world(self.ENTITIES, self.RELATIONS, 2,
                                     self.DENSITY, world_seed)
        sequence = synth.best_relation_sequence(world, distinct_nodes=True)
        questions = synth.make_questions(world, self.QUESTIONS, world_seed,
                                         relation_sequence=sequence,
                                         distinct_nodes=True)
        return world, questions, synth.render_corpus(world)

    def setup(self, inputs):
        world, questions, passages = inputs
        retriever = retrieval.Retriever(retrieval.build_index(passages))
        params = TabularPolicyParams.uniform(len(world.relations), self.BUDGET, self.K)
        return {"inputs": inputs, "retriever": retriever,
                "policy": TabularPolicy(params, world.relations)}

    def work(self, state) -> None:
        with self.recorder.span("training.em_train"):
            state["reports"], state["params"] = training.em_train(
                state["inputs"][1], state["policy"], state["retriever"],
                self.config, self.agent_config, seed=self.seed)

    def finish(self, state, trace) -> UnitResult:
        world, questions, passages = state["inputs"]
        reports = state["reports"]
        logliks = [r.train_loglik for r in reports]
        drops = [a - b for a, b in zip(logliks, logliks[1:]) if b < a - 1e-9]
        # Oracle: the exact marginal of the returned parameters, enumerated
        # afresh on a fresh retriever.
        fresh = retrieval.Retriever(retrieval.build_index(passages))
        policy = TabularPolicy(state["params"], world.relations)
        recomputed = sum(policy.exact_marginal_set(ex, fresh, self.BUDGET, self.K)
                         for ex in questions) / len(questions)
        final = logliks[-1]
        checks = [
            Check("iterations", len(reports) == self.ITERATIONS,
                  f"{len(reports)} of {self.ITERATIONS}"),
            Check("train_loglik_monotone", not drops, f"drops {drops}"),
            Check("final_train_loglik_exact", abs(final - recomputed) <= 1e-9,
                  f"reported {final!r}, enumerated {recomputed!r}"),
        ]
        return UnitResult(
            op_ms=[r.wall_time * 1e3 for r in reports],
            attempted=self.ITERATIONS * len(questions),
            failures=int(trace.counts["training.episode_failures"]),
            checks=checks, quality={"final_train_loglik": final})


# -- sampled_em_10k ----------------------------------------------------------------


class SampledEM10k(Workload):
    """One iteration of sampled posterior-logprob EM over 10,000 passages.

    1000 entities x 10 relations at density 1.0; budget 2, k 1, 8 samples
    per question; held-out questions passed as ``val_examples`` with EM
    validation. Each unit draws its own train and held-out questions and
    starts from a cold ``Retriever.cache``, so most of its time is cold BM25
    search, while the samples of one question share sub-queries through the
    cache.

    The policy starts from a warm-up prior (the paper's EM follows a
    supervised warm-up): at each hop the gold relation is WARMUP times as
    likely as any other choice. From a uniform start the first iteration
    finds an answer only about half the time, which halves or doubles the
    number of cold searches from seed to seed; with a weaker prior a unit
    whose few successful samples include a detour converges only partway.
    One iteration per unit keeps the work in the cold-cache phase: a second,
    converged iteration would add about as many fully cached episodes and
    put the median episode on the border between cached and cold ones.
    Held-out episodes follow the learnt chain through unseen questions, two
    cold searches each. Training samples of one question share sub-queries,
    so they make zero, one or two cold searches. With 2 train questions (16
    samples) and 24 held-out ones about 70% of the episodes make two, which
    keeps the median episode inside that group rather than on its lower
    edge, where it would move with the seed; two train questions still give
    every unit a successful sample to learn from. A unit is about 40
    episodes, so a run of 40 seconds holds several units to take medians
    over.
    """

    name = "sampled_em_10k"
    ENTITIES, RELATIONS = 1000, 10
    TRAIN, HELD_OUT, SAMPLES, ITERATIONS = 2, 24, 8, 1
    BUDGET, K, WARMUP = 2, 1, 8.0
    CHECKED_QUERIES = 3

    def __init__(self, seed: int, work_dir: Path, recorder):
        self.seed = seed
        self.recorder = recorder
        self.index_dir = work_dir / "index"
        self.index_dir.mkdir(parents=True, exist_ok=True)
        self.world = synth.generate_world(self.ENTITIES, self.RELATIONS, 2, 1.0, seed)
        self.sequence = synth.best_relation_sequence(self.world, distinct_nodes=True)
        self.pool = synth.make_questions(self.world, 400, seed,
                                         relation_sequence=self.sequence,
                                         distinct_nodes=True)
        self.passages = synth.render_corpus(self.world)
        self.oracle = None
        self.agent_config = AgentConfig(budget=self.BUDGET, k=self.K)
        self.config = training.TrainConfig(
            iterations=self.ITERATIONS, samples_per_example=self.SAMPLES,
            weight_mode="posterior-logprob", e_step_mode="sampled",
            early_stop_patience=0, validation_metric="em")

    def prepare(self, unit: int):
        rng = np.random.default_rng(unit_seed(self.seed, unit))
        picks = rng.choice(len(self.pool), size=self.TRAIN + self.HELD_OUT,
                           replace=False)
        chosen = [self.pool[int(i)] for i in picks]
        return chosen[:self.TRAIN], chosen[self.TRAIN:], unit

    def _warm_params(self) -> TabularPolicyParams:
        params = TabularPolicyParams.uniform(self.RELATIONS, self.BUDGET, self.K)
        for hop, relation in enumerate(self.sequence):
            params.think_logits[hop, self.world.relations.index(relation)] = \
                math.log(self.WARMUP)
        return params

    def setup(self, inputs):
        index = retrieval.build_index(self.passages)
        retrieval.save_index(index, self.index_dir)
        retriever = retrieval.Retriever(retrieval.load_index(self.index_dir))
        policy = TabularPolicy(self._warm_params(), self.world.relations)
        return {"inputs": inputs, "retriever": retriever, "policy": policy}

    def work(self, state) -> None:
        train, held_out, _unit = state["inputs"]
        with self.recorder.span("training.em_train"):
            state["reports"], _params = training.em_train(
                train, state["policy"], state["retriever"], self.config,
                self.agent_config, seed=self.seed, val_examples=held_out)

    def finish(self, state, trace) -> UnitResult:
        unit = state["inputs"][2]
        reports = state["reports"]
        cache = state["retriever"].cache
        if self.oracle is None:
            self.oracle = BruteForceBM25(self.passages)
        rng = np.random.default_rng(unit_seed(self.seed, unit) + 1)
        keys = sorted(cache)
        sample = [keys[int(i)] for i in rng.choice(
            len(keys), size=min(self.CHECKED_QUERIES, len(keys)), replace=False)]
        mismatches = []
        for query, k in sample:
            got = [(hit.passage_ref, hit.score) for hit in cache[(query, k)]]
            want = self.oracle.top_k(query, k)
            same = len(got) == len(want) and all(
                g_id == w_id and math.isclose(g_s, w_s, rel_tol=1e-12, abs_tol=1e-12)
                for (g_id, g_s), (w_id, w_s) in zip(got, want))
            if not same:
                mismatches.append(query)
        episodes = len(trace.episode_ms)
        failures = int(trace.counts["training.episode_failures"])
        checks = [Check("bm25_oracle", not mismatches and bool(sample),
                        f"queries differing from brute force: {mismatches}")]
        return UnitResult(
            op_ms=trace.episode_ms, attempted=episodes + failures,
            failures=failures, checks=checks,
            quality={"heldout_em": reports[-1].validation_score})

    def run_checks(self, results: list[UnitResult]) -> list[Check]:
        # A unit can still learn a detour from its few successful samples
        # and converge only partway in its one iteration; the median over the
        # run's units is robust to one such unit, while a broken update fails
        # every unit.
        heldout_em = statistics.median(r.quality["heldout_em"] for r in results)
        return [Check("heldout_em", heldout_em >= 0.9,
                      f"median over units {heldout_em:.3f} < 0.9")]


# -- llm_pipeline -------------------------------------------------------------------


class StubProcess:
    """The offline chat stub (ChainOracleBehavior) in a child process, so the
    client under test does not share its interpreter lock with the server."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub_server.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("stub server exited before listening")
        self.base_url = json.loads(line)["base_url"]

    def stats(self) -> dict:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class LLMPipeline(Workload):
    """The README's explore -> weigh (reward-em) -> export-sft, through
    ``exsearch.cli.main`` against the offline stub.

    30 entities x 3 relations at density 1.0 (90 passages); 60 questions x 2
    samples = 120 episodes per unit, budget 3, k 3, ``--jobs 1``. Four
    endpoint requests per 2-hop episode. Each unit starts its own stub and
    ingests the corpus as set-up, then runs the three commands.

    One job: the run is pinned to one CPU (see ``run.py``), where a second
    worker thread would only queue behind the first and its stub replies,
    and the episode latency would measure that queue.
    """

    name = "llm_pipeline"
    ENTITIES, RELATIONS, QUESTIONS, SAMPLES = 30, 3, 60, 2
    BUDGET, K, JOBS = 3, 3, 1

    def __init__(self, seed: int, work_dir: Path, recorder):
        self.seed = seed
        self.recorder = recorder
        self.dir = work_dir
        world = synth.generate_world(self.ENTITIES, self.RELATIONS, 2, 1.0, seed)
        self.examples = synth.make_questions(world, self.QUESTIONS, seed)
        self.corpus = work_dir / "corpus.jsonl"
        self.examples_path = work_dir / "examples.jsonl"
        trajectory.write_passages_jsonl(self.corpus, synth.render_corpus(world))
        trajectory.write_examples_jsonl(self.examples_path, self.examples)
        self.stub: StubProcess | None = None
        os.environ.setdefault("EXSEARCH_API_KEY", "offline-stub")

    def _cli(self, command: str, *args: str) -> tuple[int, str]:
        argv = [command, *args, "--jobs", str(self.JOBS), "--seed", str(self.seed)]
        err = io.StringIO()
        with self.recorder.span(f"cli.{command.replace('-', '_')}"), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue().strip()

    def prepare(self, unit: int):
        return unit

    def setup(self, unit):
        paths = {name: self.dir / f"{name}-{unit}"
                 for name in ("index", "engine.json", "trajectories.jsonl",
                              "weighted.jsonl", "sft.jsonl")}
        self.stub = stub = StubProcess()
        state = {"paths": paths, "errors": []}
        paths["engine.json"].write_text(json.dumps({
            "llm": {"base_url": stub.base_url, "model_name": "stub"},
            "retriever": {"index": str(paths["index"]), "k": self.K}}))
        self._step(state, "ingest", "--corpus", str(self.corpus),
                   "--index", str(paths["index"]))
        return state

    def _step(self, state, command: str, *args: str) -> None:
        if state["errors"]:
            return
        code, err = self._cli(command, *args)
        if code != 0:
            state["errors"].append(f"{command} exited {code}: {err}")

    def work(self, state) -> None:
        p = state["paths"]
        examples = str(self.examples_path)
        self._step(state, "explore", "--examples", examples, "--policy", "llm",
                   "--config", str(p["engine.json"]), "--samples", str(self.SAMPLES),
                   "--budget", str(self.BUDGET), "--k", str(self.K),
                   "--out", str(p["trajectories.jsonl"]))
        self._step(state, "weigh", "--trajectories", str(p["trajectories.jsonl"]),
                   "--examples", examples, "--mode", "reward-em",
                   "--out", str(p["weighted.jsonl"]))
        self._step(state, "export-sft", "--weighted", str(p["weighted.jsonl"]),
                   "--examples", examples, "--out", str(p["sft.jsonl"]))

    def finish(self, state, trace) -> UnitResult:
        stats = self.stub.stats()
        self.close()
        planned = self.QUESTIONS * self.SAMPLES
        checks = [Check("commands", not state["errors"], "; ".join(state["errors"]))]
        quality = {}
        if not state["errors"]:
            with open(state["paths"]["sft.jsonl"], encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh if line.strip()]
            golds = {ex.id: ex.gold_answers for ex in self.examples}
            sums: dict[str, float] = {}
            for record in records:
                example_id = record["id"].rsplit("/", 1)[0]
                sums[example_id] = sums.get(example_id, 0.0) + record["weight"]
            answer_em = (sum(r["metrics"]["em"] for r in records) / len(records)
                         if records else 0.0)
            wrong = [r["id"] for r in records
                     if r["answer"] not in golds[r["id"].rsplit("/", 1)[0]]]
            bad_sums = {k: v for k, v in sums.items() if abs(v - 1.0) > 1e-9}
            checks += [
                Check("record_count", len(records) == planned,
                      f"{len(records)} records, expected {planned}"),
                Check("weights_sum_to_1", not bad_sums and len(sums) == self.QUESTIONS,
                      f"{bad_sums}"),
                Check("answer_em", answer_em == 1.0 and not wrong,
                      f"answer_em {answer_em}, wrong answers {wrong[:5]}"),
            ]
            quality["answer_em"] = answer_em
        episodes = len(trace.episode_ms)
        return UnitResult(
            op_ms=trace.episode_ms, attempted=planned,
            failures=planned - episodes, checks=checks, quality=quality,
            layers={"stub.requests": stats["requests"],
                    "stub.non_200": stats["non_200"],
                    "stub.behavior.busy_s": stats["busy_s"]})

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stop()
            self.stub = None


WORKLOADS = {w.name: w for w in (ExactEM, SampledEM10k, LLMPipeline)}
