"""Self-training loop: trajectory exploration with importance weights,
re-weighted closed-form updates for the tabular policy, likelihood/ELBO
tracking, early stopping, and weighted training-data export in the chat
format of :func:`exsearch.llm.chat_turns`.

Each iteration weights search trajectories by how well they support the
gold answer and refits the policy's categorical heads on the weighted
choices. With exact weighting and the closed-form update, the mean training
log-likelihood is non-decreasing across iterations (up to the additive
smoothing, which is kept tiny to avoid zero-probability lock-in).

Both E-steps end in one :class:`~.policy.FactorMass` per example (None
without signal), and one M-step (:func:`m_step_tabular`) and one ELBO
(:func:`compute_elbo`) run on it. In exact mode the mass is the posterior of
a forward-backward pass on the policy's (hop, entity)
:class:`~.policy.Lattice`, which also gives the log-likelihood, so no
trajectory is enumerated. One :class:`~.policy.EdgeTable` per
:func:`em_train` call holds the lattices' edges, document selection
included, for every example, iteration and log-likelihood validation; each
policy weighs it once for all of its lattices. In sampled mode
:func:`e_step` samples episodes and weights them per example with a
max-subtracted softmax over the raw log-weights, and :func:`factor_masses`
replays each weighted trajectory once into its decision factors.

Raw weights come in two families: ``posterior-logprob`` uses the policy's
own log-likelihood of the gold answer given the trajectory, while the
``reward-*`` modes plug a task metric of the sampled answer (EM, accuracy,
or token F1) into the same softmax, yielding the goal-oriented variant.
"""

from __future__ import annotations

import concurrent.futures
import csv
import logging
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .agent import AgentConfig, EpisodeResult, episode_rng, run_episode
from .errors import ExsearchError, LogprobsUnsupported, MissingAnnotation
from .llm import chat_turns, wire_messages
from .metrics import accuracy, exact_match, token_f1
from .policy import (
    LOG_FLOOR,
    EdgeTable,
    ExpectedCounts,
    FactorMass,
    Lattice,
    TabularPolicy,
    TabularPolicyParams,
    logsumexp,
    softmax,
)
from .retrieval import Retriever
from .trajectory import (
    WEIGHT_MODES,
    Example,
    ScoredPassage,
    Step,
    Trajectory,
    WeightedTrajectory,
    render_transcript,
    write_jsonl,
)

logger = logging.getLogger("exsearch")

E_STEP_MODES = ("sampled", "exact-enumeration")
VALIDATION_METRICS = ("loglik", "em", "acc")
# A validation score improves on the best only when it exceeds it by more.
EARLY_STOP_MIN_DELTA = 1e-6

REWARD_FNS = {
    "reward-em": exact_match,
    "reward-acc": accuracy,
    "reward-f1": token_f1,
}


@dataclass(frozen=True)
class TrainConfig:
    """Loop settings: iteration and sample counts, weighting, stopping."""

    iterations: int = 5
    samples_per_example: int = 2
    weight_mode: str = "posterior-logprob"
    e_step_mode: str = "sampled"
    early_stop_patience: int = 1  # 0 disables early stopping
    validation_metric: str = "loglik"

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.samples_per_example < 1:
            raise ValueError("samples_per_example must be >= 1")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode {self.weight_mode!r}")
        if self.e_step_mode not in E_STEP_MODES:
            raise ValueError(f"unknown e-step mode {self.e_step_mode!r}")
        if self.validation_metric not in VALIDATION_METRICS:
            raise ValueError(f"unknown validation metric {self.validation_metric!r}")
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be >= 0")


@dataclass
class ExampleBatch:
    """Weighted trajectories explored for one example."""

    example: Example
    items: list[WeightedTrajectory]
    failures: int = 0


@dataclass(frozen=True)
class IterationReport:
    """One completed training iteration; ``failures`` counts the E-step's
    failed episodes (always 0 in exact mode, which runs none)."""

    iteration: int
    train_loglik: float | None
    elbo: float
    validation_score: float
    wall_time: float
    failures: int = 0


@dataclass
class Exploration:
    """The episodes sampled for one example, by sample index; a failed
    sample keeps its error instead of a result."""

    example: Example
    results: list[tuple[int, EpisodeResult]]
    errors: list[tuple[int, ExsearchError]]


def explore(examples: Sequence[Example], policy, retriever: Retriever,
            agent_config: AgentConfig, samples: int, seed: int = 0,
            sample_base: int = 0, jobs: int = 1) -> list[Exploration]:
    """Run ``samples`` episodes per example, in example order.

    Sample i of an example runs on ``episode_rng(seed, example.id,
    sample_base + i)`` and in its own episode from ``policy.start``, so
    ``jobs`` worker threads never change a result. An episode that raises
    ExsearchError is kept as an error on its exploration, never aborting
    the others.
    """
    def explore_one(example: Example) -> Exploration:
        found = Exploration(example=example, results=[], errors=[])
        for i in range(samples):
            rng = episode_rng(seed, example.id, sample_base + i)
            try:
                found.results.append((i, run_episode(
                    example.question, policy, retriever, agent_config, rng)))
            except ExsearchError as exc:
                found.errors.append((i, exc))
        return found

    if jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(explore_one, examples))
    return [explore_one(ex) for ex in examples]


def weigh(example: Example, samples: Sequence[tuple[Trajectory, str]],
          weight_mode: str, policy=None, failures: int = 0) -> ExampleBatch:
    """Weight one example's (trajectory, answer) samples under ``weight_mode``.

    The raw log-weight is the policy's log-probability of any gold answer
    (``posterior-logprob``, which needs ``policy``) or the reward of the
    sampled answer; raw weights are then softmax-normalized per example.
    Golds the trajectory cannot produce (scored at LOG_FLOOR) add nothing, so
    a trajectory that produces none of them stays at LOG_FLOOR.
    """
    golds = list(example.gold_answers)
    if weight_mode == "posterior-logprob":
        def log_weight(t: Trajectory) -> float:
            scores = (policy.score_answer(example.question, t, g)
                      for g in dict.fromkeys(golds))
            return logsumexp(s for s in scores if s > LOG_FLOOR)
        entries = [(t, a, log_weight(t)) for t, a in samples]
    else:
        reward = REWARD_FNS[weight_mode]
        entries = [(t, a, float(reward(a, golds))) for t, a in samples]
    if not entries:
        return ExampleBatch(example=example, items=[], failures=failures)
    weights = softmax([raw for _t, _a, raw in entries])
    items = [WeightedTrajectory(trajectory=t, answer=a, log_weight=raw,
                                weight=float(w), weight_mode=weight_mode)
             for (t, a, raw), w in zip(entries, weights)]
    return ExampleBatch(example=example, items=items, failures=failures)


def e_step(examples: Sequence[Example], policy, retriever: Retriever,
           config: TrainConfig, agent_config: AgentConfig, seed: int = 0,
           sample_base: int = 0, jobs: int = 1) -> list[ExampleBatch]:
    """The sampled E-step: explore and weight trajectories for every example.

    Runs ``samples_per_example`` episodes per example with isolated RNG
    streams (:func:`explore`) and weights them (:func:`weigh`); an example
    whose endpoint cannot score log-probabilities is weighted under
    ``reward-em`` instead. Per-example failures are recorded on the batch and
    never abort the run. The exact E-step is the lattice's backward pass,
    which :func:`em_train` runs itself; an exact ``config`` raises
    ValueError.
    """
    if not examples:
        raise ValueError("e_step needs a non-empty dataset")
    if config.e_step_mode != "sampled":
        raise ValueError(f"e_step samples; {config.e_step_mode!r} mode runs on "
                         "the lattice in em_train")
    batches = []
    for found in explore(examples, policy, retriever, agent_config,
                         config.samples_per_example, seed, sample_base, jobs):
        for i, exc in found.errors:
            logger.warning("episode failed for %s sample %d: %s",
                           found.example.id, i, exc)
        samples = [(r.trajectory, r.answer) for _i, r in found.results]
        try:
            batch = weigh(found.example, samples, config.weight_mode, policy,
                          len(found.errors))
        except LogprobsUnsupported:
            logger.warning("endpoint lacks logprobs; falling back to reward-em "
                           "weighting for %s", found.example.id)
            batch = weigh(found.example, samples, "reward-em", policy,
                          len(found.errors))
        batches.append(batch)
    return batches


def _batch_has_signal(batch: ExampleBatch) -> bool:
    """Whether any sample actually supports the answer target.

    When every raw weight sits at its no-signal level (the -1e9 floor under
    posterior weighting, reward 0 under reward weighting), the normalized
    weights are uniform over unsupportive trajectories and updating on them
    would reinforce noise; such examples are skipped for the iteration.
    """
    for wt in batch.items:
        if wt.weight_mode.startswith("reward-"):
            if wt.log_weight > 0.0:
                return True
        elif wt.log_weight > LOG_FLOOR:
            return True
    return False


def _updated_logits(old_row: np.ndarray, counts: np.ndarray,
                    smoothing: float) -> np.ndarray:
    total = counts.sum()
    if total == 0.0:
        return old_row.copy()
    probs = (counts + smoothing) / (total + smoothing * len(counts))
    return np.log(probs)


def factor_masses(policy: TabularPolicy, batches: Sequence[ExampleBatch],
                  retriever: Retriever) -> list[FactorMass | None]:
    """The sampled E-step's posterior: each batch's weighted trajectories
    replayed once into their decision factors; None for a batch without
    signal. The answer target is the gold answers under posterior weighting
    and the sampled answer under reward weighting. A mass depends on the
    policy's relations and head sizes, never on its parameter values."""
    masses: list[FactorMass | None] = []
    for batch in batches:
        if not _batch_has_signal(batch):
            masses.append(None)
            continue
        golds = tuple(dict.fromkeys(batch.example.gold_answers))
        mass = FactorMass.zeros(policy.params)
        for wt in batch.items:
            if wt.weight > 0.0:
                targets = (wt.answer,) if wt.weight_mode.startswith("reward-") else golds
                policy.replay(wt.trajectory, retriever, mass, wt.weight, targets)
        masses.append(mass)
    return masses


def update_from_counts(params: TabularPolicyParams, counts: ExpectedCounts,
                       smoothing: float = 1e-3) -> TabularPolicyParams:
    """Closed-form categorical update: each head's new probability is the
    smoothed, normalized count of its outcomes; heads (or think rows) with
    no counts keep their prior logits."""
    rows = params.think_logits.shape[0]
    new_think = np.vstack([
        _updated_logits(params.think_logits[r], counts.think[r], smoothing)
        for r in range(rows)])
    new_record = _updated_logits(params.record_logits, counts.record, smoothing)
    new_answer = _updated_logits(params.answer_logits, counts.answer, smoothing)
    return TabularPolicyParams(think_logits=new_think, record_logits=new_record,
                               answer_logits=new_answer)


def m_step_tabular(policy: TabularPolicy, masses: Sequence[FactorMass | None],
                   smoothing: float = 1e-3) -> TabularPolicyParams:
    """The M-step for either E-step: :func:`update_from_counts` of the
    expected counts of ``masses`` (None entries skipped) under ``policy``.
    Where several outcomes yield the same text, a factor's mass is split in
    proportion to their probabilities under ``policy``."""
    counts = ExpectedCounts.zeros(policy.params)
    for mass in masses:
        if mass is not None:
            counts.add(mass.counts(policy))
    return update_from_counts(policy.params, counts, smoothing)


def compute_elbo(policy: TabularPolicy, masses: Sequence[FactorMass | None]) -> float:
    """Mean over masses that are not None of sum_z w(z) [log p(z|x) + log p(y|x,z)].

    The target y is the one the M-step counts: any gold answer under
    posterior weighting, the sampled answer under reward weighting. The
    proposal entropy term is constant within an iteration and omitted; add
    :func:`posterior_entropy` back to compare against the exact marginal.
    """
    values = [mass.log_prob(policy) for mass in masses if mass is not None]
    return float(np.mean(values)) if values else 0.0


def posterior_entropy(weights: Iterable[float]) -> float:
    """Entropy of a normalized weight assignment (0 log 0 = 0)."""
    return float(-sum(w * np.log(w) for w in weights if w > 0.0))


def _edge_table(policy: TabularPolicy, retriever: Retriever,
                agent_config: AgentConfig) -> EdgeTable:
    """The lattice edges of the episodes ``agent_config`` runs."""
    return EdgeTable(retriever, policy.relations, agent_config.k,
                     agent_config.rerank_keep if agent_config.rerank else None)


def _lattices(policy: TabularPolicy, examples: Sequence[Example],
              table: EdgeTable, budget: int) -> list[Lattice]:
    edges = table.weigh(policy)
    return [Lattice(edges, ex, budget) for ex in examples]


def _mean_loglik(lattices: Sequence[Lattice]) -> float:
    return float(np.mean([lat.log_marginal for lat in lattices]))


def mean_train_loglik(policy: TabularPolicy, examples: Sequence[Example],
                      retriever: Retriever, agent_config: AgentConfig) -> float:
    """Mean exact log-marginal of the gold answers, by the lattice's forward pass."""
    return _mean_loglik(_lattices(policy, examples,
                                  _edge_table(policy, retriever, agent_config),
                                  agent_config.budget))


def _validation_score(policy, examples: Sequence[Example], retriever: Retriever,
                      config: TrainConfig, agent_config: AgentConfig,
                      seed: int, iteration: int, table: EdgeTable) -> float:
    if config.validation_metric == "loglik":
        return _mean_loglik(_lattices(policy, examples, table, agent_config.budget))
    metric = exact_match if config.validation_metric == "em" else accuracy
    scores = []
    for ex in examples:
        rng = episode_rng(seed, f"validation:{ex.id}", iteration)
        result = run_episode(ex.question, policy, retriever, agent_config, rng)
        scores.append(metric(result.answer, list(ex.gold_answers)))
    return float(np.mean(scores))


def em_train(examples: Sequence[Example], policy: TabularPolicy,
             retriever: Retriever, config: TrainConfig,
             agent_config: AgentConfig, seed: int = 0,
             val_examples: Sequence[Example] | None = None,
             jobs: int = 1) -> tuple[list[IterationReport], TabularPolicyParams]:
    """Alternate exploration and re-weighted updates for up to N iterations.

    Each iteration's E-step gives one :class:`~.policy.FactorMass` (or None)
    per example: the lattice's posterior in exact mode, :func:`factor_masses`
    of the sampled :func:`e_step` otherwise. :func:`m_step_tabular` refits
    the parameters on those masses and :func:`compute_elbo` scores them under
    the new parameters. Exact mode then builds the lattices under the new
    parameters once: they give ``train_loglik``, the ``loglik`` validation
    score when validation uses the training set, and the next iteration's
    E-step. Every lattice of the call, ``loglik`` validation included, takes
    its edges from one :class:`~.policy.EdgeTable`, so each search the
    lattices need runs once; the table applies ``agent_config``'s document
    selection (``rerank``) as episodes do.

    Stops early when the validation metric fails to improve by more than
    ``EARLY_STOP_MIN_DELTA`` for ``early_stop_patience`` consecutive
    iterations (patience 0 disables).
    Returns one report per completed iteration plus the final parameters.
    Exact mode raises ValueError when ``agent_config`` stops episodes on a
    repeated sub-query (``dedup_subqueries``).
    """
    exact = config.e_step_mode == "exact-enumeration"
    if exact and agent_config.dedup_subqueries:
        raise ValueError("exact training cannot stop on a repeated sub-query "
                         "(dedup): the lattice's states do not record the path")
    val = list(val_examples) if val_examples is not None else list(examples)
    table = _edge_table(policy, retriever, agent_config)
    lattices = None
    reports: list[IterationReport] = []
    best: float | None = None
    streak = 0
    for iteration in range(config.iterations):
        started = time.perf_counter()
        train_loglik = None
        failures = 0
        if exact:
            if lattices is None:
                lattices = _lattices(policy, examples, table, agent_config.budget)
            masses = [lat.posterior for lat in lattices]
        else:
            batches = e_step(
                examples, policy, retriever, config, agent_config, seed=seed,
                sample_base=iteration * config.samples_per_example, jobs=jobs)
            failures = sum(b.failures for b in batches)
            masses = factor_masses(policy, batches, retriever)
        policy = policy.with_params(m_step_tabular(policy, masses))
        elbo = compute_elbo(policy, masses)
        if exact:
            lattices = _lattices(policy, examples, table, agent_config.budget)
            train_loglik = _mean_loglik(lattices)
        if exact and val_examples is None and config.validation_metric == "loglik":
            score = train_loglik
        else:
            score = _validation_score(policy, val, retriever, config, agent_config,
                                      seed, iteration, table)
        reports.append(IterationReport(
            iteration=iteration, train_loglik=train_loglik, elbo=elbo,
            validation_score=score, wall_time=time.perf_counter() - started,
            failures=failures))
        if best is None or score > best + EARLY_STOP_MIN_DELTA:
            best = score
            streak = 0
        else:
            streak += 1
            if config.early_stop_patience and streak >= config.early_stop_patience:
                logger.info("early stop after iteration %d (no improvement for "
                            "%d iterations)", iteration, streak)
                break
    return reports, policy.params


def write_history_csv(path, reports: Sequence[IterationReport]) -> None:
    """Training history CSV for external plotting of convergence curves."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "train_loglik", "elbo", "validation_score",
                         "wall_time"])
        for r in reports:
            writer.writerow([
                r.iteration,
                "" if r.train_loglik is None else repr(r.train_loglik),
                repr(r.elbo), repr(r.validation_score), repr(r.wall_time)])


def sft_record(record_id: str, example: Example, wt: WeightedTrajectory) -> dict:
    golds = list(example.gold_answers)
    return {
        "id": record_id,
        "messages": wire_messages(chat_turns(
            example.question, render_transcript(wt.trajectory, wt.answer))),
        "answer": wt.answer,
        "weight": wt.weight,
        "weight_mode": wt.weight_mode,
        "metrics": {
            "em": exact_match(wt.answer, golds),
            "f1": token_f1(wt.answer, golds),
            "acc": accuracy(wt.answer, golds),
        },
    }


def export_weighted_sft(batches: Sequence[ExampleBatch], path) -> int:
    """Write weighted trajectories as chat-format training records.

    One JSON line per trajectory, deterministically ordered by (example id,
    sample index); re-exporting the same batches is byte-identical.
    """
    rows = []
    for batch in sorted(batches, key=lambda b: b.example.id):
        for i, wt in enumerate(batch.items):
            rows.append(sft_record(f"{batch.example.id}/{i}", batch.example, wt))
    return write_jsonl(path, rows)


def warmup_format(examples: Sequence[Example], retriever: Retriever,
                  k: int) -> list[dict]:
    """Format annotated examples into supervised transcripts.

    Each gold sub-query is paired with a live retrieval; when the example
    carries positionally matching gold passages, the paired gold passage is
    pinned to rank 1 (taking the top score so ranks stay score-ordered) and
    becomes the step's citation. Recorded evidence comes from
    ``gold_evidences`` when present, falling back to the paired passage
    title. Raises MissingAnnotation without gold sub-queries.
    """
    records = []
    for ex in examples:
        if not ex.gold_subqueries:
            raise MissingAnnotation("gold_subqueries")
        n = len(ex.gold_subqueries)
        paired = (list(ex.gold_passages)
                  if ex.gold_passages and len(ex.gold_passages) == n else None)
        evidences = (list(ex.gold_evidences)
                     if ex.gold_evidences and len(ex.gold_evidences) == n else None)
        steps = []
        for i, sub_query in enumerate(ex.gold_subqueries):
            hits = retriever.search(sub_query, k)
            gold_id = paired[i] if paired else None
            if gold_id is not None:
                try:
                    retriever.get(gold_id)
                except KeyError:
                    gold_id = None
            if gold_id is not None:
                top_score = hits[0].score if hits else 1.0
                tail = [h for h in hits if h.passage_ref != gold_id][:max(0, k - 1)]
                retrieved = [ScoredPassage(gold_id, top_score, 1)] + [
                    ScoredPassage(h.passage_ref, min(h.score, top_score), r)
                    for r, h in enumerate(tail, 2)]
                selected: tuple[str, ...] | None = (gold_id,)
            else:
                retrieved = list(hits)
                selected = None
            if evidences is not None:
                evidence = evidences[i]
            elif gold_id is not None:
                evidence = retriever.get(gold_id).title
            elif hits:
                evidence = retriever.get(hits[0].passage_ref).title
            else:
                evidence = ""
            steps.append(Step(sub_query=sub_query, retrieved=tuple(retrieved),
                              selected=selected, evidence=evidence, hop=i + 1))
        trajectory = Trajectory(question=ex.question, steps=tuple(steps),
                                terminated=True, budget=max(1, len(steps)))
        records.append({
            "id": ex.id,
            "messages": wire_messages(chat_turns(
                ex.question, render_transcript(trajectory, ex.gold_answers[0]))),
            "answer": ex.gold_answers[0],
        })
    return records
