import copy
import string

import numpy as np
import pytest
from hypothesis import strategies as st

from exsearch import agent, retrieval, synth
from exsearch.policy import LOG_FLOOR, TabularPolicy, TabularPolicyParams, logsumexp, softmax
from exsearch.training import ExampleBatch
from exsearch.trajectory import (
    Passage,
    ScoredPassage,
    Step,
    Trajectory,
    WeightedTrajectory,
)

SAT = 1000.0  # logit scale at which the minor branch underflows to exactly 0


@pytest.fixture(autouse=True)
def api_key_env(monkeypatch):
    monkeypatch.setenv("EXSEARCH_API_KEY", "test-key")


def one_hot(size: int, index: int, scale: float = SAT) -> np.ndarray:
    row = np.full(size, -scale)
    row[index] = scale
    return row


def random_word(rng: np.random.Generator, n: int = 6) -> str:
    letters = string.ascii_lowercase
    return "".join(letters[rng.integers(0, 26)] for _ in range(n))


def random_trajectory(rng: np.random.Generator, max_steps: int = 4) -> tuple[Trajectory, str]:
    """A structurally valid trajectory with a random answer, for round-trips."""
    n_steps = int(rng.integers(0, max_steps + 1))
    steps = []
    for hop in range(1, n_steps + 1):
        n_docs = int(rng.integers(0, 4))
        scores = sorted((float(rng.random()) for _ in range(n_docs)), reverse=True)
        retrieved = tuple(
            ScoredPassage(passage_ref=f"p{rng.integers(0, 1000)}-{i}", score=s, rank=i)
            for i, s in enumerate(scores, 1))
        selected = None
        if retrieved and rng.random() < 0.4:
            k = int(rng.integers(1, len(retrieved) + 1))
            picks = rng.permutation(len(retrieved))[:k]
            selected = tuple(retrieved[int(i)].passage_ref for i in picks)
        evidence = random_word(rng) if (not retrieved or rng.random() < 0.9) else ""
        if not retrieved:
            evidence = "" if rng.random() < 0.5 else random_word(rng)
        steps.append(Step(sub_query=f"{random_word(rng)} {random_word(rng)}",
                          retrieved=retrieved, selected=selected,
                          evidence=evidence, hop=hop))
    trajectory = Trajectory(question=f"{random_word(rng)} {random_word(rng)}",
                            steps=tuple(steps), terminated=True,
                            budget=max(1, n_steps) + int(rng.integers(0, 2)))
    return trajectory, random_word(rng)


def chain_world(seed: int = 0, n_entities: int = 20, n_relations: int = 4,
                hops: int = 2, density: float = 0.8, n_questions: int = 6,
                aligned: bool = True):
    """World + aligned question set + retriever, the standard test rig."""
    world = synth.generate_world(n_entities, n_relations, hops, density, seed)
    if aligned:
        seq = synth.best_relation_sequence(world, distinct_nodes=True)
        questions = synth.make_questions(world, n_questions, seed,
                                         relation_sequence=seq, distinct_nodes=True)
    else:
        questions = synth.make_questions(world, n_questions, seed)
    retriever = retrieval.Retriever(retrieval.build_index(synth.render_corpus(world)))
    return world, questions, retriever


def uniform_policy(world, budget: int, k: int) -> TabularPolicy:
    params = TabularPolicyParams.uniform(len(world.relations), budget, k)
    return TabularPolicy(params, world.relations)


def chain_following_policy(world, relation_sequence, budget: int, k: int) -> TabularPolicy:
    """Deterministic policy that follows the given relation per hop then stops."""
    n = len(world.relations)
    rows = []
    for hop in range(1, budget + 2):
        if hop <= len(relation_sequence):
            rows.append(one_hot(n + 1, world.relations.index(relation_sequence[hop - 1])))
        else:
            rows.append(one_hot(n + 1, n))  # STOP
    return TabularPolicy(TabularPolicyParams(
        think_logits=np.vstack(rows),
        record_logits=one_hot(k, 0),
        answer_logits=one_hot(2, 0),
    ), world.relations)


def exact_posterior_batches(examples, policy: TabularPolicy,
                            retriever: retrieval.Retriever, budget: int,
                            k: int, rerank_keep: int | None = None
                            ) -> list[ExampleBatch]:
    """Every trajectory of each example, enumerated and weighted by its exact
    posterior given the gold answers (trajectories of weight 0 left out):
    the enumeration oracle for the lattice's E-step."""
    batches = []
    for example in examples:
        golds = set(example.gold_answers)
        per_traj: dict[Trajectory, list[float]] = {}
        for trajectory, answer, logp in policy.enumerate_trajectories(
                example, retriever, budget, k, rerank_keep=rerank_keep):
            per_traj.setdefault(trajectory, [])
            if answer in golds:
                per_traj[trajectory].append(logp)
        raws = [logsumexp(terms) if terms else LOG_FLOOR for terms in per_traj.values()]
        weights = softmax(raws)
        items = [WeightedTrajectory(trajectory=t, answer=example.gold_answers[0],
                                    log_weight=raw, weight=float(w),
                                    weight_mode="posterior-logprob")
                 for t, raw, w in zip(per_traj, raws, weights) if w != 0.0]
        batches.append(ExampleBatch(example=example, items=items))
    return batches


def make_retriever(passages) -> retrieval.Retriever:
    return retrieval.Retriever(retrieval.build_index(passages))


def tiny_wiki_corpus() -> list[Passage]:
    """Two-passage corpus behind the scripted multi-hop episode tests."""
    return [
        Passage(
            id="nav",
            title="Navarone Garibaldi",
            text=("Navarone Anthony Garibaldi is an American musician and the "
                  "frontman of the band Them Guns. He is the half-brother of "
                  "Lisa Marie Presley.")),
        Passage(
            id="lmp",
            title="Lisa Marie Presley",
            text=("Lisa Marie Presley is an American singer-songwriter. She has "
                  "been married four times.")),
    ]


def default_agent(budget: int = 5, k: int = 3, **kw) -> agent.AgentConfig:
    return agent.AgentConfig(budget=budget, k=k, **kw)


def repeated_subquery_hops(steps) -> tuple[int, ...]:
    """Hop numbers (1-based) whose sub-query occurs more than once."""
    queries = [s.sub_query for s in steps]
    dup = {q for q in queries if queries.count(q) > 1}
    return tuple(i for i, q in enumerate(queries, 1) if q in dup)


# --- reader fuzz: one field or list item of a valid document replaced or deleted

FUZZ_POOL = [None, True, False, 0, 3, -1, 10**400, 1.5, float("nan"), "", "x", "p2",
             [], ["p1"], [1], [{}], {}, {"id": "p1"}]
_DELETE = object()


def _field_paths(value, path=()):
    """The path of every field and list item of ``value``, at any depth."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    return [p for key, item in items for p in [(*path, key), *_field_paths(item, (*path, key))]]


@st.composite
def mutated(draw, document):
    """``document`` with one field or list item, at any depth, replaced by a
    value of FUZZ_POOL or deleted."""
    *parents, key = draw(st.sampled_from(_field_paths(document)))
    value = draw(st.sampled_from(FUZZ_POOL + [_DELETE]))
    document = copy.deepcopy(document)
    target = document
    for part in parents:
        target = target[part]
    if value is _DELETE:
        del target[key]
    else:
        target[key] = value
    return document
