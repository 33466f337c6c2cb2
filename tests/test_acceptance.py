"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS line on success (run with ``pytest -s`` to see
them; a pytest failure is the FAIL line).
"""

import json
import math
import re
import string
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    chain_following_policy,
    exact_posterior_batches,
    random_trajectory,
    repeated_subquery_hops,
    uniform_policy,
)
from exsearch import agent, metrics, retrieval, synth, training
from exsearch.agent import AgentConfig, parse_rank_directive
from exsearch.cli import main
from exsearch.policy import TabularPolicy, softmax
from exsearch.stub import ChainOracleBehavior, StubChatServer
from exsearch.trajectory import (
    parse_transcript,
    read_examples_jsonl,
    render_parsed,
    render_transcript,
)
from test_retrieval import brute_force_bm25, passages_from

FIXTURES = Path(__file__).parent / "fixtures"


def passed(name: str) -> None:
    print(f"\nACCEPTANCE PASS: {name}")


def training_world(seed: int):
    world = synth.generate_world(20, 4, 2, 0.8, seed=seed)
    sequence = synth.best_relation_sequence(world, distinct_nodes=True)
    questions = synth.make_questions(world, 6, seed, relation_sequence=sequence,
                                     distinct_nodes=True)
    retriever = retrieval.Retriever(retrieval.build_index(synth.render_corpus(world)))
    return world, questions, retriever


def run_exact_training(seed: int, iterations: int):
    world, questions, retriever = training_world(seed)
    policy = uniform_policy(world, budget=2, k=3)
    config = training.TrainConfig(iterations=iterations,
                                  e_step_mode="exact-enumeration",
                                  early_stop_patience=0,
                                  validation_metric="loglik")
    reports, _ = training.em_train(questions, policy, retriever, config,
                                   AgentConfig(budget=2, k=3), seed=seed)
    return [r.train_loglik for r in reports]


def test_em_monotonicity():
    """Mean train log-likelihood never decreases across 10 iterations."""
    started = time.perf_counter()
    for seed in range(10):
        logliks = run_exact_training(seed, iterations=10)
        assert len(logliks) == 10
        for a, b in zip(logliks, logliks[1:]):
            assert b - a >= -1e-9, f"seed {seed}: loglik dropped {a} -> {b}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"monotonicity sweep took {elapsed:.1f}s"
    passed(f"EM monotonicity (10 worlds x 10 iterations, {elapsed:.1f}s)")


def test_em_convergence():
    """Successive log-likelihood deltas fall below 1e-6 within 50 iterations."""
    for seed in range(10):
        logliks = run_exact_training(seed, iterations=50)
        deltas = [abs(b - a) for a, b in zip(logliks, logliks[1:])]
        hit = next((i + 2 for i, d in enumerate(deltas) if d < 1e-6), None)
        assert hit is not None and hit <= 50, f"seed {seed}: no delta < 1e-6"
    passed("convergence (deltas < 1e-6 within 50 iterations on 10 worlds)")


def test_elbo_tightness_and_jensen():
    """Posterior-weighted ELBO + entropy equals the log-marginal; any
    normalized weighting stays below it."""
    for seed in range(5):
        world, questions, retriever = training_world(seed)
        policy = uniform_policy(world, budget=2, k=3)
        batches = exact_posterior_batches(questions, policy, retriever, 2, 3)
        for batch in batches:
            elbo = training.compute_elbo(
                policy, training.factor_masses(policy, [batch], retriever))
            entropy = training.posterior_entropy([wt.weight for wt in batch.items])
            marginal = policy.exact_marginal_set(batch.example, retriever, 2, 3)
            assert abs(elbo + entropy - marginal) <= 1e-9

    world, questions, retriever = training_world(0)
    policy = uniform_policy(world, budget=2, k=3)
    example = questions[0]
    leaves = policy.enumerate_trajectories(example, retriever, 2, 3)
    trajectories = list(dict.fromkeys(t for t, _a, _lp in leaves))
    marginal = policy.exact_marginal_set(example, retriever, 2, 3)
    rng = np.random.default_rng(0)
    from exsearch.trajectory import WeightedTrajectory
    for _ in range(100):
        raw = rng.random(len(trajectories))
        weights = raw / raw.sum()
        items = [WeightedTrajectory(trajectory=t, answer=example.gold_answers[0],
                                    log_weight=0.0, weight=float(w),
                                    weight_mode="posterior-logprob")
                 for t, w in zip(trajectories, weights)]
        batch = training.ExampleBatch(example=example, items=items)
        masses = training.factor_masses(policy, [batch], retriever)
        assert training.compute_elbo(policy, masses) <= marginal + 1e-9
    passed("ELBO tightness (1e-9) and Jensen bound (100 weightings)")


def improvement_world(seed: int):
    world = synth.generate_world(30, 4, 2, 1.0, seed=seed)
    sequence = synth.best_relation_sequence(world, distinct_nodes=True)
    questions = synth.make_questions(world, 18, seed, relation_sequence=sequence,
                                     distinct_nodes=True)
    retriever = retrieval.Retriever(retrieval.build_index(synth.render_corpus(world)))
    return world, questions[:12], questions[12:], retriever


def expected_em(policy, examples, retriever, acfg):
    """Exact expected exact-match of the stochastic policy, by enumeration."""
    return float(np.mean([
        math.exp(policy.exact_marginal_set(ex, retriever, acfg.budget, acfg.k))
        for ex in examples]))


@pytest.mark.parametrize("mode,iterations", [("posterior-logprob", 12),
                                             ("reward-em", 20)])
def test_self_improvement(mode, iterations):
    """Sampled-mode training lifts held-out answer EM from the uniform
    baseline to >= 0.9 on at least 8 of 10 seeds."""
    wins = 0
    for seed in range(10):
        world, train, held, retriever = improvement_world(seed)
        acfg = AgentConfig(budget=2, k=1)
        policy = uniform_policy(world, budget=2, k=1)
        baseline = expected_em(policy, held, retriever, acfg)
        assert baseline <= 1 / len(world.relations) + 0.1
        config = training.TrainConfig(iterations=iterations, samples_per_example=8,
                                      weight_mode=mode, e_step_mode="sampled",
                                      early_stop_patience=0, validation_metric="em")
        _, params = training.em_train(train, policy, retriever, config, acfg,
                                      seed=seed)
        after = expected_em(TabularPolicy(params, world.relations), held,
                            retriever, acfg)
        wins += after >= 0.9
    assert wins >= 8, f"only {wins}/10 seeds reached EM >= 0.9"
    passed(f"self-improvement [{mode}] ({wins}/10 seeds reached EM >= 0.9)")


def test_weight_arithmetic():
    fixture = softmax([math.log(0.9), math.log(0.1)])
    assert fixture[0] == pytest.approx(0.9, abs=1e-12)
    assert fixture[1] == pytest.approx(0.1, abs=1e-12)
    rng = np.random.default_rng(1)
    for _ in range(200):
        raws = rng.normal(scale=10, size=int(rng.integers(1, 9)))
        weights = softmax(raws)
        assert abs(weights.sum() - 1.0) <= 1e-9
        assert np.all(weights >= 0.0)
        shifted = softmax(raws + float(rng.normal(scale=50)))
        assert np.all(np.abs(weights - shifted) <= 1e-12)
    passed("weight arithmetic (softmax fixtures, sums, shift invariance)")


# independent metric oracle: regex normalization + sorted-list overlap
def oracle_normalize(text: str) -> str:
    text = re.sub(f"[{re.escape(string.punctuation)}]", " ", text.lower())
    text = re.sub(r"\b(a|an|the)\b", " ", text)
    return re.sub(r"\s+", " ", text).strip()


def oracle_metrics(pred: str, gold: str) -> tuple[float, float, float]:
    np_, ng = oracle_normalize(pred), oracle_normalize(gold)
    em = 1.0 if np_ == ng else 0.0
    acc = 1.0 if ng in np_ else 0.0
    p, g = sorted(np_.split()), sorted(ng.split())
    if not p and not g:
        f1 = 1.0
    elif not p or not g:
        f1 = 0.0
    else:
        overlap = sum((Counter(p) & Counter(g)).values())
        f1 = (0.0 if overlap == 0 else
              2 * overlap / len(p) * overlap / len(g)
              / (overlap / len(p) + overlap / len(g)))
    return em, f1, acc


def test_metric_oracle_equivalence():
    assert metrics.token_f1("four", ["four times"]) == pytest.approx(2 / 3)
    rng = np.random.default_rng(2)
    vocab = ["four", "times", "The", "magazine", "a", "b", "c", "1989", "an"]
    checked = 0
    while checked < 200:
        pred = " ".join(vocab[int(i)] for i in rng.integers(0, len(vocab),
                                                            int(rng.integers(0, 6))))
        gold = " ".join(vocab[int(i)] for i in rng.integers(0, len(vocab),
                                                            int(rng.integers(1, 6))))
        if not oracle_normalize(gold):
            continue
        em, f1, acc = oracle_metrics(pred, gold)
        assert metrics.exact_match(pred, [gold]) == em
        assert metrics.token_f1(pred, [gold]) == pytest.approx(f1, abs=1e-12)
        assert metrics.accuracy(pred, [gold]) == acc
        checked += 1
    passed("metric oracle equivalence (200 pairs exact, F1 fixture 2/3)")


def test_retrieval_correctness():
    # pooled Recall@K / Precision@K against a brute-force oracle
    rng = np.random.default_rng(3)
    world = synth.generate_world(25, 4, 2, 0.9, seed=3)
    retriever = retrieval.Retriever(retrieval.build_index(synth.render_corpus(world)))
    questions = synth.make_questions(world, 10, seed=3)
    policy = uniform_policy(world, budget=2, k=4)
    config = AgentConfig(budget=2, k=4)
    checked = 0
    for ex in questions:
        for sample in range(5):
            result = agent.run_episode(ex.question, policy, retriever, config,
                                       agent.episode_rng(3, ex.id, sample))
            golds = list(ex.gold_answers)
            pool = metrics.pool_trajectory(result.trajectory, retriever.get)
            seen, flat = set(), []
            for step in result.trajectory.steps:
                for sp in step.retrieved:
                    if sp.passage_ref not in seen:
                        seen.add(sp.passage_ref)
                        flat.append(retriever.get(sp.passage_ref))
            for k in (1, 3, 5):
                contains = [
                    oracle_normalize(golds[0]) in
                    oracle_normalize(p.title + " " + p.text)
                    for p in flat[:k]]
                assert metrics.recall_at_k(pool, golds, k) == float(any(contains))
                assert metrics.precision_at_k(pool, golds, k) == pytest.approx(
                    sum(contains) / k)
            checked += 1
    assert checked == 50

    # full-ranking equivalence against exhaustive scoring at corpus scale
    vocab = [f"w{i}" for i in range(25)]
    passages = passages_from({
        f"p{i:03d}": " ".join(vocab[int(j)] for j in rng.integers(0, 25, size=7))
        for i in range(200)})
    index = retrieval.build_index(passages)
    for _ in range(15):
        query = " ".join(vocab[int(j)] for j in rng.integers(0, 25, size=2))
        oracle = brute_force_bm25(passages, query)
        expected = [pid for pid, s in sorted(
            ((pid, s) for pid, s in oracle.items() if s > 0),
            key=lambda kv: (-kv[1], kv[0]))]
        got = [h.passage_ref for h in retrieval.search(index, query, 200)]
        assert got == expected
    passed("retrieval correctness (pooling oracle x50, exhaustive BM25 x200 docs)")


def test_transcript_fidelity():
    good = parse_transcript((FIXTURES / "multihop_good_trace.txt").read_text())
    assert len(good.steps) == 2
    assert [s.evidence for s in good.steps] == ["Lisa Marie Presley", "four"]
    assert good.answer == "four"

    over = parse_transcript((FIXTURES / "oversearch_trace.txt").read_text())
    assert len(over.steps) == 7
    assert repeated_subquery_hops(over.steps) == (3, 4, 5, 6, 7)

    rng = np.random.default_rng(4)
    for _ in range(100):
        t, answer = random_trajectory(rng)
        text = render_transcript(t, answer)
        assert render_parsed(parse_transcript(text)) == text
    passed("transcript fidelity (case-study traces, 100 lossless round-trips)")


RANK_CASES = [
    ("[2] > [1] > [3]", 2, ["b", "a"]),
    ("[2] > [1] > [3]", 3, ["b", "a", "c"]),
    ("[9] > [1]", 2, ["a", "b"]),
    ("", 2, ["a", "b"]),
    ("no brackets", 3, ["a", "b", "c"]),
    ("[1] > [1] > [2]", 2, ["a", "b"]),
    ("[0] > [3]", 2, ["c", "a"]),
    ("[3]", 1, ["c"]),
    ("[3] [2] [1]", 3, ["c", "b", "a"]),
    ("[2]>[3]>[1]", 3, ["b", "c", "a"]),
    ("[4] [5]", 2, ["a", "b"]),
    ("[1] then [42] or [2]", 3, ["a", "b", "c"]),
]


def test_rerank_extension():
    for directive, m, expected in RANK_CASES:
        assert parse_rank_directive(directive, ["a", "b", "c"], m) == expected

    raw_means, selected_means = [], []
    for seed in range(10):
        world = synth.generate_world(30, 4, 2, 0.95, seed=seed)
        sequence = synth.best_relation_sequence(world, distinct_nodes=True)
        questions = synth.make_questions(world, 12, seed,
                                         relation_sequence=sequence,
                                         distinct_nodes=True)
        retriever = retrieval.Retriever(
            retrieval.build_index(synth.render_corpus(world)))
        policy = chain_following_policy(world, sequence, budget=2, k=5)
        config = AgentConfig(budget=2, k=5, rerank=True, rerank_keep=2)
        raw_p, sel_p = [], []
        for ex in questions:
            result = agent.run_episode(ex.question, policy, retriever, config,
                                       agent.episode_rng(seed, ex.id, 0))
            golds = list(ex.gold_answers)
            raw = metrics.pool_trajectory(result.trajectory, retriever.get)
            sel = metrics.pool_trajectory(result.trajectory, retriever.get,
                                          use_selected=True)
            raw_p.append(metrics.precision_at_k(raw, golds, 3))
            sel_p.append(metrics.precision_at_k(sel, golds, 3))
        raw_means.append(np.mean(raw_p))
        selected_means.append(np.mean(sel_p))
    assert np.mean(selected_means) >= np.mean(raw_means)
    passed(f"re-rank extension (12-case table; precision@3 "
           f"{np.mean(raw_means):.3f} -> {np.mean(selected_means):.3f})")


SFT_SCHEMA = {
    "type": "object",
    "required": ["id", "messages", "answer", "weight", "weight_mode", "metrics"],
    "properties": {
        "id": {"type": "string"},
        "messages": {
            "type": "array",
            "minItems": 3,
            "items": {
                "type": "object",
                "required": ["role", "content"],
                "properties": {"role": {"enum": ["system", "user", "assistant"]},
                               "content": {"type": "string"}},
            },
        },
        "answer": {"type": "string"},
        "weight": {"type": "number", "minimum": 0, "maximum": 1},
        "weight_mode": {"enum": ["posterior-logprob", "reward-em", "reward-acc",
                                 "reward-f1"]},
        "metrics": {
            "type": "object",
            "required": ["em", "f1", "acc"],
        },
    },
}


def test_pipeline_composability(tmp_path, capsys):
    import jsonschema

    started = time.perf_counter()
    out = tmp_path / "world"
    assert main(["synth-world", "--entities", "30", "--relations", "3",
                 "--hops", "2", "--density", "1.0", "--questions", "50",
                 "--seed", "11", "--out", str(out)]) == 0
    index_dir = tmp_path / "idx"
    assert main(["ingest", "--corpus", str(out / "corpus.jsonl"),
                 "--index", str(index_dir)]) == 0
    with StubChatServer(ChainOracleBehavior()) as server:
        config = tmp_path / "engine.json"
        config.write_text(json.dumps({
            "llm": {"base_url": server.base_url, "model_name": "stub",
                    "backoff_base": 0.01},
            "retriever": {"index": str(index_dir), "k": 3},
        }))
        assert main(["explore", "--examples", str(out / "examples.jsonl"),
                     "--policy", "llm", "--config", str(config),
                     "--samples", "2", "--budget", "3",
                     "--out", str(tmp_path / "trajs.jsonl")]) == 0
    assert main(["weigh", "--trajectories", str(tmp_path / "trajs.jsonl"),
                 "--examples", str(out / "examples.jsonl"),
                 "--mode", "reward-em", "--out", str(tmp_path / "w.jsonl")]) == 0
    assert main(["export-sft", "--weighted", str(tmp_path / "w.jsonl"),
                 "--examples", str(out / "examples.jsonl"),
                 "--out", str(tmp_path / "sft.jsonl")]) == 0
    capsys.readouterr()
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"pipeline took {elapsed:.1f}s"

    records = [json.loads(line)
               for line in (tmp_path / "sft.jsonl").read_text().splitlines()]
    assert len(records) == 100  # 50 questions x 2 samples
    sums: dict[str, float] = {}
    for record in records:
        jsonschema.validate(record, SFT_SCHEMA)
        example_id = record["id"].rsplit("/", 1)[0]
        sums[example_id] = sums.get(example_id, 0.0) + record["weight"]
    assert len(sums) == 50
    for total in sums.values():
        assert total == pytest.approx(1.0, abs=1e-9)
    # sanity: the oracle stub actually solves the synthetic chains
    examples = read_examples_jsonl(out / "examples.jsonl")
    golds = {ex.id: ex.gold_answers[0] for ex in examples}
    accuracy = np.mean([record["answer"] == golds[record["id"].rsplit("/", 1)[0]]
                        for record in records])
    assert accuracy == 1.0
    passed(f"pipeline composability (50 questions, {elapsed:.1f}s, "
           f"schema-valid, weights sum to 1)")
