import json
import math

import numpy as np
import pytest

from conftest import chain_following_policy, chain_world, one_hot, uniform_policy
from exsearch.agent import AgentConfig, run_episode
from exsearch.errors import (
    EnumerationTooLarge,
    MalformedFile,
    NoDocuments,
    UnrealizableTrajectory,
)
from exsearch.policy import (
    ABSTAIN,
    LOG_FLOOR,
    TabularPolicy,
    TabularPolicyParams,
    softmax,
)
from exsearch.retrieval import Retriever, build_index
from exsearch.synth import SyntheticWorld, render_corpus
from exsearch.trajectory import Example, Passage, Step, Trajectory


def empty_history(question="ent0 rel0"):
    return Trajectory(question=question, steps=(), terminated=False, budget=5)


def tiny_world(facts, relations, hop_count=1):
    entities = tuple(sorted({x for s, _r, o in facts for x in (s, o)}))
    return SyntheticWorld(entities=entities, relations=relations,
                          facts=tuple(facts), hop_count=hop_count, seed=0)


def world_retriever(world):
    return Retriever(build_index(render_corpus(world)))


def one_step_trajectory(retriever, sub_query, evidence, k):
    """A one-hop trajectory at budget 1: it has no STOP decision, so replay
    scores only its think and record decisions."""
    step = Step(sub_query=sub_query, retrieved=tuple(retriever.search(sub_query, k)),
                selected=None, evidence=evidence, hop=1)
    return Trajectory(question=sub_query, steps=(step,), terminated=True, budget=1)


class TestParams:
    def test_logits_must_be_finite(self):
        bad = np.zeros((2, 3))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            TabularPolicyParams(bad, np.zeros(2), np.zeros(2))

    def test_json_round_trip(self, tmp_path):
        params = TabularPolicyParams(
            think_logits=np.array([[0.5, -1.0, 2.0], [0.0, 0.0, 0.0]]),
            record_logits=np.array([0.1, 0.2]),
            answer_logits=np.array([1.0, -1.0]))
        path = tmp_path / "params.json"
        params.save(path)
        loaded = TabularPolicyParams.load(path)
        assert loaded.allclose(params)
        assert params.to_json_dict()["version"] == 1

    def test_saved_bytes(self, tmp_path):
        params = TabularPolicyParams(np.array([[0.5, -1.0, 2.0]]), np.array([0.25]),
                                     np.array([1.0, -1.0]))
        path = tmp_path / "params.json"
        params.save(path)
        assert path.read_bytes() == (
            b'{"think_logits": [[0.5, -1.0, 2.0]], "record_logits": [0.25], '
            b'"answer_logits": [1.0, -1.0], "temperature": 1.0, "version": 1}\n')

    @pytest.mark.parametrize("temperature", [0.5, 2.0, 0.0, "1.0"],
                             ids=["0.5", "2.0", "0.0", "string-1.0"])
    def test_other_temperature_is_malformed(self, tmp_path, temperature):
        d = TabularPolicyParams.uniform(2, budget=1, k=1).to_json_dict()
        path = tmp_path / "params.json"
        path.write_text(json.dumps({**d, "temperature": temperature}))
        with pytest.raises(MalformedFile, match="temperature"):
            TabularPolicyParams.load(path)
        path.write_text(json.dumps({k: v for k, v in d.items() if k != "temperature"}))
        assert TabularPolicyParams.load(path).allclose(
            TabularPolicyParams.uniform(2, budget=1, k=1))

    def test_relation_width_checked(self):
        params = TabularPolicyParams.uniform(3, budget=2, k=2)
        with pytest.raises(ValueError):
            TabularPolicy(params, ("r1", "r2"))


class TestSoftmaxInvariants:
    def test_shift_invariance_to_1e12(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.normal(size=5) * 10
            base = softmax(logits)
            shifted = softmax(logits + 123.456)
            assert np.all(np.abs(base - shifted) <= 1e-12)

    def test_saturated_one_hot(self):
        probs = softmax(one_hot(4, 2, scale=30.0))
        assert probs[2] == pytest.approx(1.0, abs=1e-9)


class TestProposeSubquery:
    def test_saturated_head_is_deterministic(self):
        world = tiny_world([("A", "r1", "B")], ("r1", "r2"))
        params = TabularPolicyParams(
            think_logits=np.vstack([one_hot(3, 0, scale=30.0)] * 2),
            record_logits=np.zeros(3), answer_logits=np.zeros(2))
        policy = TabularPolicy(params, world.relations)
        assert policy.propose_subquery(empty_history("A r1"),
                                       np.random.default_rng(0)) == "A r1"

    def test_uniform_three_way_probabilities(self):
        # one retrieved document: the record decision has probability 1
        world = tiny_world([("A", "r1", "B")], ("r1", "r2"))
        retriever = world_retriever(world)
        policy = uniform_policy(world, budget=2, k=3)
        t = one_step_trajectory(retriever, "A r1", "B", 3)
        assert policy.trajectory_log_prob(t, retriever) == pytest.approx(math.log(1 / 3))

    def test_monte_carlo_matches_softmax_within_3_sigma(self):
        world = tiny_world([("A", "r1", "B")], ("r1", "r2", "r3"))
        logits = np.array([1.3, -0.4, 0.2, 0.6])
        params = TabularPolicyParams(think_logits=logits[None, :].repeat(2, axis=0),
                                     record_logits=np.zeros(3),
                                     answer_logits=np.zeros(2))
        policy = TabularPolicy(params, world.relations)
        expected = softmax(logits)
        n = 100_000
        rng = np.random.default_rng(42)
        counts = np.zeros(4)
        history = empty_history("A r1")
        for _ in range(n):
            sub_query = policy.propose_subquery(history, rng)
            if sub_query is None:
                counts[3] += 1
            else:
                counts[world.relations.index(sub_query.split()[1])] += 1
        freqs = counts / n
        sigma = np.sqrt(expected * (1 - expected) / n)
        assert np.all(np.abs(freqs - expected) <= 3 * sigma + 1e-12)

    def test_uses_last_evidence_as_entity(self):
        world = tiny_world([("A", "r1", "B")], ("r1",))
        policy = chain_following_policy(world, ("r1", "r1"), budget=2, k=1)
        retriever = world_retriever(world)
        result = run_episode("A r1", policy, retriever, AgentConfig(budget=2, k=1),
                             np.random.default_rng(0))
        # hop 2 sub-query starts from hop-1 evidence "B"
        assert result.trajectory.steps[1].sub_query.startswith("B ")


class TestExtractEvidence:
    def docs(self, *objs):
        return [Passage(id=f"p{i}", title="t", text=f"s r {o}")
                for i, o in enumerate(objs)]

    def replayed(self, facts, evidence):
        """Replayed log-probability of the hop "A r1" recording ``evidence``
        from the top 3 documents, under a think head certain of r1 (so only
        the uniform record decision contributes)."""
        world = tiny_world(facts, ("r1", "r2", "r3"))
        retriever = world_retriever(world)
        params = TabularPolicyParams(
            think_logits=np.array([[0.0, LOG_FLOOR, LOG_FLOOR, LOG_FLOOR]] * 2),
            record_logits=np.zeros(3), answer_logits=np.zeros(2))
        policy = TabularPolicy(params, world.relations)
        t = one_step_trajectory(retriever, "A r1", evidence, 3)
        return policy.trajectory_log_prob(t, retriever)

    def test_single_document_log_prob_zero(self):
        assert self.replayed([("A", "r1", "B")], "B") == pytest.approx(0.0)

    def test_uniform_three_documents(self):
        facts = [("A", "r1", "B"), ("A", "r2", "C"), ("A", "r3", "D")]
        assert self.replayed(facts, "B") == pytest.approx(math.log(1 / 3))

    def test_duplicate_objects_pool_probability(self):
        # "A r1 B" and "A r2 B" both yield B: its two positions pool
        facts = [("A", "r1", "B"), ("A", "r2", "B"), ("A", "r3", "C")]
        assert self.replayed(facts, "B") == pytest.approx(math.log(2 / 3))
        assert self.replayed(facts, "C") == pytest.approx(math.log(1 / 3))

    def test_empty_documents_raise(self):
        world = tiny_world([("A", "r1", "B")], ("r1",))
        policy = uniform_policy(world, budget=1, k=3)
        with pytest.raises(NoDocuments):
            policy.extract_evidence([], np.random.default_rng(0))

    def test_monte_carlo_matches_renormalized_softmax(self):
        world = tiny_world([("A", "r1", "B")], ("r1",))
        params = TabularPolicyParams(
            think_logits=np.zeros((2, 2)),
            record_logits=np.array([0.9, -0.5, 0.4, 2.0]),
            answer_logits=np.zeros(2))
        policy = TabularPolicy(params, world.relations)
        docs = self.docs("B", "C", "D")  # only 3 of 4 record slots in play
        expected = softmax(np.array([0.9, -0.5, 0.4]))
        n = 100_000
        rng = np.random.default_rng(3)
        counts = {"B": 0, "C": 0, "D": 0}
        for _ in range(n):
            counts[policy.extract_evidence(docs, rng)] += 1
        freqs = np.array([counts["B"], counts["C"], counts["D"]]) / n
        sigma = np.sqrt(expected * (1 - expected) / n)
        assert np.all(np.abs(freqs - expected) <= 3 * sigma + 1e-12)


class TestAnswerHead:
    def trajectory_with_evidence(self, evidence):
        world = tiny_world([("A", "r1", evidence)], ("r1",))
        retriever = world_retriever(world)
        policy = chain_following_policy(world, ("r1",), budget=1, k=1)
        result = run_episode("A r1", policy, retriever, AgentConfig(budget=1, k=1),
                             np.random.default_rng(0))
        return result.trajectory

    def test_saturated_copy_head_scores_gold_at_zero(self):
        t = self.trajectory_with_evidence("B")
        world = tiny_world([("A", "r1", "B")], ("r1",))
        params = TabularPolicyParams(np.zeros((2, 2)), np.zeros(1), one_hot(2, 0))
        policy = TabularPolicy(params, world.relations)
        assert policy.score_answer("A r1", t, "B") == pytest.approx(0.0, abs=1e-9)

    def test_answer_outside_support_hits_floor(self):
        t = self.trajectory_with_evidence("B")
        world = tiny_world([("A", "r1", "B")], ("r1",))
        policy = uniform_policy(world, budget=1, k=1)
        assert policy.score_answer("A r1", t, "nope") == LOG_FLOOR

    def test_uniform_head_scores_evidence_at_half(self):
        t = self.trajectory_with_evidence("B")
        world = tiny_world([("A", "r1", "B")], ("r1",))
        policy = uniform_policy(world, budget=1, k=1)
        assert policy.score_answer("A r1", t, "B") == pytest.approx(math.log(0.5))
        assert policy.score_answer("A r1", t, ABSTAIN) == pytest.approx(math.log(0.5))

    def test_empty_trajectory_copies_empty_string(self):
        world = tiny_world([("A", "r1", "B")], ("r1",))
        policy = uniform_policy(world, budget=1, k=1)
        t = Trajectory(question="A r1", steps=(), terminated=True, budget=1)
        assert policy.answer(t, np.random.default_rng(0)) in ("", ABSTAIN)


class TestTrajectoryLogProb:
    def test_deterministic_policy_log_prob_zero(self):
        world = tiny_world([("A", "r1", "B")], ("r1", "r2"))
        retriever = world_retriever(world)
        policy = chain_following_policy(world, ("r1",), budget=1, k=1)
        result = run_episode("A r1", policy, retriever, AgentConfig(budget=1, k=1),
                             np.random.default_rng(0))
        lp = policy.trajectory_log_prob(result.trajectory, retriever, result.answer)
        assert lp == pytest.approx(0.0, abs=1e-9)

    def test_sampled_episodes_follow_replayed_probabilities(self):
        # Every sampled (trajectory, answer) is an enumerated leaf, and each
        # leaf's sampling frequency is within 5 sigma of its replayed
        # probability (about 40 leaves, so 3 sigma would fail by chance).
        world, questions, retriever = chain_world(seed=6, n_entities=6, n_relations=2,
                                                  density=1.0)
        rng = np.random.default_rng(11)
        params = TabularPolicyParams(think_logits=rng.normal(size=(3, 3)),
                                     record_logits=rng.normal(size=2),
                                     answer_logits=rng.normal(size=2))
        policy = TabularPolicy(params, world.relations)
        question = questions[0].question
        leaves = {(t, a): lp for t, a, lp in
                  policy.enumerate_trajectories(question, retriever, 2, 2)}
        for (t, a), lp in leaves.items():
            assert policy.trajectory_log_prob(t, retriever, a) == pytest.approx(lp, abs=1e-9)
        n = 20_000
        counts = dict.fromkeys(leaves, 0)
        config = AgentConfig(budget=2, k=2)
        for _ in range(n):
            result = run_episode(question, policy, retriever, config, rng)
            key = (result.trajectory, result.answer)
            assert key in counts
            counts[key] += 1
        for key, lp in leaves.items():
            p = math.exp(lp)
            assert abs(counts[key] / n - p) <= 5 * math.sqrt(p * (1 - p) / n) + 1e-12

    def test_linear_domain_product_matches(self):
        world, questions, retriever = chain_world(seed=6, density=1.0)
        policy = uniform_policy(world, budget=2, k=3)
        config = AgentConfig(budget=2, k=3)
        leaves = policy.enumerate_trajectories(questions[0], retriever, 2, 3)
        # log prob of (z, answer) equals log of the product of per-decision
        # probabilities recomputed in the linear domain
        for trajectory, answer, logp in leaves[:40]:
            linear = math.exp(policy.trajectory_log_prob(trajectory, retriever, answer))
            assert math.exp(logp) == pytest.approx(linear, rel=1e-9)

    def test_one_step_uniform_product(self):
        world = tiny_world(
            [("A", "r1", "B"), ("A", "r2", "C"), ("A", "r3", "D"),
             ("B", "r1", "A"), ("C", "r1", "A")],
            ("r1", "r2", "r3"))
        retriever = world_retriever(world)
        # think uniform over 3 relations (STOP suppressed), record uniform over 2
        params = TabularPolicyParams(
            think_logits=np.vstack([np.array([0.0, 0.0, 0.0, -1000.0])] * 2),
            record_logits=np.zeros(2), answer_logits=np.zeros(2))
        policy = TabularPolicy(params, world.relations)
        hits = retriever.search("A r1", 2)
        assert len(hits) == 2
        result = run_episode("A r1", policy, retriever, AgentConfig(budget=1, k=2),
                             np.random.default_rng(7))
        step = result.trajectory.steps[0]
        docs = retriever.resolve(step.retrieved)
        objects = [d.text.split()[-1] for d in docs]
        expected = math.log(1 / 3) + math.log(
            objects.count(step.evidence) / len(objects))
        lp = policy.trajectory_log_prob(result.trajectory, retriever)
        assert lp == pytest.approx(expected, abs=1e-9)

    def test_mismatched_retrieval_is_unrealizable(self):
        world = tiny_world([("A", "r1", "B")], ("r1",))
        retriever = world_retriever(world)
        policy = chain_following_policy(world, ("r1",), budget=1, k=1)
        result = run_episode("A r1", policy, retriever, AgentConfig(budget=1, k=1),
                             np.random.default_rng(0))
        tampered = Trajectory(
            question="A r1",
            steps=(result.trajectory.steps[0].__class__(
                sub_query="A r1",
                retrieved=(result.trajectory.steps[0].retrieved[0].__class__(
                    passage_ref="A-r1-B", score=1.0, rank=1),),
                selected=None, evidence="Z", hop=1),),
            terminated=True, budget=1)
        with pytest.raises(UnrealizableTrajectory):
            policy.trajectory_log_prob(tampered, retriever)


class TestEnumeration:
    def test_deterministic_policy_single_leaf(self):
        world = tiny_world([("A", "r1", "B")], ("r1", "r2"))
        retriever = world_retriever(world)
        policy = chain_following_policy(world, ("r1",), budget=1, k=1)
        leaves = policy.enumerate_trajectories("A r1", retriever, 1, 1)
        assert len(leaves) == 1
        trajectory, answer, logp = leaves[0]
        assert answer == "B" and math.exp(logp) == pytest.approx(1.0, abs=1e-9)

    def test_twelve_leaves_sum_to_one(self):
        # 3 relations (STOP suppressed), 2 distinct record outcomes, 2 answers
        world = tiny_world(
            [("A", "r1", "B"), ("A", "r2", "C"), ("A", "r3", "D"),
             ("B", "r1", "A"), ("C", "r2", "A"), ("D", "r3", "A")],
            ("r1", "r2", "r3"))
        retriever = world_retriever(world)
        params = TabularPolicyParams(
            think_logits=np.vstack([np.array([0.0, 0.0, 0.0, -1000.0])] * 2),
            record_logits=np.zeros(2), answer_logits=np.zeros(2))
        policy = TabularPolicy(params, world.relations)
        for q in ("A r1",):
            # verify each sub-query yields exactly two retrieval candidates
            for rel in world.relations:
                assert len(retriever.search(f"A {rel}", 2)) == 2
        leaves = policy.enumerate_trajectories("A r1", retriever, 1, 2)
        assert len(leaves) == 12
        assert sum(math.exp(lp) for *_x, lp in leaves) == pytest.approx(1.0, abs=1e-9)

    def test_probability_complete_on_random_worlds(self):
        for seed in range(3):
            world, questions, retriever = chain_world(seed=seed, density=0.7,
                                                      aligned=False, n_questions=3)
            policy = uniform_policy(world, budget=2, k=3)
            for ex in questions:
                leaves = policy.enumerate_trajectories(ex, retriever, 2, 3)
                total = sum(math.exp(lp) for *_x, lp in leaves)
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_cap_exceeded(self):
        world, questions, retriever = chain_world(seed=0)
        policy = uniform_policy(world, budget=5, k=5)
        with pytest.raises(EnumerationTooLarge):
            policy.enumerate_trajectories(questions[0], retriever, 5, 5, cap=1000)


def example(gold):
    return Example(id="e", question="A r1", gold_answers=(gold,))


class TestExactMarginal:
    def test_deterministic_correct_policy_scores_zero(self):
        world = tiny_world([("A", "r1", "B")], ("r1", "r2"))
        retriever = world_retriever(world)
        policy = chain_following_policy(world, ("r1",), budget=1, k=1)
        assert policy.exact_marginal_set(example("B"), retriever, 1, 1) == pytest.approx(
            0.0, abs=1e-9)

    def test_half_mass_two_branch_world(self):
        # Two equally likely branches; only r1 reaches the gold object.
        world = tiny_world([("A", "r1", "B"), ("A", "r2", "C"),
                            ("B", "r1", "A"), ("C", "r1", "A")], ("r1", "r2"))
        retriever = world_retriever(world)
        params = TabularPolicyParams(
            think_logits=np.vstack([np.array([0.0, 0.0, -1000.0])] * 2),
            record_logits=one_hot(1, 0), answer_logits=one_hot(2, 0))
        policy = TabularPolicy(params, world.relations)
        got = policy.exact_marginal_set(example("B"), retriever, 1, 1)
        assert got == pytest.approx(math.log(0.5), abs=1e-9)

    def test_unreachable_answer_floors(self):
        world = tiny_world([("A", "r1", "B")], ("r1",))
        retriever = world_retriever(world)
        policy = chain_following_policy(world, ("r1",), budget=1, k=1)
        assert policy.exact_marginal_set(example("zzz"), retriever, 1, 1) == LOG_FLOOR
