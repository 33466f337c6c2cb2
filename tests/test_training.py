import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    chain_following_policy,
    chain_world,
    exact_posterior_batches,
    one_hot,
    uniform_policy,
)
from exsearch import training
from exsearch.agent import AgentConfig
from exsearch.errors import EndpointError, MissingAnnotation, UnrealizableTrajectory
from exsearch.policy import (
    ABSTAIN,
    LOG_FLOOR,
    EdgeTable,
    ExpectedCounts,
    Lattice,
    TabularPolicy,
    TabularPolicyParams,
    softmax,
)
from exsearch.retrieval import Retriever, build_index
from exsearch.synth import SyntheticWorld, generate_world, render_corpus
from exsearch.trajectory import (
    Example,
    Passage,
    ScoredPassage,
    Step,
    Trajectory,
    parse_transcript,
)
from exsearch.training import (
    ExampleBatch,
    TrainConfig,
    compute_elbo,
    e_step,
    em_train,
    export_weighted_sft,
    factor_masses,
    m_step_tabular,
    mean_train_loglik,
    posterior_entropy,
    update_from_counts,
    warmup_format,
    write_history_csv,
)

finite_logs = st.lists(st.floats(min_value=-50, max_value=10), min_size=1, max_size=8)


def tiny_world(facts, relations, hop_count=1):
    entities = tuple(sorted({x for s, _r, o in facts for x in (s, o)}))
    return SyntheticWorld(entities=entities, relations=relations,
                          facts=tuple(facts), hop_count=hop_count, seed=0)


def world_retriever(world):
    return Retriever(build_index(render_corpus(world)))


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("iterations", 2.5), ("samples_per_example", 3.0), ("early_stop_patience", True),
        ("weight_mode", None),
    ])
    def test_rejects_ill_typed_values(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            TrainConfig(**{field: value})


class TestNormalizeWeights:
    """``weigh`` normalizes each example's raw log-weights with ``softmax``."""

    def test_direct_softmax_fixture(self):
        got = softmax([math.log(0.9), math.log(0.1)])
        assert got[0] == pytest.approx(0.9, abs=1e-12)
        assert got[1] == pytest.approx(0.1, abs=1e-12)

    @given(st.floats(min_value=-100, max_value=100))
    def test_equal_raw_weights_split_evenly(self, c):
        got = softmax([c, c])
        assert got[0] == pytest.approx(0.5) and got[1] == pytest.approx(0.5)

    @given(finite_logs)
    def test_sums_to_one(self, raws):
        assert softmax(raws).sum() == pytest.approx(1.0, abs=1e-9)

    @given(finite_logs, st.floats(min_value=-20, max_value=20))
    def test_shift_invariant(self, raws, shift):
        base = softmax(raws)
        moved = softmax([r + shift for r in raws])
        assert np.all(np.abs(base - moved) <= 1e-12)

    def test_floor_inputs_allowed(self):
        got = softmax([LOG_FLOOR, 0.0])
        assert got[1] == pytest.approx(1.0)


class StopAndAnswerPolicy:
    """Stops immediately; answers from a script. For e-step weighting tests."""

    def __init__(self, answers):
        self.answers = list(answers)

    def start(self, question):
        return self

    def propose_subquery(self, history, rng):
        return None

    def extract_evidence(self, documents, rng):
        raise AssertionError("unused")

    def answer(self, trajectory, rng):
        return self.answers.pop(0)

    def score_answer(self, question, trajectory, y):
        return math.log(0.5)


class TestEStep:
    def test_single_sample_gets_weight_one(self):
        world = tiny_world([("A", "r1", "B")], ("r1",))
        retriever = world_retriever(world)
        examples = [Example(id="e", question="A r1", gold_answers=("B",))]
        config = TrainConfig(samples_per_example=1, weight_mode="posterior-logprob")
        batches = e_step(examples, StopAndAnswerPolicy(["whatever"]), retriever,
                         config, AgentConfig(budget=1, k=1))
        (batch,) = batches
        assert len(batch.items) == 1
        assert batch.items[0].weight == pytest.approx(1.0)

    def test_reward_em_raw_weights_are_binary(self):
        world = tiny_world([("A", "r1", "B")], ("r1",))
        retriever = world_retriever(world)
        examples = [Example(id="e", question="A r1", gold_answers=("four",))]
        config = TrainConfig(samples_per_example=2, weight_mode="reward-em")
        batches = e_step(examples, StopAndAnswerPolicy(["four", "five"]), retriever,
                         config, AgentConfig(budget=1, k=1))
        (batch,) = batches
        assert [wt.log_weight for wt in batch.items] == [1.0, 0.0]
        expected = softmax([1.0, 0.0])
        assert [wt.weight for wt in batch.items] == pytest.approx(list(expected))
        assert [wt.answer for wt in batch.items] == ["four", "five"]

    def test_exact_mode_posterior_on_two_branch_world(self):
        # both relations lead to the same gold object with equal mass
        world = tiny_world([("A", "r1", "B"), ("A", "r2", "B"),
                            ("B", "r1", "A")], ("r1", "r2"))
        retriever = world_retriever(world)
        params = TabularPolicyParams(
            think_logits=np.vstack([np.array([0.0, 0.0, -1000.0])] * 2),
            record_logits=one_hot(1, 0), answer_logits=one_hot(2, 0))
        policy = TabularPolicy(params, world.relations)
        examples = [Example(id="e", question="A r1", gold_answers=("B",))]
        (batch,) = exact_posterior_batches(examples, policy, retriever, 1, 1)
        assert len(batch.items) == 2
        for wt in batch.items:
            assert wt.weight == pytest.approx(0.5, abs=1e-9)
            assert wt.answer == "B"
        posterior = lattice(policy, examples[0], retriever, 1, 1).posterior
        np.testing.assert_allclose(posterior.think[0], [0.5, 0.5, 0.0], rtol=0, atol=1e-9)

    def test_exact_mode_config_raises(self):
        # exact mode runs on the lattice inside em_train, never through e_step
        world, questions, retriever = chain_world(seed=2, density=1.0)
        with pytest.raises(ValueError, match="lattice"):
            e_step(questions, uniform_policy(world, budget=2, k=3), retriever,
                   TrainConfig(e_step_mode="exact-enumeration"),
                   AgentConfig(budget=2, k=3))

    def test_weights_sum_to_one_per_example(self):
        world, questions, retriever = chain_world(seed=2, density=1.0)
        policy = uniform_policy(world, budget=2, k=3)
        config = TrainConfig(samples_per_example=4, weight_mode="posterior-logprob")
        batches = e_step(questions, policy, retriever, config,
                         AgentConfig(budget=2, k=3), seed=0)
        for batch in batches:
            assert sum(wt.weight for wt in batch.items) == pytest.approx(1.0, abs=1e-9)

    def test_parallel_jobs_match_serial(self):
        world, questions, retriever = chain_world(seed=2, density=1.0)
        policy = uniform_policy(world, budget=2, k=3)
        config = TrainConfig(samples_per_example=3, weight_mode="reward-em")
        serial = e_step(questions, policy, retriever, config,
                        AgentConfig(budget=2, k=3), seed=5, jobs=1)
        parallel = e_step(questions, policy, retriever, config,
                          AgentConfig(budget=2, k=3), seed=5, jobs=4)
        for a, b in zip(serial, parallel):
            assert a.items == b.items


class TestWeigh:
    def test_unreachable_golds_add_nothing(self):
        # The trajectory ends on "B". Golds it cannot produce score LOG_FLOOR:
        # two of them must not add up to a raw weight above the no-signal
        # level, and one must not change the weight of a reachable gold.
        world = tiny_world([("A", "r1", "B")], ("r1",))
        retriever = world_retriever(world)
        policy = chain_following_policy(world, ("r1",), budget=1, k=1)
        from exsearch.agent import run_episode
        result = run_episode("A r1", policy, retriever, AgentConfig(budget=1, k=1),
                             np.random.default_rng(0))
        samples = [(result.trajectory, result.answer)] * 2
        reachable = policy.score_answer("A r1", result.trajectory, "B")
        for golds, raw in ((("nosuch",), LOG_FLOOR), (("nosuch", "neither"), LOG_FLOOR),
                           (("nosuch", "B"), reachable)):
            example = Example(id="e", question="A r1", gold_answers=golds)
            batch = training.weigh(example, samples, "posterior-logprob", policy)
            assert [wt.log_weight for wt in batch.items] == [raw, raw]
            if raw == LOG_FLOOR:
                masses = factor_masses(policy, [batch], retriever)
                assert masses == [None] and compute_elbo(policy, masses) == 0.0


class TestMStep:
    def one_hop_rig(self):
        world = tiny_world(
            [("A", "r1", "B"), ("A", "r2", "C"), ("B", "r1", "A"),
             ("C", "r1", "A")], ("r1", "r2"))
        return world, world_retriever(world)

    def episode(self, world, retriever, relation, budget=1, k=1):
        policy = chain_following_policy(world, (relation,), budget=budget, k=k)
        return run_episode_for(world, retriever, policy, budget, k)

    def test_single_trajectory_weighted_count_formula(self):
        world, retriever = self.one_hop_rig()
        policy = chain_following_policy(world, ("r1",), budget=1, k=1)
        from exsearch.agent import run_episode
        result = run_episode("A r1", policy, retriever, AgentConfig(budget=1, k=1),
                             np.random.default_rng(0))
        batch = ExampleBatch(
            example=Example(id="e", question="A r1", gold_answers=("B",)),
            items=[make_weighted(result, 1.0, math.log(0.5))])
        alpha = 1e-3
        params = TabularPolicyParams.uniform(2, budget=1, k=1)
        new = m_step_tabular(TabularPolicy(params, world.relations),
                             factor_masses(policy, [batch], retriever), smoothing=alpha)
        probs = TabularPolicy(new, world.relations).think_probs(1)
        support = 3  # two relations + STOP
        assert probs[0] == pytest.approx((1 + alpha) / (1 + alpha * support), abs=1e-12)

    def test_two_trajectories_mix_by_weight(self):
        world, retriever = self.one_hop_rig()
        from exsearch.agent import run_episode
        results = []
        for rel in ("r1", "r2"):
            policy = chain_following_policy(world, (rel,), budget=1, k=1)
            results.append(run_episode("A r1", policy, retriever,
                                       AgentConfig(budget=1, k=1),
                                       np.random.default_rng(0)))
        batch = ExampleBatch(
            example=Example(id="e", question="A r1", gold_answers=("B",)),
            items=[make_weighted(results[0], 0.9, math.log(0.9)),
                   make_weighted(results[1], 0.1, math.log(0.1))])
        alpha = 1e-3
        policy = uniform_policy(world, budget=1, k=1)
        new = m_step_tabular(policy, factor_masses(policy, [batch], retriever),
                             smoothing=alpha)
        probs = TabularPolicy(new, world.relations).think_probs(1)
        assert probs[0] == pytest.approx((0.9 + alpha) / (1 + alpha * 3), abs=1e-12)
        assert probs[1] == pytest.approx((0.1 + alpha) / (1 + alpha * 3), abs=1e-12)

    def test_empty_batch_keeps_params(self):
        world, retriever = self.one_hop_rig()
        params = TabularPolicyParams(
            think_logits=np.array([[0.3, -0.2, 0.1], [0.0, 0.5, -0.5]]),
            record_logits=np.array([0.2]), answer_logits=np.array([0.7, -0.7]))
        new = m_step_tabular(TabularPolicy(params, world.relations), [])
        assert new.allclose(params)

    def test_no_signal_batch_is_skipped(self):
        world, retriever = self.one_hop_rig()
        from exsearch.agent import run_episode
        policy = chain_following_policy(world, ("r2",), budget=1, k=1)
        result = run_episode("A r1", policy, retriever, AgentConfig(budget=1, k=1),
                             np.random.default_rng(0))
        batch = ExampleBatch(
            example=Example(id="e", question="A r1", gold_answers=("B",)),
            items=[make_weighted(result, 1.0, LOG_FLOOR)])
        masses = factor_masses(policy, [batch], retriever)
        assert masses == [None]
        params = TabularPolicyParams.uniform(2, budget=1, k=1)
        new = m_step_tabular(TabularPolicy(params, world.relations), masses)
        assert new.allclose(params)

    def test_stop_choice_counted_for_early_termination(self):
        world, retriever = self.one_hop_rig()
        from exsearch.agent import run_episode
        policy = chain_following_policy(world, (), budget=2, k=1)  # immediate stop
        result = run_episode("A r1", policy, retriever, AgentConfig(budget=2, k=1),
                             np.random.default_rng(0))
        batch = ExampleBatch(
            example=Example(id="e", question="A r1", gold_answers=("",)),
            items=[make_weighted(result, 1.0, math.log(0.5))])
        params = TabularPolicyParams.uniform(2, budget=2, k=1)
        new = m_step_tabular(TabularPolicy(params, world.relations),
                             factor_masses(policy, [batch], retriever))
        probs = TabularPolicy(new, world.relations).think_probs(1)
        assert probs[2] == pytest.approx((1 + 1e-3) / (1 + 1e-3 * 3), abs=1e-12)

    def test_retrieval_disagreeing_with_retriever_is_unrealizable(self):
        # "A r1" retrieves A-r1-B, not A-r2-C, although C is producible from A-r2-C
        world, retriever = self.one_hop_rig()
        step = Step(sub_query="A r1", retrieved=(ScoredPassage("A-r2-C", 1.0, 1),),
                    selected=None, evidence="C", hop=1)
        trajectory = Trajectory(question="A r1", steps=(step,), terminated=True,
                                budget=1)
        batch = ExampleBatch(
            example=Example(id="e", question="A r1", gold_answers=("C",)),
            items=[make_weighted_t(trajectory, "C", 1.0)])
        policy = uniform_policy(world, budget=1, k=1)
        with pytest.raises(UnrealizableTrajectory):
            factor_masses(policy, [batch], retriever)


def make_weighted(result, weight, log_weight, mode="posterior-logprob"):
    from exsearch.trajectory import WeightedTrajectory
    return WeightedTrajectory(trajectory=result.trajectory, answer=result.answer,
                              log_weight=log_weight, weight=weight, weight_mode=mode)


def run_episode_for(world, retriever, policy, budget, k):
    from exsearch.agent import run_episode
    return run_episode("A r1", policy, retriever, AgentConfig(budget=budget, k=k),
                       np.random.default_rng(0))


class TestEmTrain:
    def test_exact_mode_loglik_non_decreasing(self):
        world, questions, retriever = chain_world(seed=1, n_questions=4)
        policy = uniform_policy(world, budget=2, k=3)
        config = TrainConfig(iterations=10, e_step_mode="exact-enumeration",
                             early_stop_patience=0, validation_metric="loglik")
        reports, _ = em_train(questions, policy, retriever, config,
                              AgentConfig(budget=2, k=3), seed=0)
        lls = [r.train_loglik for r in reports]
        assert len(lls) == 10
        assert all(b - a >= -1e-9 for a, b in zip(lls, lls[1:]))

    def test_already_converged_policy_stops_at_patience(self):
        world, questions, retriever = chain_world(seed=1, n_questions=4)
        policy = uniform_policy(world, budget=2, k=3)
        config = TrainConfig(iterations=40, e_step_mode="exact-enumeration",
                             early_stop_patience=0, validation_metric="loglik")
        _, converged = em_train(questions, policy, retriever, config,
                                AgentConfig(budget=2, k=3), seed=0)
        rerun = TrainConfig(iterations=10, e_step_mode="exact-enumeration",
                            early_stop_patience=1, validation_metric="loglik")
        reports, _ = em_train(questions, TabularPolicy(converged, world.relations),
                              retriever, rerun, AgentConfig(budget=2, k=3), seed=0)
        assert len(reports) == 2  # first sets the best score, second fails to improve
        assert reports[1].train_loglik == pytest.approx(reports[0].train_loglik,
                                                        abs=1e-5)

    def test_sampled_mode_improves_on_held_out(self):
        world, questions, retriever = chain_world(
            seed=0, n_entities=30, hops=2, density=1.0, n_questions=16)
        train, held = questions[:12], questions[12:]
        acfg = AgentConfig(budget=2, k=1)
        policy = uniform_policy(world, budget=2, k=1)

        def expected_em(p):
            return float(np.mean([
                math.exp(p.exact_marginal_set(ex, retriever, 2, 1)) for ex in held]))

        before = expected_em(policy)
        config = TrainConfig(iterations=10, samples_per_example=8,
                             weight_mode="posterior-logprob", e_step_mode="sampled",
                             early_stop_patience=0, validation_metric="em")
        _, params = em_train(train, policy, retriever, config, acfg, seed=0)
        after = expected_em(TabularPolicy(params, world.relations))
        assert after > before + 0.5

    @pytest.mark.parametrize("mode", ["exact-enumeration", "sampled"])
    def test_one_m_step_and_one_elbo_per_iteration(self, monkeypatch, mode):
        calls = []
        for name in ("m_step_tabular", "compute_elbo"):
            original = getattr(training, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(training, name, spy)
        world, questions, retriever = chain_world(seed=1, n_questions=3)
        config = TrainConfig(iterations=3, e_step_mode=mode, early_stop_patience=0)
        reports, _ = em_train(questions, uniform_policy(world, budget=2, k=3),
                              retriever, config, AgentConfig(budget=2, k=3), seed=0)
        assert len(reports) == 3
        assert calls == ["m_step_tabular", "compute_elbo"] * 3

    def test_failed_episodes_are_reported_per_iteration(self):
        class FailsFirstEpisode(TabularPolicy):
            """Its first episode raises; the policies ``with_params`` makes
            from it after the first M-step never do."""

            failed = False

            def start(self, question):
                if not self.failed:
                    self.failed = True
                    raise EndpointError("endpoint went away")
                return self

        world, questions, retriever = chain_world(seed=1, n_questions=3)
        params = TabularPolicyParams.uniform(len(world.relations), 2, 3)
        config = TrainConfig(iterations=2, samples_per_example=2,
                             e_step_mode="sampled", early_stop_patience=0)
        reports, _ = em_train(questions, FailsFirstEpisode(params, world.relations),
                              retriever, config, AgentConfig(budget=2, k=3), seed=0)
        assert [r.failures for r in reports] == [1, 0]

    def test_history_csv_layout(self, tmp_path):
        world, questions, retriever = chain_world(seed=1, n_questions=3)
        policy = uniform_policy(world, budget=2, k=3)
        config = TrainConfig(iterations=3, e_step_mode="exact-enumeration",
                             early_stop_patience=0)
        reports, _ = em_train(questions, policy, retriever, config,
                              AgentConfig(budget=2, k=3), seed=0)
        path = tmp_path / "history.csv"
        write_history_csv(path, reports)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,train_loglik,elbo,validation_score,wall_time"
        assert len(lines) == 4


class TestElbo:
    def test_deterministic_gold_policy_elbo_zero(self):
        world = tiny_world([("A", "r1", "B")], ("r1", "r2"))
        retriever = world_retriever(world)
        policy = chain_following_policy(world, ("r1",), budget=1, k=1)
        from exsearch.agent import run_episode
        result = run_episode("A r1", policy, retriever, AgentConfig(budget=1, k=1),
                             np.random.default_rng(0))
        batch = ExampleBatch(
            example=Example(id="e", question="A r1", gold_answers=("B",)),
            items=[make_weighted(result, 1.0, 0.0)])
        assert compute_elbo(policy, factor_masses(policy, [batch], retriever)) == (
            pytest.approx(0.0, abs=1e-9))

    def two_branch_rig(self):
        world = tiny_world([("A", "r1", "B"), ("A", "r2", "C"),
                            ("B", "r1", "A"), ("C", "r1", "A")], ("r1", "r2"))
        retriever = world_retriever(world)
        params = TabularPolicyParams(
            think_logits=np.vstack([np.array([math.log(0.7), math.log(0.3),
                                              -1000.0])] * 2),
            record_logits=one_hot(1, 0), answer_logits=np.array([2.0, -1.0]))
        return world, retriever, TabularPolicy(params, world.relations)

    def test_exact_posterior_weights_make_elbo_tight(self):
        world, retriever, policy = self.two_branch_rig()
        example = Example(id="e", question="A r1", gold_answers=("B",))
        (batch,) = exact_posterior_batches([example], policy, retriever, 1, 1)
        elbo = compute_elbo(policy, factor_masses(policy, [batch], retriever))
        entropy = posterior_entropy([wt.weight for wt in batch.items])
        marginal = policy.exact_marginal_set(example, retriever, 1, 1)
        assert elbo + entropy == pytest.approx(marginal, abs=1e-9)

    def test_jensen_bound_for_arbitrary_weights(self):
        world, retriever, policy = self.two_branch_rig()
        example = Example(id="e", question="A r1", gold_answers=("B",))
        leaves = policy.enumerate_trajectories("A r1", retriever, 1, 1)
        trajectories = sorted({t for t, _a, _lp in leaves},
                              key=lambda t: t.steps[0].sub_query if t.steps else "")
        marginal = policy.exact_marginal_set(example, retriever, 1, 1)
        rng = np.random.default_rng(0)
        for _ in range(100):
            raw = rng.random(len(trajectories))
            weights = raw / raw.sum()
            batch = ExampleBatch(example=example, items=[
                make_weighted_t(t, "B", float(w)) for t, w in zip(trajectories, weights)
                if w > 0.0])
            elbo = compute_elbo(policy, factor_masses(policy, [batch], retriever))
            assert elbo <= marginal + 1e-9

    def test_reward_mode_elbo_scores_the_sampled_answer(self):
        world = tiny_world([("A", "r1", "B"), ("A", "r2", "C"),
                            ("B", "r1", "A"), ("C", "r1", "A")], ("r1", "r2"))
        retriever = world_retriever(world)
        results = [run_episode_for(world, retriever,
                                   chain_following_policy(world, (rel,), 1, 1), 1, 1)
                   for rel in ("r1", "r2")]
        assert [r.answer for r in results] == ["B", "C"]  # C is a wrong answer
        weights = softmax([1.0, 0.0])
        batch = ExampleBatch(
            example=Example(id="e", question="A r1", gold_answers=("B",)),
            items=[make_weighted(r, float(w), raw, mode="reward-em")
                   for r, w, raw in zip(results, weights, (1.0, 0.0))])
        policy = uniform_policy(world, budget=1, k=1)
        expected = sum(wt.weight * policy.trajectory_log_prob(wt.trajectory, retriever,
                                                              answer=wt.answer)
                       for wt in batch.items)
        assert compute_elbo(policy, factor_masses(policy, [batch], retriever)) == (
            pytest.approx(expected, rel=0, abs=1e-12))

    def test_sampled_reward_f1_elbo_stays_finite(self):
        world, questions, retriever = chain_world(seed=2, n_entities=60,
                                                  density=1.0, n_questions=8)
        config = TrainConfig(iterations=4, samples_per_example=4,
                             weight_mode="reward-f1", early_stop_patience=0)
        reports, _ = em_train(questions, uniform_policy(world, budget=2, k=3),
                              retriever, config, AgentConfig(budget=2, k=3), seed=0)
        assert len(reports) == 4
        assert all(r.elbo > -1e3 for r in reports)


def make_weighted_t(trajectory, answer, weight):
    from exsearch.trajectory import WeightedTrajectory
    return WeightedTrajectory(trajectory=trajectory, answer=answer,
                              log_weight=0.0, weight=weight,
                              weight_mode="posterior-logprob")


class TestExport:
    def build_batches(self):
        world, questions, retriever = chain_world(seed=3, n_questions=3, density=1.0)
        policy = uniform_policy(world, budget=2, k=3)
        config = TrainConfig(samples_per_example=3, weight_mode="reward-f1")
        return e_step(questions, policy, retriever, config,
                      AgentConfig(budget=2, k=3), seed=1)

    def test_record_count_and_weights(self, tmp_path):
        batches = self.build_batches()
        path = tmp_path / "sft.jsonl"
        n = export_weighted_sft(batches, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert n == len(records) == sum(len(b.items) for b in batches)
        by_example = {}
        for rec in records:
            ex_id = rec["id"].rsplit("/", 1)[0]
            by_example.setdefault(ex_id, 0.0)
            by_example[ex_id] += rec["weight"]
            assert rec["weight_mode"] == "reward-f1"
            assert set(rec["metrics"]) == {"em", "f1", "acc"}
            roles = [m["role"] for m in rec["messages"]]
            assert roles == ["system", "user", "assistant"]
        for total in by_example.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_re_export_is_byte_identical(self, tmp_path):
        batches = self.build_batches()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_weighted_sft(batches, a)
        export_weighted_sft(batches, b)
        assert a.read_bytes() == b.read_bytes()

    def test_ordering_by_example_and_sample(self, tmp_path):
        batches = self.build_batches()
        path = tmp_path / "sft.jsonl"
        export_weighted_sft(list(reversed(batches)), path)
        ids = [json.loads(line)["id"] for line in path.read_text().splitlines()]
        assert ids == sorted(ids)


class TestWarmupFormat:
    def magazine_rig(self):
        passages = [
            Passage(id="arthur", title="Arthur's Magazine",
                    text=("Arthur's Magazine (1844-1846) was an American literary "
                          "periodical published in Philadelphia in the 19th century.")),
            Passage(id="ffw", title="First for Women",
                    text=("First for Women is a women's magazine published by Bauer "
                          "Media Group in the USA. The magazine was started in 1989.")),
        ]
        retriever = Retriever(build_index(passages))
        example = Example(
            id="magazines",
            question="Which magazine was started first, Arthur's Magazine or "
                     "First for Women?",
            gold_answers=("Arthur's Magazine",),
            gold_passages=("arthur", "ffw"),
            gold_subqueries=('When did the magazine "Arthur\'s Magazine" start?',
                             'When did the magazine "First for Women" start?'),
            gold_evidences=("1844", "1989"),
        )
        return retriever, example

    def test_magazine_example_transcript(self):
        retriever, example = self.magazine_rig()
        (record,) = warmup_format([example], retriever, k=2)
        transcript = record["messages"][2]["content"]
        parsed = parse_transcript(transcript)
        assert [s.sub_query for s in parsed.steps] == list(example.gold_subqueries)
        assert [s.evidence for s in parsed.steps] == ["1844", "1989"]
        assert parsed.answer == "Arthur's Magazine"
        assert transcript.splitlines()[-1] == "<FINAL> Arthur's Magazine"
        # gold passages are pinned to rank 1, so each search cites [1]
        assert transcript.splitlines()[1] == "<SEARCH> [1]"
        assert record["answer"] == "Arthur's Magazine"

    def test_missing_subqueries_raise(self):
        retriever, example = self.magazine_rig()
        bare = Example(id="x", question="q", gold_answers=("a",))
        with pytest.raises(MissingAnnotation, match="gold_subqueries"):
            warmup_format([bare], retriever, k=2)

    def test_think_count_matches_subqueries_on_synthetic_examples(self):
        world, questions, retriever = chain_world(
            seed=5, n_entities=30, density=1.0, n_questions=20, aligned=False)
        records = warmup_format(questions, retriever, k=3)
        assert len(records) == 20
        for rec, ex in zip(records, questions):
            parsed = parse_transcript(rec["messages"][2]["content"])
            assert len(parsed.steps) == len(ex.gold_subqueries)
            assert parsed.answer == ex.gold_answers[0]


class TestArgmaxConsistency:
    def test_max_posterior_trajectory_is_max_reward_when_answer_is_gold(self):
        # Over sampled batches scored both ways: whenever the top-posterior
        # trajectory's sampled answer equals gold, it also attains the
        # maximal exact-match reward in its batch (value-level agreement is
        # not asserted).
        world, questions, retriever = chain_world(seed=9, hops=1, density=1.0,
                                                  n_questions=10)
        policy = uniform_policy(world, budget=1, k=1)
        acfg = AgentConfig(budget=1, k=1)
        config = TrainConfig(samples_per_example=8, weight_mode="posterior-logprob")
        batches = e_step(questions, policy, retriever, config, acfg, seed=3)
        from exsearch.metrics import exact_match
        checked = 0
        for batch in batches:
            golds = list(batch.example.gold_answers)
            rewards = [exact_match(wt.answer, golds) for wt in batch.items]
            top = max(range(len(batch.items)), key=lambda i: batch.items[i].weight)
            if exact_match(batch.items[top].answer, golds) == 1.0:
                assert rewards[top] == max(rewards)
                checked += 1
        assert checked > 0  # the property fired on at least one example


class TestLogprobsFallback:
    def test_e_step_falls_back_to_reward_weighting(self):
        # A chat endpoint without token logprobs cannot provide posterior
        # weights; the e-step downgrades that example to reward-em.
        from exsearch.llm import ChatPolicy, EndpointConfig, HttpChatClient
        from exsearch.stub import ChainOracleBehavior, StubChatServer
        from exsearch.synth import generate_world, make_questions, render_corpus

        world = generate_world(12, 2, 2, 1.0, seed=6)
        questions = make_questions(world, 2, seed=6)
        retriever = Retriever(build_index(render_corpus(world)))
        config = TrainConfig(samples_per_example=2, weight_mode="posterior-logprob")
        with StubChatServer(ChainOracleBehavior(logprobs_enabled=False)) as server:
            endpoint = EndpointConfig(base_url=server.base_url, model_name="stub",
                                      backoff_base=0.01)
            policy = ChatPolicy(HttpChatClient(endpoint))
            batches = e_step(questions, policy, retriever, config,
                             AgentConfig(budget=3, k=3), seed=0)
        for batch in batches:
            assert batch.items
            for wt in batch.items:
                assert wt.weight_mode == "reward-em"
                assert wt.log_weight in (0.0, 1.0)

    def test_logprobs_lost_mid_example_reweighs_every_entry(self):
        # The endpoint scores the first request only; every entry of the
        # example, including the one scored before the loss, is reweighed
        # under reward-em instead of mixing the two modes in one softmax.
        from dataclasses import dataclass

        from exsearch.llm import ChatPolicy, EndpointConfig, HttpChatClient
        from exsearch.stub import ChainOracleBehavior, StubChatServer
        from exsearch.synth import generate_world, make_questions, render_corpus

        @dataclass
        class FirstScoreOnly(ChainOracleBehavior):
            def _score(self, target):
                reply = super()._score(target)
                self.logprobs_enabled = False
                return reply

        world = generate_world(12, 2, 2, 1.0, seed=6)
        questions = make_questions(world, 2, seed=6)
        retriever = Retriever(build_index(render_corpus(world)))
        config = TrainConfig(samples_per_example=2, weight_mode="posterior-logprob")
        with StubChatServer(FirstScoreOnly()) as server:
            endpoint = EndpointConfig(base_url=server.base_url, model_name="stub",
                                      backoff_base=0.01)
            policy = ChatPolicy(HttpChatClient(endpoint))
            batches = e_step(questions, policy, retriever, config,
                             AgentConfig(budget=3, k=3), seed=0)
        for batch in batches:
            assert len(batch.items) == 2
            for wt in batch.items:
                assert wt.weight_mode == "reward-em"
                assert wt.log_weight in (0.0, 1.0)


class TestSharedChatPolicy:
    def test_parallel_e_step_matches_serial(self):
        # One ChatPolicy serves every worker thread: each episode must keep
        # its own transcript, so jobs=4 reproduces jobs=1 exactly.
        import sys

        from exsearch.llm import ChatPolicy, EndpointConfig, HttpChatClient
        from exsearch.stub import ChainOracleBehavior, StubChatServer
        from exsearch.synth import generate_world, make_questions, render_corpus

        world = generate_world(30, 3, 2, 1.0, seed=5)
        questions = make_questions(world, 12, seed=5)
        retriever = Retriever(build_index(render_corpus(world)))
        config = TrainConfig(samples_per_example=2, weight_mode="reward-em")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with StubChatServer(ChainOracleBehavior()) as server:
                policy = ChatPolicy(HttpChatClient(EndpointConfig(
                    base_url=server.base_url, model_name="stub", backoff_base=0.01)))
                runs = [e_step(questions, policy, retriever, config,
                               AgentConfig(budget=2, k=3), seed=5, jobs=jobs)
                        for jobs in (1, 4)]
        finally:
            sys.setswitchinterval(interval)
        serial, parallel = runs
        assert [b.failures for b in parallel] == [0] * len(questions)
        assert all(wt.log_weight == 1.0 for b in serial for wt in b.items)
        for a, b in zip(serial, parallel):
            assert a.items == b.items


@st.composite
def lattice_rigs(draw):
    """A random small world with random finite parameters and examples.

    Some logits are -1e9, so their branches are pruned; the relation "relx"
    appears in no passage, so "nobody relx" (and " relx" after it) retrieves
    nothing; golds may be "" or ABSTAIN; the record head may be shorter than
    k, which makes some worlds unrealizable.
    """
    n_entities = draw(st.integers(3, 8))
    n_relations = draw(st.integers(2, 3))
    density = draw(st.floats(0.5, 1.0))
    budget = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    world = generate_world(n_entities, n_relations, 1, density,
                           int(rng.integers(0, 2**31)))
    relations = world.relations + (("relx",) if draw(st.booleans()) else ())
    starts = list(world.entities) + ["nobody"]
    answers = list(world.entities) + ["", ABSTAIN]
    examples = []
    for i in range(int(rng.integers(1, 4))):
        start = starts[rng.integers(len(starts))]
        golds = [answers[j] for j in rng.integers(len(answers), size=rng.integers(1, 3))]
        examples.append(Example(id=f"q{i}", question=f"{start} {relations[0]}",
                                gold_answers=tuple(golds)))
    heads = [rng.normal(0.0, 2.0, size=(draw(st.integers(1, budget + 1)),
                                         len(relations) + 1)),
             rng.normal(0.0, 2.0, size=draw(st.sampled_from([k, k, k, k + 1,
                                                             max(1, k - 1)]))),
             rng.normal(0.0, 2.0, size=2)]
    for head in heads:
        head[rng.random(head.shape) < 0.2] = -1e9
    params = TabularPolicyParams(*heads)
    retriever = Retriever(build_index(render_corpus(world)))
    return TabularPolicy(params, relations), examples, retriever, budget, k


def lattice(policy, example, retriever, budget, k, rerank_keep=None):
    return Lattice(EdgeTable(retriever, policy.relations, k, rerank_keep).weigh(policy),
                   example, budget)


def summed_counts(policy, masses):
    counts = ExpectedCounts.zeros(policy.params)
    for mass in masses:
        if mass is not None:
            counts.add(mass.counts(policy))
    return counts


def assert_params_close(a, b, atol=1e-9):
    for name in ("think_logits", "record_logits", "answer_logits"):
        np.testing.assert_allclose(getattr(a, name), getattr(b, name), rtol=0, atol=atol)


def reference_em(examples, policy, retriever, config, acfg):
    """em_train's exact mode as enumeration, replay and exact marginals."""
    keep = acfg.rerank_keep if acfg.rerank else None
    reports = []
    for iteration in range(config.iterations):
        masses = factor_masses(policy, exact_posterior_batches(
            examples, policy, retriever, acfg.budget, acfg.k, keep), retriever)
        policy = policy.with_params(m_step_tabular(policy, masses))
        elbo = compute_elbo(policy, masses)
        loglik = float(np.mean([policy.exact_marginal_set(ex, retriever, acfg.budget,
                                                          acfg.k, rerank_keep=keep)
                                for ex in examples]))
        reports.append((iteration, loglik, elbo, loglik))
    return reports, policy.params


def rig_config(budget, k, rerank_keep):
    """A rig's episodes: document selection keeps ``rerank_keep`` (capped at
    k) documents of each retrieval, or all of them when it is None."""
    if rerank_keep is None:
        return AgentConfig(budget=budget, k=k)
    return AgentConfig(budget=budget, k=k, rerank=True, rerank_keep=min(rerank_keep, k))


class TestLatticeOracle:
    """The (hop, entity) lattice against trajectory enumeration, within 1e-9."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lattice_rigs(), st.one_of(st.none(), st.integers(1, 3)))
    def test_lattice_matches_enumeration(self, rig, keep):
        policy, examples, retriever, budget, k = rig
        acfg = rig_config(budget, k, keep)
        keep = acfg.rerank_keep if acfg.rerank else None
        try:
            marginals = [policy.exact_marginal_set(ex, retriever, budget, k,
                                                   rerank_keep=keep)
                         for ex in examples]
        except UnrealizableTrajectory:
            with pytest.raises(UnrealizableTrajectory):
                for ex in examples:
                    lattice(policy, ex, retriever, budget, k, keep)
            return
        lattices = [lattice(policy, ex, retriever, budget, k, keep) for ex in examples]
        for lat, marginal in zip(lattices, marginals):
            assert lat.log_marginal == pytest.approx(marginal, rel=0, abs=1e-9)
        assert mean_train_loglik(policy, examples, retriever, acfg) == pytest.approx(
            float(np.mean(marginals)), rel=0, abs=1e-9)
        for ex in examples:
            for t, a, logp in policy.enumerate_trajectories(ex, retriever, budget, k,
                                                            rerank_keep=keep):
                assert policy.trajectory_log_prob(t, retriever, a) == pytest.approx(
                    logp, rel=0, abs=1e-9)

        masses = factor_masses(policy, exact_posterior_batches(
            examples, policy, retriever, budget, k, keep), retriever)
        enumerated = summed_counts(policy, masses)
        counts = summed_counts(policy, [lat.posterior for lat in lattices])
        for head in ("think", "record", "answer"):
            np.testing.assert_allclose(getattr(counts, head), getattr(enumerated, head),
                                       rtol=0, atol=1e-9)

        updated = m_step_tabular(policy, masses)
        assert_params_close(update_from_counts(policy.params, counts), updated)

        # The reversed heads put probability 0 on some posterior-supported
        # decisions, which both sides score at LOG_FLOOR.
        p = policy.params
        reversed_heads = TabularPolicyParams(p.think_logits[::-1, ::-1],
                                             p.record_logits[::-1],
                                             p.answer_logits[::-1])
        signal = [lat for lat in lattices if lat.has_signal]
        for scorer, rel in ((policy, 0), (policy.with_params(updated), 0),
                            (policy.with_params(reversed_heads), 1e-12)):
            elbo = (float(np.mean([lat.posterior.log_prob(scorer) for lat in signal]))
                    if signal else 0.0)
            assert elbo == pytest.approx(compute_elbo(scorer, masses),
                                         rel=rel, abs=1e-9)

    def test_rerank_changes_the_lattice(self):
        # "A r1" retrieves "A r1 B" and "A r2 C" (which shares the title A);
        # selecting one keeps only the exact fact match, so C is unreachable.
        world = tiny_world([("A", "r1", "B"), ("A", "r2", "C")], ("r1", "r2"))
        retriever = world_retriever(world)
        policy = TabularPolicy(TabularPolicyParams(
            think_logits=np.array([[0.0, -1e9, -1e9], [0.0, 0.0, 0.0]]),
            record_logits=np.zeros(2), answer_logits=np.zeros(2)), world.relations)
        example = Example(id="e", question="A r1", gold_answers=("C",))
        assert lattice(policy, example, retriever, 1, 2).log_marginal == pytest.approx(
            math.log(0.25), rel=0, abs=1e-12)
        reranked = lattice(policy, example, retriever, 1, 2, rerank_keep=1)
        assert reranked.posterior is None and reranked.log_marginal == LOG_FLOOR
        assert policy.exact_marginal_set(example, retriever, 1, 2,
                                         rerank_keep=1) == LOG_FLOOR

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lattice_rigs(), st.integers(1, 3),
           st.one_of(st.none(), st.integers(1, 3)))
    def test_em_train_matches_reference_loop(self, rig, iterations, keep):
        policy, examples, retriever, budget, k = rig
        acfg = rig_config(budget, k, keep)
        config = TrainConfig(iterations=iterations, e_step_mode="exact-enumeration",
                             early_stop_patience=0, validation_metric="loglik")
        try:
            expected, expected_params = reference_em(examples, policy, retriever,
                                                     config, acfg)
        except UnrealizableTrajectory:
            with pytest.raises(UnrealizableTrajectory):
                em_train(examples, policy, retriever, config, acfg)
            return
        reports, params = em_train(examples, policy, retriever, config, acfg)
        got = [(r.iteration, r.train_loglik, r.elbo, r.validation_score)
               for r in reports]
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a[0] == b[0]
            assert a[1:] == pytest.approx(b[1:], rel=0, abs=1e-9)
        assert_params_close(params, expected_params)


class TestExactTraining:
    def test_exact_em_train_never_enumerates(self, monkeypatch):
        calls = []
        original = TabularPolicy.enumerate_trajectories

        def counting(self, *args, **kwargs):
            calls.append(args[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(TabularPolicy, "enumerate_trajectories", counting)
        world, questions, retriever = chain_world(seed=1, n_questions=4)
        acfg = AgentConfig(budget=2, k=3)
        config = TrainConfig(iterations=3, e_step_mode="exact-enumeration",
                             early_stop_patience=0, validation_metric="loglik")
        reports, params = em_train(questions[:2], uniform_policy(world, 2, 3),
                                   retriever, config, acfg, val_examples=questions[2:])
        assert calls == []
        assert [r.failures for r in reports] == [0, 0, 0]
        # the separate validation set is scored by the lattice's forward pass
        trained = TabularPolicy(params, world.relations)
        assert reports[-1].validation_score == pytest.approx(
            float(np.mean([trained.exact_marginal_set(ex, retriever, 2, 3)
                           for ex in questions[2:]])), rel=0, abs=1e-9)
        assert calls

    def test_exact_em_train_searches_each_edge_once(self, monkeypatch):
        # One edge table serves every example, iteration and validation: the
        # lattices search each (entity, relation) once, whatever the count
        # of iterations, and every search is a cache miss.
        calls = []
        original = Retriever.search

        def counting(self, query, k):
            calls.append((query, k))
            return original(self, query, k)

        monkeypatch.setattr(Retriever, "search", counting)
        searches = {}
        for iterations in (1, 3):
            calls.clear()
            world, questions, retriever = chain_world(seed=1, n_questions=4)
            config = TrainConfig(iterations=iterations, e_step_mode="exact-enumeration",
                                 early_stop_patience=0, validation_metric="loglik")
            em_train(questions[:2], uniform_policy(world, 2, 3), retriever, config,
                     AgentConfig(budget=2, k=3), val_examples=questions[2:])
            assert len(calls) == len(retriever.cache)
            searches[iterations] = len(calls)
        assert searches[1] == searches[3] > 0

    def test_exact_mode_trains_at_budget_six(self):
        # Enumeration would need ((4 + 1) * 3) ** 6 * 2 = 22,781,250 leaves,
        # beyond the 1,000,000 cap; the lattice has at most 6 x 101 states.
        world, questions, retriever = chain_world(seed=0, n_entities=100,
                                                  n_relations=4, n_questions=6)
        config = TrainConfig(iterations=5, e_step_mode="exact-enumeration",
                             early_stop_patience=0, validation_metric="loglik")
        reports, _ = em_train(questions, uniform_policy(world, budget=6, k=3),
                              retriever, config, AgentConfig(budget=6, k=3))
        lls = [r.train_loglik for r in reports]
        assert len(lls) == 5
        assert all(b - a >= -1e-9 for a, b in zip(lls, lls[1:]))
