"""Exact self-training: the likelihood climbs, provably.

Exact training weights every trajectory by the true posterior (a
forward-backward pass over the policy's (hop, entity) lattice), so each
re-weighted update cannot decrease the training log-likelihood. This demo
prints the per-iteration curve and checks the bound, then the ELBO identity:
the lattice's ELBO plus the entropy of the posterior over enumerated
trajectories equals the enumerated log-marginal.
"""

import math

from exsearch.agent import AgentConfig
from exsearch.policy import Lattice, TabularPolicy, TabularPolicyParams
from exsearch.retrieval import Retriever, build_index
from exsearch.synth import best_relation_sequence, generate_world, make_questions, render_corpus
from exsearch.training import TrainConfig, em_train, posterior_entropy


def main():
    world = generate_world(n_entities=20, n_relations=4, hop_count=2,
                           fact_density=0.8, seed=0)
    sequence = best_relation_sequence(world, distinct_nodes=True)
    questions = make_questions(world, 6, seed=0, relation_sequence=sequence,
                               distinct_nodes=True)
    retriever = Retriever(build_index(render_corpus(world)))
    agent_config = AgentConfig(budget=2, k=3)
    policy = TabularPolicy(
        TabularPolicyParams.uniform(len(world.relations), 2, 3), world.relations)

    config = TrainConfig(iterations=15, e_step_mode="exact-enumeration",
                         early_stop_patience=0, validation_metric="loglik")
    reports, params = em_train(questions, policy, retriever, config, agent_config,
                               seed=0)

    print("iteration  train_loglik        elbo   delta")
    prev = None
    for r in reports:
        delta = "" if prev is None else f"{r.train_loglik - prev:+.2e}"
        print(f"{r.iteration:9d}  {r.train_loglik:12.6f}  {r.elbo:10.4f}   {delta}")
        prev = r.train_loglik
    logliks = [r.train_loglik for r in reports]
    print("\nnon-decreasing:", all(b >= a - 1e-9 for a, b in zip(logliks, logliks[1:])))

    # the lattice's ELBO scores its exact posterior, so adding the entropy of
    # that posterior (over enumerated trajectories) back recovers the marginal
    trained = TabularPolicy(params, world.relations)
    example = questions[0]
    elbo = Lattice(trained, example, retriever, 2, 3).posterior.log_prob(trained)
    marginal = trained.exact_marginal_set(example, retriever, 2, 3)
    posterior: dict = {}
    for trajectory, answer, logp in trained.enumerate_trajectories(example, retriever,
                                                                   2, 3):
        if answer in example.gold_answers:
            posterior[trajectory] = (posterior.get(trajectory, 0.0)
                                     + math.exp(logp - marginal))
    entropy = posterior_entropy(posterior.values())
    print(f"\nELBO {elbo:.9f} + posterior entropy {entropy:.9f} "
          f"= {elbo + entropy:.9f}")
    print(f"exact log-marginal                          = {marginal:.9f}")
    print(f"gap: {abs(elbo + entropy - marginal):.2e}")


if __name__ == "__main__":
    main()
