"""The document-selection action: rank retrieved passages before recording.

With selection enabled the agent keeps an ordered subset of each retrieval
("[2] > [1]" style) and extracts evidence from that subset. On noisy worlds
the selected pools carry measurably more answer-bearing passages than the
raw rankings.
"""

import numpy as np

from exsearch.agent import AgentConfig, episode_rng, run_episode
from exsearch.metrics import pool_trajectory, precision_at_k
from exsearch.policy import TabularPolicy, TabularPolicyParams
from exsearch.retrieval import Retriever, build_index
from exsearch.synth import best_relation_sequence, generate_world, make_questions, render_corpus


def chain_policy(world, sequence, budget, k):
    n = len(world.relations)
    rows = []
    for hop in range(1, budget + 2):
        row = np.full(n + 1, -1000.0)
        target = world.relations.index(sequence[hop - 1]) if hop <= len(sequence) else n
        row[target] = 1000.0
        rows.append(row)
    record = np.full(k, -1000.0)
    record[0] = 1000.0
    return TabularPolicy(TabularPolicyParams(
        think_logits=np.vstack(rows), record_logits=record,
        answer_logits=np.array([1000.0, -1000.0])), world.relations)


def main():
    world = generate_world(n_entities=30, n_relations=4, hop_count=2,
                           fact_density=0.95, seed=5)
    sequence = best_relation_sequence(world, distinct_nodes=True)
    questions = make_questions(world, 10, seed=5, relation_sequence=sequence,
                               distinct_nodes=True)
    retriever = Retriever(build_index(render_corpus(world)))
    policy = chain_policy(world, sequence, budget=2, k=5)
    config = AgentConfig(budget=2, k=5, rerank=True, rerank_keep=2)

    raw_scores, selected_scores = [], []
    for ex in questions:
        result = run_episode(ex.question, policy, retriever, config,
                             episode_rng(5, ex.id, 0))
        golds = list(ex.gold_answers)
        raw = pool_trajectory(result.trajectory, retriever.get)
        selected = pool_trajectory(result.trajectory, retriever.get, use_selected=True)
        raw_scores.append(precision_at_k(raw, golds, 3))
        selected_scores.append(precision_at_k(selected, golds, 3))

    step = result.trajectory.steps[0]
    print(f"example step: retrieved {[sp.passage_ref for sp in step.retrieved]}")
    print(f"              selected  {list(step.selected)}")
    print(f"\nprecision@3 over {len(questions)} questions:")
    print(f"  raw retrieval pools: {np.mean(raw_scores):.3f}")
    print(f"  selected pools:      {np.mean(selected_scores):.3f}")


if __name__ == "__main__":
    main()
