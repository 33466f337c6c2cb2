"""One search episode under the tabular reference policy.

Shows the think -> search -> record loop producing a trajectory, the
rendered transcript, and the parse that recovers it.
"""

import numpy as np

from exsearch.agent import AgentConfig, run_episode
from exsearch.policy import TabularPolicy, TabularPolicyParams
from exsearch.retrieval import Retriever, build_index
from exsearch.synth import best_relation_sequence, generate_world, make_questions, render_corpus
from exsearch.trajectory import parse_transcript, render_transcript


def main():
    world = generate_world(n_entities=15, n_relations=3, hop_count=2,
                           fact_density=1.0, seed=7)
    sequence = best_relation_sequence(world, distinct_nodes=True)
    questions = make_questions(world, 4, seed=7, relation_sequence=sequence,
                               distinct_nodes=True)
    retriever = Retriever(build_index(render_corpus(world)))
    config = AgentConfig(budget=3, k=3)

    # a uniform policy explores at random
    uniform = TabularPolicy(
        TabularPolicyParams.uniform(len(world.relations), config.budget, config.k),
        world.relations)
    ex = questions[0]
    print(f"question: {ex.question!r} (gold {ex.gold_answers[0]!r})")
    result = run_episode(ex.question, uniform, retriever, config,
                         np.random.default_rng(0))
    print("\nuniform-policy transcript:")
    print(render_transcript(result.trajectory, result.answer))
    log_prob = uniform.trajectory_log_prob(result.trajectory, retriever, result.answer)
    print(f"episode log-probability: {log_prob:.3f}")

    # a saturated policy follows the chain deterministically
    n = len(world.relations)
    rows = []
    for hop in range(1, config.budget + 2):
        row = np.full(n + 1, -1000.0)
        row[world.relations.index(sequence[hop - 1]) if hop <= len(sequence) else n] = 1000.0
        rows.append(row)
    sharp = TabularPolicy(TabularPolicyParams(
        think_logits=np.vstack(rows),
        record_logits=np.array([1000.0, -1000.0, -1000.0]),
        answer_logits=np.array([1000.0, -1000.0])), world.relations)
    result = run_episode(ex.question, sharp, retriever, config,
                         np.random.default_rng(0))
    transcript = render_transcript(result.trajectory, result.answer)
    print("\nchain-following transcript:")
    print(transcript)
    print(f"answer {result.answer!r} == gold: {result.answer == ex.gold_answers[0]}")

    parsed = parse_transcript(transcript)
    print(f"\nparsed back: {len(parsed.steps)} steps, "
          f"citations {[s.citations for s in parsed.steps]}, answer {parsed.answer!r}")


if __name__ == "__main__":
    main()
