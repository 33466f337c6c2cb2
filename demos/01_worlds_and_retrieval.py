"""Synthetic multi-hop worlds and BM25 retrieval.

Builds a small fact-graph world, renders it into a passage corpus, indexes
it, and runs a few searches to show how chain questions resolve hop by hop.
"""

from exsearch.retrieval import build_index, load_index, save_index, search
from exsearch.synth import generate_world, make_questions, render_corpus


def main():
    world = generate_world(n_entities=12, n_relations=3, hop_count=2,
                           fact_density=0.6, seed=42)
    print(f"world: {len(world.entities)} entities, {len(world.relations)} relations, "
          f"{len(world.facts)} facts")
    print("first facts:", world.facts[:4])

    corpus = render_corpus(world)
    print(f"\ncorpus: {len(corpus)} passages, e.g. {corpus[0].text!r}")

    index = build_index(corpus)
    questions = make_questions(world, n=3, seed=42)
    print(f"\n{len(questions)} chain questions:")
    for ex in questions:
        print(f"  {ex.question!r} -> gold {ex.gold_answers[0]!r}")

    ex = questions[0]
    print(f"\nresolving {ex.question!r} hop by hop:")
    for sub_query in ex.gold_subqueries:
        hits = search(index, sub_query, k=3)
        top = index.passages[hits[0].passage_ref]
        print(f"  {sub_query!r}: top hit {top.text!r} (score {hits[0].score:.3f}, "
              f"{len(hits)} results)")

    # indexes persist and reload losslessly
    save_index(index, "/tmp/demo_index.exsidx")
    reloaded = load_index("/tmp/demo_index.exsidx")
    assert search(reloaded, ex.gold_subqueries[0], 3) == search(index, ex.gold_subqueries[0], 3)
    print("\nindex round-trip through /tmp/demo_index.exsidx: identical results")


if __name__ == "__main__":
    main()
