import pytest

from exsearch.errors import InfeasibleWorld
from exsearch.retrieval import build_index, search
from exsearch.synth import (
    SyntheticWorld,
    best_relation_sequence,
    generate_world,
    load_world,
    make_questions,
    render_corpus,
    save_world,
    world_from_dict,
    world_to_dict,
)


def oracle_walk(world, start, relations):
    """The node reached by following ``relations`` from ``start`` through a
    plain dict of the facts; None when a hop is undefined."""
    facts = {(s, r): o for s, r, o in world.facts}
    node = start
    for rel in relations:
        key = (node, rel)
        if key not in facts:
            return None
        node = facts[key]
    return node


class TestGenerateWorld:
    def test_smallest_feasible_case(self):
        world = generate_world(2, 1, 1, 1.0, seed=0)
        assert len(world.facts) <= 2
        assert any(oracle_walk(world, e, [world.relations[0]]) is not None
                   for e in world.entities)

    def test_same_seed_identical(self):
        assert generate_world(12, 3, 2, 0.5, seed=9) == generate_world(12, 3, 2, 0.5, seed=9)

    def test_different_seed_differs(self):
        assert generate_world(12, 3, 2, 0.5, seed=1) != generate_world(12, 3, 2, 0.5, seed=2)

    def test_functional_facts(self):
        world = generate_world(15, 4, 2, 0.9, seed=3)
        keys = [(s, r) for s, r, _ in world.facts]
        assert len(keys) == len(set(keys))

    def test_infeasible_inputs(self):
        with pytest.raises(InfeasibleWorld):
            generate_world(2, 1, 2, 1.0, seed=0)  # too few entities for 2 hops
        with pytest.raises(InfeasibleWorld):
            generate_world(5, 0, 1, 1.0, seed=0)
        with pytest.raises(InfeasibleWorld):
            generate_world(5, 1, 1, 0.0, seed=0)

    def test_non_functional_facts_rejected(self):
        with pytest.raises(ValueError):
            SyntheticWorld(entities=("a", "b", "c"), relations=("r",),
                           facts=(("a", "r", "b"), ("a", "r", "c")),
                           hop_count=1, seed=0)


class TestRenderCorpus:
    def test_fact_template(self):
        world = SyntheticWorld(entities=("A", "B"), relations=("r1",),
                               facts=(("A", "r1", "B"),), hop_count=1, seed=0)
        (passage,) = render_corpus(world)
        assert passage.text == "A r1 B"
        assert passage.title == "A"

    def test_one_passage_per_fact_on_random_worlds(self):
        for seed in range(5):
            world = generate_world(18, 3, 2, 0.6, seed=seed)
            corpus = render_corpus(world)
            assert len(corpus) == len(world.facts)
            assert len({p.id for p in corpus}) == len(corpus)


class TestMakeQuestions:
    def test_one_hop_single_fact(self):
        world = SyntheticWorld(entities=("A", "B"), relations=("r1",),
                               facts=(("A", "r1", "B"),), hop_count=1, seed=0)
        (ex,) = make_questions(world, 1, seed=0)
        assert ex.question == "A r1"
        assert ex.gold_answers == ("B",)
        assert ex.gold_passages == ("A-r1-B",)
        assert ex.gold_subqueries == ("A r1",)

    def test_two_hop_chain_annotations(self):
        world = SyntheticWorld(
            entities=("A", "B", "C"), relations=("r1", "r2"),
            facts=(("A", "r1", "B"), ("B", "r2", "C")), hop_count=2, seed=0)
        (ex,) = make_questions(world, 1, seed=0, relation_sequence=("r1", "r2"))
        assert ex.gold_answers == ("C",)
        assert len(ex.gold_passages) == 2
        assert ex.gold_subqueries == ("A r1", "B r2")
        assert ex.gold_evidences == ("B", "C")

    def test_every_question_verified_by_graph_walk(self):
        world = generate_world(20, 4, 2, 0.5, seed=7)
        for ex in make_questions(world, 10, seed=7):
            tokens = ex.question.split()
            start, rels = tokens[0], tokens[1:]
            assert oracle_walk(world, start, rels) == ex.gold_answers[0]

    def test_requesting_too_many_chains(self):
        world = SyntheticWorld(entities=("A", "B"), relations=("r1",),
                               facts=(("A", "r1", "B"),), hop_count=1, seed=0)
        with pytest.raises(InfeasibleWorld):
            make_questions(world, 5, seed=0)

    def test_determinism(self):
        world = generate_world(20, 4, 2, 0.5, seed=1)
        assert make_questions(world, 8, seed=3) == make_questions(world, 8, seed=3)

    def test_relation_sequence_filter(self):
        world = generate_world(20, 4, 2, 0.9, seed=2)
        seq = best_relation_sequence(world)
        for ex in make_questions(world, 4, seed=2, relation_sequence=seq):
            assert tuple(ex.question.split()[1:]) == seq

    def test_distinct_nodes_filter(self):
        world = generate_world(20, 4, 2, 0.9, seed=2)
        for ex in make_questions(world, 6, seed=2, distinct_nodes=True):
            nodes = [ex.question.split()[0], *ex.gold_evidences]
            assert len(set(nodes)) == len(nodes)

    def test_solvable_by_exact_match_retrieval_over_corpus(self):
        # The oracle walk through the rendered corpus: querying each gold
        # sub-query must retrieve the gold fact passage first.
        world = generate_world(20, 4, 2, 1.0, seed=5)
        index = build_index(render_corpus(world))
        for ex in make_questions(world, 6, seed=5):
            for sub_query, pid in zip(ex.gold_subqueries, ex.gold_passages):
                hits = search(index, sub_query, 1)
                assert hits and hits[0].passage_ref == pid


class TestManifest:
    def test_dict_round_trip(self):
        world = generate_world(10, 2, 1, 0.7, seed=4)
        assert world_from_dict(world_to_dict(world)) == world

    def test_file_round_trip(self, tmp_path):
        world = generate_world(10, 2, 1, 0.7, seed=4)
        save_world(world, tmp_path / "world.json")
        assert load_world(tmp_path / "world.json") == world
