"""Tractable multi-hop QA worlds: fact graphs rendered as passages plus
chain questions with known gold answers.

Entity and relation names are collision-free synthetic tokens ("ent17",
"rel3") so lexical retrieval is unambiguous; facts are functional per
(subject, relation), which guarantees each chain question a unique answer.
Question text is the start entity followed by the relation sequence, e.g.
"ent7 rel2 rel0"; generation is a pure function of its arguments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfeasibleWorld
from .trajectory import _INT, _STRINGS, _TRIPLES, Example, Passage, _field, read_json_file


@dataclass(frozen=True)
class SyntheticWorld:
    """An entity/relation fact graph with a target chain length."""

    entities: tuple[str, ...]
    relations: tuple[str, ...]
    facts: tuple[tuple[str, str, str], ...]
    hop_count: int
    seed: int

    def __post_init__(self):
        seen: set[tuple[str, str]] = set()
        for subject, relation, _obj in self.facts:
            if (subject, relation) in seen:
                raise ValueError(f"facts not functional at ({subject}, {relation})")
            seen.add((subject, relation))

    @property
    def fact_map(self) -> dict[tuple[str, str], str]:
        return {(s, r): o for s, r, o in self.facts}


def generate_world(n_entities: int, n_relations: int, hop_count: int,
                   fact_density: float, seed: int) -> SyntheticWorld:
    """Generate a random functional fact graph containing >= 1 valid chain.

    ``fact_density`` is the probability that each (subject, relation) slot
    beyond the seeded chain holds a fact. Deterministic given ``seed``.
    """
    if hop_count < 1:
        raise InfeasibleWorld("hop_count must be >= 1")
    if n_entities < hop_count + 1:
        raise InfeasibleWorld(
            f"need at least {hop_count + 1} entities for a {hop_count}-hop chain")
    if n_relations < 1:
        raise InfeasibleWorld("need at least one relation")
    if not (0.0 < fact_density <= 1.0):
        raise InfeasibleWorld("fact_density must lie in (0, 1]")

    rng = np.random.default_rng(seed)
    entities = tuple(f"ent{i}" for i in range(n_entities))
    relations = tuple(f"rel{i}" for i in range(n_relations))

    # Seed one guaranteed chain so the world is always solvable.
    chain_nodes = [entities[i] for i in rng.choice(n_entities, size=hop_count + 1,
                                                   replace=False)]
    chain_rels = [relations[i] for i in rng.integers(0, n_relations, size=hop_count)]
    fact_map: dict[tuple[str, str], str] = {}
    for i in range(hop_count):
        fact_map[(chain_nodes[i], chain_rels[i])] = chain_nodes[i + 1]

    for subject in entities:
        for relation in relations:
            if (subject, relation) in fact_map:
                continue
            if rng.random() >= fact_density:
                continue
            others = [e for e in entities if e != subject]
            fact_map[(subject, relation)] = others[rng.integers(0, len(others))]

    facts = tuple((s, r, o) for (s, r), o in sorted(fact_map.items()))
    return SyntheticWorld(entities=entities, relations=relations, facts=facts,
                          hop_count=hop_count, seed=seed)


def fact_passage_id(subject: str, relation: str, obj: str) -> str:
    return f"{subject}-{relation}-{obj}"


def render_corpus(world: SyntheticWorld) -> list[Passage]:
    """One passage per fact: text "<subject> <relation> <object>", title the subject."""
    return [
        Passage(id=fact_passage_id(s, r, o), title=s, text=f"{s} {r} {o}")
        for s, r, o in world.facts
    ]


def _all_chains(world: SyntheticWorld) -> list[tuple[str, tuple[str, ...], list[str]]]:
    """Every (start, relation sequence, node path) walkable at hop_count length."""
    chains = []
    frontier: list[tuple[list[str], tuple[str, ...]]] = [([e], ()) for e in world.entities]
    fact_map = world.fact_map
    for _ in range(world.hop_count):
        nxt = []
        for nodes, rels in frontier:
            for rel in world.relations:
                obj = fact_map.get((nodes[-1], rel))
                if obj is not None:
                    nxt.append((nodes + [obj], rels + (rel,)))
        frontier = nxt
    for nodes, rels in frontier:
        chains.append((nodes[0], rels, nodes))
    return chains


def make_questions(world: SyntheticWorld, n: int, seed: int,
                   relation_sequence: Sequence[str] | None = None,
                   distinct_nodes: bool = False) -> list[Example]:
    """Sample n distinct chain questions with verified gold annotations.

    Each example's question names the start entity and the relation sequence;
    gold answer is the chain endpoint, gold passages the chain's facts, gold
    sub-queries the per-hop "<entity> <relation>" strings, and gold evidences
    the intermediate entities reached at each hop.

    ``relation_sequence`` restricts questions to chains following exactly that
    sequence (useful when one policy must master the whole question set);
    ``distinct_nodes`` excludes chains that revisit an entity.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    chains = _all_chains(world)
    if relation_sequence is not None:
        wanted = tuple(relation_sequence)
        chains = [c for c in chains if c[1] == wanted]
    if distinct_nodes:
        chains = [c for c in chains if len(set(c[2])) == len(c[2])]
    if len(chains) < n:
        raise InfeasibleWorld(
            f"world has only {len(chains)} matching {world.hop_count}-hop chains, "
            f"need {n}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(chains), size=n, replace=False)
    examples = []
    for qi, ci in enumerate(sorted(int(i) for i in picks)):
        start, rels, nodes = chains[ci]
        examples.append(Example(
            id=f"q{qi:04d}",
            question=f"{start} {' '.join(rels)}",
            gold_answers=(nodes[-1],),
            gold_passages=tuple(
                fact_passage_id(nodes[i], rels[i], nodes[i + 1])
                for i in range(world.hop_count)),
            gold_subqueries=tuple(
                f"{nodes[i]} {rels[i]}" for i in range(world.hop_count)),
            gold_evidences=tuple(nodes[1:]),
        ))
    return examples


def best_relation_sequence(world: SyntheticWorld,
                           distinct_nodes: bool = False) -> tuple[str, ...]:
    """The relation sequence supported by the most chains (ties: lexicographic)."""
    counts: dict[tuple[str, ...], int] = {}
    for _start, rels, nodes in _all_chains(world):
        if distinct_nodes and len(set(nodes)) != len(nodes):
            continue
        counts[rels] = counts.get(rels, 0) + 1
    if not counts:
        raise InfeasibleWorld("world has no complete chains")
    return min(counts, key=lambda rels: (-counts[rels], rels))


def world_to_dict(world: SyntheticWorld) -> dict:
    return {
        "entities": list(world.entities),
        "relations": list(world.relations),
        "facts": [list(f) for f in world.facts],
        "hop_count": world.hop_count,
        "seed": world.seed,
    }


def world_from_dict(d: dict) -> SyntheticWorld:
    return SyntheticWorld(
        entities=_field(d, "entities", _STRINGS, None),
        relations=_field(d, "relations", _STRINGS, None),
        facts=_field(d, "facts", _TRIPLES, None),
        hop_count=_field(d, "hop_count", _INT, None),
        seed=_field(d, "seed", _INT, None),
    )


def save_world(world: SyntheticWorld, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(world_to_dict(world), fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def load_world(path) -> SyntheticWorld:
    """Read a world manifest; a defective file raises MalformedFile."""
    return read_json_file(path, world_from_dict)
