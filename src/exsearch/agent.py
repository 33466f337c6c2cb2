"""One search episode: the think -> search -> record loop.

The loop owns the budget (every episode halts within ``budget`` hops no
matter what the policy does), executes retrieval between policy decisions,
and optionally inserts the document-selection action between search and
record. A hop whose retrieval comes back empty records empty evidence and
the loop continues, letting the policy reformulate at the next hop.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .retrieval import Retriever
from .trajectory import Passage, Step, Trajectory, check_settings, read_citations


class Episode(Protocol):
    """One episode's decision-maker, owning whatever state the episode needs.

    Each decision returns the text it chose: a sub-query (None for STOP),
    the evidence recorded from the documents, the final answer. It may also
    offer ``rank_directive(sub_query, documents)`` for the
    document-selection action.
    """

    def propose_subquery(self, history: Trajectory,
                         rng: np.random.Generator) -> str | None: ...

    def extract_evidence(self, documents: Sequence[Passage],
                         rng: np.random.Generator) -> str: ...

    def answer(self, trajectory: Trajectory, rng: np.random.Generator) -> str: ...


class Policy(Protocol):
    """What the episode loop needs from a decision-maker: a fresh episode
    per question, so one policy can drive many episodes at once."""

    def start(self, question: str) -> Episode: ...

    def score_answer(self, question: str, trajectory: Trajectory, y: str) -> float: ...


@dataclass(frozen=True)
class AgentConfig:
    """Episode settings: step budget, retrieval size, selection action."""

    budget: int = 5
    k: int = 5
    rerank: bool = False
    rerank_keep: int = 3
    dedup_subqueries: bool = False

    def __post_init__(self):
        check_settings(self)
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.rerank_keep < 1:
            raise ValueError("rerank_keep must be >= 1")
        if self.rerank and self.rerank_keep > self.k:
            raise ValueError("rerank_keep must not exceed k")


@dataclass(frozen=True)
class EpisodeResult:
    """Episode outputs: the trajectory and the final answer."""

    trajectory: Trajectory
    answer: str


def episode_rng(global_seed: int, example_id: str, sample_index: int) -> np.random.Generator:
    """Isolated, reproducible RNG stream for one episode.

    Streams are derived as a stable hash of (global seed, example id, sample
    index), so worker scheduling cannot perturb results.
    """
    digest = hashlib.blake2b(
        f"{global_seed}|{example_id}|{sample_index}".encode("utf-8"),
        digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def parse_rank_directive(directive: str, passage_ids: Sequence[str], m: int) -> list[str]:
    """Map a "[i] > [j] > ..." directive onto passage ids, keeping at most m.

    Invalid, duplicate or out-of-range positions are dropped; whatever is
    missing after parsing is filled from the retriever's own order, so a
    fully malformed directive degrades to the top-m passages.
    """
    chosen: list[str] = []
    seen: set[int] = set()
    for pos in read_citations(directive):
        if pos < 1 or pos > len(passage_ids) or pos in seen:
            continue
        seen.add(pos)
        chosen.append(passage_ids[pos - 1])
        if len(chosen) == m:
            break
    if len(chosen) < m:
        for pid in passage_ids:
            if pid not in chosen:
                chosen.append(pid)
            if len(chosen) == m or len(chosen) == len(passage_ids):
                break
    return chosen[:m]


def rank_documents(episode, sub_query: str, documents: Sequence[Passage],
                   m: int) -> list[str]:
    """Ask the episode for a ranking over ``documents`` and resolve it to ids."""
    ids = [doc.id for doc in documents]
    directive = ""
    if hasattr(episode, "rank_directive"):
        directive = episode.rank_directive(sub_query, documents)
    return parse_rank_directive(directive, ids, m)


def run_episode(question: str, policy: Policy, retriever: Retriever,
                config: AgentConfig, rng: np.random.Generator) -> EpisodeResult:
    """Run one episode and produce the trajectory plus the final answer."""
    episode = policy.start(question)
    steps: list[Step] = []
    seen_subqueries: set[str] = set()
    for hop in range(1, config.budget + 1):
        history = Trajectory(question=question, steps=tuple(steps),
                             terminated=False, budget=config.budget)
        sub_query = episode.propose_subquery(history, rng)
        if sub_query is None:
            break
        if config.dedup_subqueries and sub_query in seen_subqueries:
            break
        seen_subqueries.add(sub_query)

        hits = retriever.search(sub_query, config.k)
        selected: tuple[str, ...] | None = None
        documents = retriever.resolve(hits)
        if config.rerank and hits:
            selected = tuple(rank_documents(episode, sub_query, documents,
                                            config.rerank_keep))
            documents = [retriever.get(pid) for pid in selected]

        evidence = episode.extract_evidence(documents, rng) if hits else ""
        steps.append(Step(sub_query=sub_query, retrieved=tuple(hits),
                          selected=selected, evidence=evidence, hop=hop))

    trajectory = Trajectory(question=question, steps=tuple(steps),
                            terminated=True, budget=config.budget)
    return EpisodeResult(trajectory=trajectory, answer=episode.answer(trajectory, rng))
