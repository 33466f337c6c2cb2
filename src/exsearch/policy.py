"""Decision-making interface behind the agent loop, and its exactly
tractable tabular implementation.

The tabular policy factors an episode into categorical decisions:

* a think head per hop over relations plus STOP, producing the sub-query
  "<current entity> <relation>" (current entity = last evidence, or the
  question's first token at hop 1);
* a record head over retrieved positions, whose outcome is the object
  entity (last token) of the chosen passage;
* an answer head over {copy the last evidence, abstain}.

Decisions are distributions over the *texts* they produce, and an episode's
decisions return only that text. :meth:`TabularPolicy.replay` scores a
trajectory: positions that yield the same evidence string pool their
probability mass.

Mass on these decision factors is a :class:`FactorMass`.
:meth:`TabularPolicy.replay` adds weighted trajectories to it and the
lattice's backward pass adds the posterior; either way the same two methods
turn it into expected counts (the M-step) and an expected log-probability
(the ELBO and :meth:`TabularPolicy.trajectory_log_prob`).

The next decision depends only on the hop and the current entity, so the
trajectory space folds onto a lattice of at most budget x (#entities + 1)
(hop, entity) states. A forward-backward pass over it (:class:`Lattice`)
gives the marginal likelihood of the gold answers, the posterior expected
counts of every head and the ELBO in closed form at any budget. The
lattice's edges depend on neither the example nor the parameters: one
:class:`EdgeTable` per retriever, relation vocabulary, retrieval size and
document selection holds them, and :meth:`EdgeTable.weigh` prices them once
per policy (:class:`WeightedEdges`) for every lattice of that policy. The
agent's document selection (``rerank``) is deterministic for the tabular
policy, so it is part of the exact process: the table and the enumeration
build each step from the documents it keeps. Exhaustive enumeration of the
trajectories (:meth:`TabularPolicy.enumerate_trajectories`) is kept as the
independent oracle at desk scale.

Logits of -1e9 underflow to probability 0.0 exactly and such branches are
pruned from enumeration and from the lattice, so deterministic policies stay
expressible with finite logits.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .agent import rank_documents
from .errors import EnumerationTooLarge, NoDocuments, UnrealizableTrajectory
from .retrieval import Retriever, tokenize
from .trajectory import Example, Passage, Step, Trajectory, read_json_file

LOG_FLOOR = -1e9
ABSTAIN = "ABSTAIN"
PARAMS_VERSION = 1


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax; shift-invariant by construction."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max()
    exps = np.exp(shifted)
    return exps / exps.sum()


def logsumexp(values: Iterable[float]) -> float:
    vals = list(values)
    if not vals:
        return LOG_FLOOR
    m = max(vals)
    if len(vals) == 1:
        return m  # m + log(exp(m - m)) is exactly m
    return m + math.log(sum([math.exp(v - m) for v in vals]))


@dataclass(eq=False)
class TabularPolicyParams:
    """Categorical logits for the think/record/answer heads.

    ``think_logits`` has one row per hop (rows 1..T+1; queries beyond the
    table reuse the last row) over relations in a fixed order plus a final
    STOP column. ``record_logits`` covers retrieved positions 1..K and is
    renormalized over however many documents a step actually has.
    ``answer_logits`` is the pair (copy last evidence, abstain).
    """

    think_logits: np.ndarray
    record_logits: np.ndarray
    answer_logits: np.ndarray

    def __post_init__(self):
        self.think_logits = np.asarray(self.think_logits, dtype=float)
        self.record_logits = np.asarray(self.record_logits, dtype=float)
        self.answer_logits = np.asarray(self.answer_logits, dtype=float)
        for name, arr in (("think_logits", self.think_logits),
                          ("record_logits", self.record_logits),
                          ("answer_logits", self.answer_logits)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if self.think_logits.ndim != 2:
            raise ValueError("think_logits must be 2-D (hop rows x outcomes)")
        if self.answer_logits.shape != (2,):
            raise ValueError("answer_logits must have exactly two entries")

    @classmethod
    def uniform(cls, n_relations: int, budget: int, k: int) -> "TabularPolicyParams":
        return cls(
            think_logits=np.zeros((budget + 1, n_relations + 1)),
            record_logits=np.zeros(k),
            answer_logits=np.zeros(2),
        )

    def allclose(self, other: "TabularPolicyParams", atol: float = 1e-12) -> bool:
        return (
            self.think_logits.shape == other.think_logits.shape
            and self.record_logits.shape == other.record_logits.shape
            and np.allclose(self.think_logits, other.think_logits, atol=atol)
            and np.allclose(self.record_logits, other.record_logits, atol=atol)
            and np.allclose(self.answer_logits, other.answer_logits, atol=atol)
        )

    def to_json_dict(self) -> dict:
        """The params file's fields. ``temperature`` is always 1.0: earlier
        builds read it, and :meth:`from_json_dict` rejects any other value."""
        return {
            "think_logits": self.think_logits.tolist(),
            "record_logits": self.record_logits.tolist(),
            "answer_logits": self.answer_logits.tolist(),
            "temperature": 1.0,
            "version": PARAMS_VERSION,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TabularPolicyParams":
        if d.get("version") != PARAMS_VERSION:
            raise ValueError(f"unsupported params version {d.get('version')!r} "
                             f"(this build reads version {PARAMS_VERSION})")
        if d.get("temperature", 1.0) != 1.0:
            raise ValueError(f"temperature {d['temperature']!r} is not supported "
                             "(this build reads temperature 1.0 only)")
        return cls(
            think_logits=np.asarray(d["think_logits"], dtype=float),
            record_logits=np.asarray(d["record_logits"], dtype=float),
            answer_logits=np.asarray(d["answer_logits"], dtype=float),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "TabularPolicyParams":
        """Read a params file; a defective file raises MalformedFile."""
        return read_json_file(path, cls.from_json_dict)


def passage_object(passage: Passage) -> str:
    """The object entity of a fact passage (its last whitespace token)."""
    parts = passage.text.split()
    return parts[-1] if parts else ""


def question_start_entity(question: str) -> str:
    """Convention: a chain question's first whitespace token names the start entity."""
    tokens = question.split()
    return tokens[0] if tokens else ""


class TabularPolicy:
    """Tractable reference policy over a fixed relation vocabulary."""

    def __init__(self, params: TabularPolicyParams, relations: Sequence[str]):
        if params.think_logits.shape[1] != len(relations) + 1:
            raise ValueError(
                f"think head width {params.think_logits.shape[1]} does not match "
                f"{len(relations)} relations + STOP")
        self.params = params
        self.relations = tuple(relations)

    def with_params(self, params: TabularPolicyParams) -> "TabularPolicy":
        return TabularPolicy(params, self.relations)

    # -- per-head distributions ------------------------------------------------

    def think_probs(self, hop: int) -> np.ndarray:
        rows = self.params.think_logits.shape[0]
        row = self.params.think_logits[min(hop, rows) - 1]
        return softmax(row)

    def record_probs(self, n_docs: int) -> np.ndarray:
        logits = self.params.record_logits[:n_docs]
        if len(logits) < n_docs:
            raise UnrealizableTrajectory(
                f"{n_docs} retrieved documents exceed the record head size "
                f"{len(self.params.record_logits)}")
        return softmax(logits)

    def answer_probs(self) -> np.ndarray:
        return softmax(self.params.answer_logits)

    def answer_positions(self, last_evidence: str,
                         targets: Sequence[str]) -> tuple[int, ...]:
        """The answer-head outcomes after ``last_evidence`` whose text is in
        ``targets``."""
        return tuple(j for j, text in enumerate((last_evidence, ABSTAIN))
                     if text in targets)

    # -- decision sampling -----------------------------------------------------

    def start(self, question: str) -> "TabularPolicy":
        """The tabular policy keeps no per-episode state: it is its own episode."""
        return self

    def propose_subquery(self, history: Trajectory,
                         rng: np.random.Generator) -> str | None:
        probs = self.think_probs(len(history.steps) + 1)
        idx = int(rng.choice(len(probs), p=probs))
        if idx == len(self.relations):
            return None
        entity = (history.last_evidence if history.steps
                  else question_start_entity(history.question))
        return f"{entity} {self.relations[idx]}"

    def extract_evidence(self, documents: Sequence[Passage],
                         rng: np.random.Generator) -> str:
        if not documents:
            raise NoDocuments("cannot extract evidence from an empty document list")
        probs = self.record_probs(len(documents))
        return passage_object(documents[int(rng.choice(len(probs), p=probs))])

    def answer(self, trajectory: Trajectory, rng: np.random.Generator) -> str:
        probs = self.answer_probs()
        return (trajectory.last_evidence, ABSTAIN)[int(rng.choice(len(probs), p=probs))]

    def score_answer(self, question: str, trajectory: Trajectory, y: str) -> float:
        """log of the probability mass the answer head assigns to exactly y.

        Returns the representable floor (-1e9) when y is outside the support,
        meaning this trajectory cannot produce y.
        """
        probs = self.answer_probs()
        positions = self.answer_positions(trajectory.last_evidence, (y,))
        mass = sum(probs[j] for j in positions)
        return math.log(mass) if mass > 0.0 else LOG_FLOOR

    # -- document selection (extension action) ---------------------------------

    @staticmethod
    def rank_directive(sub_query: str, documents: Sequence[Passage]) -> str:
        """Emit a "[i] > [j] > ..." ordering preferring exact fact matches.

        Documents whose text starts with "<entity> <relation>" from the
        sub-query come first, then documents titled by the entity, then the
        retriever's order; ties keep the original order. No parameter enters
        it, so every tabular policy selects the same documents.
        """
        tokens = tokenize(sub_query)
        entity = tokens[0] if tokens else ""
        relation = tokens[1] if len(tokens) > 1 else ""

        def priority(doc: Passage) -> int:
            doc_tokens = tokenize(doc.text)
            if len(doc_tokens) >= 2 and doc_tokens[0] == entity and doc_tokens[1] == relation:
                return 2
            if tokenize(doc.title)[:1] == [entity]:
                return 1
            return 0

        order = sorted(range(len(documents)),
                       key=lambda i: (-priority(documents[i]), i))
        return " > ".join(f"[{i + 1}]" for i in order)

    # -- replay, enumeration, marginals -----------------------------------------

    def relation_of(self, sub_query: str, entity: str) -> str:
        prefix = f"{entity} "
        if not sub_query.startswith(prefix):
            raise UnrealizableTrajectory(
                f"sub-query {sub_query!r} does not extend entity {entity!r}")
        relation = sub_query[len(prefix):]
        if relation not in self.relations:
            raise UnrealizableTrajectory(f"unknown relation in sub-query {sub_query!r}")
        return relation

    def replay(self, trajectory: Trajectory, retriever: Retriever,
               mass: FactorMass, weight: float, targets: Sequence[str]) -> None:
        """Add ``weight`` to every decision factor of ``trajectory`` in ``mass``:
        each think cell, each record factor and, when ``targets`` is not
        empty, the answer factor: the outcomes that produce one of ``targets``.

        Raises UnrealizableTrajectory when the structure cannot arise under
        this policy and retriever (wrong sub-query shape, mismatched
        retrieval results, evidence absent from the retrieved documents).
        """
        rows = self.params.think_logits.shape[0]
        entity = question_start_entity(trajectory.question)
        for step in trajectory.steps:
            relation = self.relation_of(step.sub_query, entity)
            mass.think[min(step.hop, rows) - 1, self.relations.index(relation)] += weight

            expected = retriever.search(step.sub_query, max(1, len(step.retrieved)))
            got = [sp.passage_ref for sp in step.retrieved]
            want = [sp.passage_ref for sp in expected[:len(got)]] if got else []
            if got != want or (not got and expected):
                raise UnrealizableTrajectory(
                    f"retrieved set for {step.sub_query!r} disagrees with the retriever")

            if not step.retrieved:
                if step.evidence != "":
                    raise UnrealizableTrajectory(
                        "evidence recorded for a hop with no retrieved documents")
            else:
                if step.selected is not None:
                    docs = [retriever.get(pid) for pid in step.selected]
                else:
                    docs = retriever.resolve(step.retrieved)
                positions = tuple(j for j, doc in enumerate(docs)
                                  if passage_object(doc) == step.evidence)
                if not positions:
                    raise UnrealizableTrajectory(
                        f"evidence {step.evidence!r} not producible from the "
                        f"documents of hop {step.hop}")
                key = (len(docs), positions)
                mass.record[key] = mass.record.get(key, 0.0) + weight
            entity = step.evidence

        if len(trajectory.steps) < trajectory.budget:
            mass.think[min(len(trajectory.steps) + 1, rows) - 1,
                       len(self.relations)] += weight
        if targets:
            positions = self.answer_positions(trajectory.last_evidence, targets)
            mass.answer[positions] = mass.answer.get(positions, 0.0) + weight

    def trajectory_log_prob(self, trajectory: Trajectory, retriever: Retriever,
                            answer: str | None = None) -> float:
        """Replay a trajectory: sum of per-decision log-probs (+ answer term).

        Raises UnrealizableTrajectory as :meth:`replay` does. Zero-probability
        but structurally valid decisions contribute the -1e9 floor instead.
        """
        mass = FactorMass.zeros(self.params)
        self.replay(trajectory, retriever, mass, 1.0,
                    () if answer is None else (answer,))
        return mass.log_prob(self)

    def enumerate_trajectories(self, example: Example | str, retriever: Retriever,
                               budget: int, k: int,
                               cap: int = 1_000_000, rerank_keep: int | None = None
                               ) -> list[tuple[Trajectory, str, float]]:
        """Exhaustively enumerate (trajectory, answer, joint log-prob) leaves.

        Leaves are mutually exclusive and probability-complete: their
        linear-domain probabilities sum to 1 (within float error). Branches
        of probability exactly 0 are pruned. With ``rerank_keep`` every step
        records from the documents the agent's document selection keeps
        (``rerank``), as an episode does. The agent's stop on a repeated
        sub-query (``dedup``) is outside both the enumerated process and the
        :class:`Lattice`; exact training rejects it. This is the oracle the
        lattice is checked against; its cost grows as ((#relations + 1) * k)
        ** budget, hence ``cap``.
        """
        question = example.question if isinstance(example, Example) else example
        bound = ((len(self.relations) + 1) * max(1, k)) ** budget * 2
        if bound > cap:
            raise EnumerationTooLarge(bound, cap)

        leaves: list[tuple[Trajectory, str, float]] = []
        answer_probs = self.answer_probs()

        def emit(steps: tuple[Step, ...], logp: float) -> None:
            trajectory = Trajectory(question=question, steps=steps,
                                    terminated=True, budget=budget)
            masses: dict[str, float] = {}
            for p, text in zip(answer_probs, (trajectory.last_evidence, ABSTAIN)):
                masses[text] = masses.get(text, 0.0) + float(p)
            for text, mass in masses.items():
                if mass > 0.0:
                    leaves.append((trajectory, text, logp + math.log(mass)))

        def recurse(steps: tuple[Step, ...], logp: float, entity: str, hop: int) -> None:
            if hop > budget:
                emit(steps, logp)
                return
            probs = self.think_probs(hop)
            p_stop = float(probs[len(self.relations)])
            if p_stop > 0.0:
                emit(steps, logp + math.log(p_stop))
            for idx, relation in enumerate(self.relations):
                p_rel = float(probs[idx])
                if p_rel == 0.0:
                    continue
                sub_query = f"{entity} {relation}"
                hits = retriever.search(sub_query, k)
                if not hits:
                    step = Step(sub_query=sub_query, retrieved=(), selected=None,
                                evidence="", hop=hop)
                    recurse(steps + (step,), logp + math.log(p_rel), "", hop + 1)
                    continue
                docs = retriever.resolve(hits)
                selected = None
                if rerank_keep is not None:
                    selected = tuple(rank_documents(self, sub_query, docs, rerank_keep))
                    docs = [retriever.get(pid) for pid in selected]
                rec = self.record_probs(len(docs))
                masses: dict[str, float] = {}
                for p, doc in zip(rec, docs):
                    obj = passage_object(doc)
                    masses[obj] = masses.get(obj, 0.0) + float(p)
                for evidence, mass in masses.items():
                    if mass == 0.0:
                        continue
                    step = Step(sub_query=sub_query, retrieved=tuple(hits),
                                selected=selected, evidence=evidence, hop=hop)
                    recurse(steps + (step,),
                            logp + math.log(p_rel) + math.log(mass),
                            evidence, hop + 1)

        recurse((), 0.0, question_start_entity(question), 1)
        return leaves

    def exact_marginal_set(self, example: Example, retriever: Retriever,
                           budget: int, k: int, cap: int = 1_000_000,
                           rerank_keep: int | None = None) -> float:
        """log sum over trajectories of p(z | x) * p(any gold answer | x, z),
        by enumeration."""
        golds = set(example.gold_answers)
        leaves = self.enumerate_trajectories(example, retriever, budget, k, cap,
                                             rerank_keep)
        terms = [lp for _t, answer, lp in leaves if answer in golds]
        return logsumexp(terms)


@dataclass
class ExpectedCounts:
    """Expected number of times each outcome of each head is chosen,
    shaped like the logits of the heads."""

    think: np.ndarray
    record: np.ndarray
    answer: np.ndarray

    @classmethod
    def zeros(cls, params: TabularPolicyParams) -> "ExpectedCounts":
        return cls(np.zeros_like(params.think_logits),
                   np.zeros_like(params.record_logits),
                   np.zeros_like(params.answer_logits))

    def add(self, other: "ExpectedCounts") -> None:
        self.think += other.think
        self.record += other.record
        self.answer += other.answer


def add_split(counts: np.ndarray, probs, matched: Sequence[int], weight: float) -> None:
    """Add ``weight`` to the outcomes ``matched``, split in proportion to
    ``probs`` (evenly when they all have probability 0): the expectation
    within one factor whose outcomes yield the same text."""
    mass = sum(probs[j] for j in matched)
    for j in matched:
        share = probs[j] / mass if mass > 0 else 1.0 / len(matched)
        counts[j] += weight * share


@dataclass
class FactorMass:
    """Mass on each decision factor of one or more trajectories: think
    cells by (row, outcome), shaped like the think logits; record factors
    by (number of documents, positions that yield the evidence); answer
    factors by the positions that yield a target answer.
    :meth:`TabularPolicy.replay` fills it from trajectories and
    :attr:`Lattice.posterior` from a posterior."""

    think: np.ndarray
    record: dict[tuple[int, tuple[int, ...]], float] = field(default_factory=dict)
    answer: dict[tuple[int, ...], float] = field(default_factory=dict)

    @classmethod
    def zeros(cls, params: TabularPolicyParams) -> "FactorMass":
        return cls(np.zeros_like(params.think_logits))

    def counts(self, policy: TabularPolicy) -> ExpectedCounts:
        """Expected counts of every head. Record and answer counts are split
        within a factor in proportion to ``policy``'s probabilities."""
        counts = ExpectedCounts.zeros(policy.params)
        counts.think += self.think
        for (n_docs, positions), q in self.record.items():
            add_split(counts.record, policy.record_probs(n_docs), positions, q)
        answer = policy.answer_probs()
        for positions, q in self.answer.items():
            add_split(counts.answer, answer, positions, q)
        return counts

    def log_prob(self, policy: TabularPolicy) -> float:
        """Sum over factors of mass x log-probability under ``policy``, with
        LOG_FLOOR for a factor of probability 0."""
        total = 0.0
        for row in range(self.think.shape[0]):
            probs = policy.think_probs(row + 1)
            for col in np.flatnonzero(self.think[row]):
                p = probs[col]
                total += self.think[row, col] * (math.log(p) if p > 0.0 else LOG_FLOOR)
        for (n_docs, positions), q in self.record.items():
            rec = policy.record_probs(n_docs)
            mass = sum(rec[j] for j in positions)
            total += q * (math.log(mass) if mass > 0.0 else LOG_FLOOR)
        answer = policy.answer_probs()
        for positions, q in self.answer.items():
            mass = sum(answer[j] for j in positions)
            total += q * (math.log(mass) if mass > 0.0 else LOG_FLOOR)
        return float(total)


Edge = tuple[tuple[int, tuple[int, ...]] | None, str]


class EdgeTable:
    """The lattice's edges for one retriever, relation vocabulary, retrieval
    size ``k`` and document selection; every example and every policy with
    these relations shares them.

    ``edges(entity, idx)`` are the outcomes of the search
    "<entity> <relations[idx]>": one (record key, next entity) per distinct
    evidence text, in order of its first position, the record key being
    (number of documents, positions yielding that evidence); or the one
    empty-retrieval edge (None, "") when the search finds nothing. With
    ``rerank_keep`` the documents are those the tabular policy's document
    selection keeps, as in an agent episode with ``rerank``. Entries fill on
    first use, so only the pairs some lattice reaches are searched, once.
    """

    def __init__(self, retriever: Retriever, relations: Sequence[str], k: int,
                 rerank_keep: int | None = None):
        self.retriever = retriever
        self.relations = tuple(relations)
        self.k = k
        self.rerank_keep = rerank_keep
        self._edges: dict[tuple[str, int], tuple[Edge, ...]] = {}

    def edges(self, entity: str, idx: int) -> tuple[Edge, ...]:
        key = (entity, idx)
        if key not in self._edges:
            self._edges[key] = self._search(entity, idx)
        return self._edges[key]

    def _search(self, entity: str, idx: int) -> tuple[Edge, ...]:
        sub_query = f"{entity} {self.relations[idx]}"
        hits = self.retriever.search(sub_query, self.k)
        if not hits:
            return ((None, ""),)
        docs = self.retriever.resolve(hits)
        if self.rerank_keep is not None:
            # rank_directive is a staticmethod: any tabular policy selects so
            docs = [self.retriever.get(pid) for pid in rank_documents(
                TabularPolicy, sub_query, docs, self.rerank_keep)]
        positions: dict[str, list[int]] = {}
        for j, doc in enumerate(docs):
            positions.setdefault(passage_object(doc), []).append(j)
        return tuple(((len(docs), tuple(js)), evidence)
                     for evidence, js in positions.items())

    def weigh(self, policy: TabularPolicy) -> "WeightedEdges":
        """The table priced by ``policy``'s parameters."""
        return WeightedEdges(policy, self)


class WeightedEdges:
    """An :class:`EdgeTable` under one policy: the moves out of each
    (hop, entity) state, computed on first use and shared by every
    :class:`Lattice` of that policy.

    A move is (relation index, record key, next entity, log-prob); the
    record key is None after an empty retrieval, which has no record
    decision. Moves of probability 0 are pruned, and ``record_probs`` raises
    UnrealizableTrajectory on a state whose documents outnumber the record
    head.
    """

    def __init__(self, policy: TabularPolicy, table: EdgeTable):
        if policy.relations != table.relations:
            raise ValueError("the edge table was built for other relations")
        self.policy = policy
        self.table = table
        self.answer = policy.answer_probs().tolist()
        self._think: dict[int, list[float]] = {}
        self._log_records: dict[tuple[int, tuple[int, ...]], float | None] = {}
        self._moves: dict[tuple[int, str], list[tuple]] = {}

    def think_probs(self, hop: int) -> list[float]:
        if hop not in self._think:
            self._think[hop] = self.policy.think_probs(hop).tolist()
        return self._think[hop]

    def log_record(self, key: tuple[int, tuple[int, ...]]) -> float | None:
        """log of the record head's mass on the positions of record key
        ``key``; None when that mass is 0."""
        if key not in self._log_records:
            n_docs, positions = key
            rec = self.policy.record_probs(n_docs).tolist()
            mass = sum(rec[j] for j in positions)
            self._log_records[key] = math.log(mass) if mass > 0.0 else None
        return self._log_records[key]

    def moves(self, hop: int, entity: str) -> list[tuple]:
        key = (hop, entity)
        if key in self._moves:
            return self._moves[key]
        probs = self.think_probs(hop)
        moves = []
        for idx in range(len(self.table.relations)):
            if probs[idx] == 0.0:
                continue
            log_rel = math.log(probs[idx])
            for record_key, nxt in self.table.edges(entity, idx):
                if record_key is None:
                    moves.append((idx, None, nxt, log_rel))
                    continue
                log_mass = self.log_record(record_key)
                if log_mass is not None:
                    moves.append((idx, record_key, nxt, log_rel + log_mass))
        self._moves[key] = moves
        return moves


class Lattice:
    """One example's trajectories under one policy, folded onto states.

    The state before hop h is (h, current entity): the question's first
    token at hop 1, then the last evidence, and "" after an empty retrieval.
    The last evidence is "" at hop 1 and the current entity after that. A
    state's edges are think (relation) x retrieval x record, where the
    record head pools the positions that yield the same evidence text; they
    come from ``edges``, an :class:`EdgeTable` weighted by the policy, which
    also gives the document selection when the agent reranks. A path ends
    with STOP at hop h <= budget or by running out of budget, and each end
    carries the answer head's mass on the gold texts. Branches of
    probability 0 are pruned as enumeration prunes them, and
    ``record_probs`` raises UnrealizableTrajectory on the same branches.

    Construction runs the forward pass: :attr:`log_marginal` is
    log p(gold | x), or LOG_FLOOR when no path reaches a gold answer. The
    backward pass runs on first use of :attr:`posterior`; it gives the
    posterior mass of every edge given the gold answers, aggregated on the
    decision factors (a :class:`FactorMass`): its counts under the lattice's
    policy are the exact E-step, its log-probability the ELBO. A lattice has
    no signal (:attr:`posterior` is None) when no path reaches a gold answer.
    """

    def __init__(self, edges: WeightedEdges, example: Example, budget: int):
        policy = self.policy = edges.policy
        golds = tuple(dict.fromkeys(example.gold_answers))
        answer = edges.answer
        # The answer positions yielding a gold answer after each last
        # evidence, and the log of their mass (None when it is 0).
        answers: dict[str, tuple[tuple[int, ...], float | None]] = {}
        stop = len(policy.relations)
        # layers[h - 1] holds (entity, log alpha, log-prob of its gold end or
        # None, answer positions of the end, moves) for every state before
        # hop h, h = 1..budget + 1. The end is STOP then the answer up to the
        # budget, the answer alone after it; the moves are those of
        # :class:`WeightedEdges`, none after the budget.
        self.layers: list[list[tuple]] = []
        frontier = {question_start_entity(example.question): 0.0}
        ends: list[float] = []
        for hop in range(1, budget + 2):
            probs = edges.think_probs(hop)
            incoming: dict[str, list[float]] = {}
            layer = []
            for entity, log_alpha in frontier.items():
                last = "" if hop == 1 else entity
                if last not in answers:
                    gold_positions = policy.answer_positions(last, golds)
                    mass = sum(answer[j] for j in gold_positions)
                    answers[last] = (gold_positions,
                                     math.log(mass) if mass > 0.0 else None)
                gold_positions, end = answers[last]
                if hop <= budget and end is not None:
                    end = math.log(probs[stop]) + end if probs[stop] > 0.0 else None
                if end is not None:
                    ends.append(log_alpha + end)
                moves = edges.moves(hop, entity) if hop <= budget else []
                for _idx, _key, nxt, logp in moves:
                    incoming.setdefault(nxt, []).append(log_alpha + logp)
                layer.append((entity, log_alpha, end, gold_positions, moves))
            self.layers.append(layer)
            frontier = {e: logsumexp(terms) for e, terms in incoming.items()}
        self.log_marginal = logsumexp(ends)
        self.has_signal = bool(ends)
    @functools.cached_property
    def posterior(self) -> FactorMass | None:
        """The backward pass: the posterior mass given the gold answers of
        every factor; None without signal."""
        if not self.has_signal:
            return None
        rows = self.policy.params.think_logits.shape[0]
        stop = len(self.policy.relations)
        budget = len(self.layers) - 1
        posterior = FactorMass.zeros(self.policy.params)
        think, record, answer = posterior.think, posterior.record, posterior.answer
        after: dict[str, float] = {}  # log beta of the states after this hop
        for hop in range(budget + 1, 0, -1):
            row = min(hop, rows) - 1
            before = {}
            for entity, log_alpha, end, positions, moves in self.layers[hop - 1]:
                terms = []
                if end is not None:
                    terms.append(end)
                    q = math.exp(log_alpha + end - self.log_marginal)
                    if hop <= budget:
                        think[row, stop] += q
                    answer[positions] = answer.get(positions, 0.0) + q
                for idx, key, nxt, logp in moves:
                    if nxt not in after:
                        continue
                    terms.append(logp + after[nxt])
                    q = math.exp(log_alpha + terms[-1] - self.log_marginal)
                    think[row, idx] += q
                    if key is not None:
                        record[key] = record.get(key, 0.0) + q
                if terms:
                    before[entity] = logsumexp(terms)
            after = before
        return posterior
