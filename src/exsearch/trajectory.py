"""Trajectory data structures, the transcript writer and parser, and JSONL serialization.

A trajectory is the ordered record of one search episode: per hop a sub-query,
the retrieved passages, and the evidence extracted from them, plus a terminal
answer. Transcripts encode trajectories as one action per line using the tags
<THINK>, <SEARCH>, <RECORD>, <RANK> and <FINAL> (UTF-8, LF line endings).
``<Final>`` and ``<FINIAL>`` are accepted as spellings of ``<FINAL>`` on parse
and canonicalized on render. :func:`render_transcript` and
:func:`render_parsed` share the grammar's one writer.

The grammar's one reader (:func:`match_tag`, :func:`iter_actions`,
:func:`read_citations`) and its tags live in :mod:`exsearch.grammar`, which
needs only the standard library; this module re-exports them, and
:func:`parse_transcript` reads through them.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterable, Iterator

from .errors import MalformedAction, MalformedFile, SchemaError
# Re-exported: the grammar's names import from here as from exsearch.grammar.
from .grammar import (FINAL, FINAL_VARIANTS, RANK, RECORD, SEARCH, THINK,  # noqa: F401
                      iter_actions, match_tag, read_citations)

_OUTPUT_RE = re.compile(r"^Output:\s*(.*)$")
_PASSAGE_FIELDS = frozenset(("id", "title", "text"))


@dataclass(frozen=True)
class Passage:
    """One retrievable unit of text.

    ``extras`` holds any further record fields; it may not reuse the names
    ``id``, ``title`` or ``text``, which would overwrite them on write.
    """

    id: str
    title: str
    text: str
    extras: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not self.id:
            raise ValueError("passage id must be non-empty")
        if not self.text:
            raise ValueError(f"passage {self.id!r} has empty text")
        if self.extras and not _PASSAGE_FIELDS.isdisjoint(self.extras):
            raise ValueError(f"passage {self.id!r} extras reuse a field name: "
                             f"{sorted(_PASSAGE_FIELDS.intersection(self.extras))}")


@dataclass(frozen=True)
class ScoredPassage:
    """A passage reference inside one retrieval result."""

    passage_ref: str
    score: float
    rank: int


@dataclass(frozen=True)
class Step:
    """One hop of a trajectory: sub-query, retrieval result, evidence.

    ``selected`` holds the re-ranked subset of retrieved passage ids when the
    document-selection action is enabled, in selection order.
    """

    sub_query: str
    retrieved: tuple[ScoredPassage, ...]
    selected: tuple[str, ...] | None
    evidence: str
    hop: int

    def __post_init__(self):
        if self.hop < 1:
            raise ValueError("hop indices are 1-based")
        for text in (self.sub_query, self.evidence):
            if not isinstance(text, str):
                raise TypeError("sub-query and evidence must be strings")
            if text.splitlines() not in ([], [text]):
                raise ValueError("sub-query and evidence must be single-line (the "
                                 "transcript grammar splits lines as str.splitlines does)")
        ranks = [sp.rank for sp in self.retrieved]
        if ranks != list(range(1, len(ranks) + 1)):
            raise ValueError("retrieved ranks must be 1..K without gaps")
        scores = [sp.score for sp in self.retrieved]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("retrieved scores must be non-increasing in rank")
        if self.selected is not None:
            ids = {sp.passage_ref for sp in self.retrieved}
            missing = [pid for pid in self.selected if pid not in ids]
            if missing:
                raise ValueError(f"selected ids not among retrieved: {missing}")


@dataclass(frozen=True)
class Trajectory:
    """A full episode: question, ordered steps, and the step budget."""

    question: str
    steps: tuple[Step, ...]
    terminated: bool
    budget: int

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if len(self.steps) > self.budget:
            raise ValueError("trajectory exceeds its step budget")
        hops = [s.hop for s in self.steps]
        if hops != list(range(1, len(hops) + 1)):
            raise ValueError("step hops must be 1..n in order")

    @property
    def last_evidence(self) -> str:
        return self.steps[-1].evidence if self.steps else ""


WEIGHT_MODES = ("posterior-logprob", "reward-em", "reward-acc", "reward-f1")


@dataclass(frozen=True)
class WeightedTrajectory:
    """A trajectory with its candidate answer and importance weight.

    ``log_weight`` is the raw (log-domain) weight; ``weight`` is the softmax-
    normalized value within the example's sample set and lies in [0, 1].
    """

    trajectory: Trajectory
    answer: str
    log_weight: float
    weight: float
    weight_mode: str
    extras: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0):
            raise ValueError(f"normalized weight {self.weight} outside [0, 1]")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode {self.weight_mode!r}")


@dataclass(frozen=True)
class Example:
    """A question with its gold answers and optional search annotations."""

    id: str
    question: str
    gold_answers: tuple[str, ...]
    gold_passages: tuple[str, ...] | None = None
    gold_subqueries: tuple[str, ...] | None = None
    gold_evidences: tuple[str, ...] | None = None
    extras: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not self.gold_answers:
            raise ValueError(f"example {self.id!r} has no gold answers")


@dataclass(frozen=True)
class ParsedStep:
    """One hop recovered from a transcript: citations only, no scores."""

    sub_query: str
    citations: tuple[int, ...]
    evidence: str
    rank_directive: str | None = None


@dataclass(frozen=True)
class ParsedTranscript:
    """Skeleton recovered by :func:`parse_transcript`.

    ``skipped_lines`` counts non-empty lines outside the action grammar.
    """

    steps: tuple[ParsedStep, ...]
    answer: str | None
    skipped_lines: int


def step_citations(step: Step) -> tuple[int, ...]:
    """Citation numbers for a step: ranks of selected ids, else all ranks."""
    if step.selected is not None:
        by_id = {sp.passage_ref: sp.rank for sp in step.retrieved}
        return tuple(by_id[pid] for pid in step.selected)
    return tuple(sp.rank for sp in step.retrieved)


def _action_line(tag: str, payload: str) -> str:
    return f"{tag} {payload}" if payload else tag


def _write_transcript(steps: Iterable[tuple], answer: str | None) -> str:
    """The grammar's one writer, over (sub-query, citations, rank directive
    or None, evidence) tuples."""
    lines = []
    for sub_query, citations, rank_directive, evidence in steps:
        lines.append(_action_line(THINK, sub_query))
        lines.append(_action_line(SEARCH, " ".join(f"[{n}]" for n in citations)))
        if rank_directive is not None:
            lines.append(_action_line(RANK, rank_directive))
        lines.append(_action_line(RECORD, evidence))
    if answer is not None:
        lines.append(_action_line(FINAL, answer))
    return "\n".join(lines)


def render_transcript(trajectory: Trajectory, answer: str | None = None) -> str:
    """Render a trajectory as canonical transcript text.

    One line per action; <SEARCH> lines cite passages as "[n]" where n is the
    1-based rank within the step's retrieval result (only the selected subset
    is cited when present). Closes with <FINAL> when an answer is given.
    """
    return _write_transcript(((s.sub_query, step_citations(s), None, s.evidence)
                              for s in trajectory.steps), answer)


def render_parsed(parsed: ParsedTranscript) -> str:
    """Render a parsed skeleton back to canonical transcript text."""
    return _write_transcript(((s.sub_query, s.citations, s.rank_directive, s.evidence)
                              for s in parsed.steps), parsed.answer)


def parse_transcript(text: str) -> ParsedTranscript:
    """Parse transcript text into a trajectory skeleton and final answer.

    Retrieval results are reconstructed from cited "[n]" numbers only; scores
    are not recoverable. Lines outside the grammar are skipped and counted.
    A bare <FINAL> recovers its answer from a later "Output: ..." line when
    present (model output sometimes defers the answer); <THINK> and <RANK>
    with no payload raise MalformedAction.
    """
    steps: list[ParsedStep] = []
    skipped = 0
    answer: str | None = None
    final_seen = False
    current: ParsedStep | None = None  # the open step, until <RECORD> closes it
    searched = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        matched = match_tag(line)
        if final_seen:
            output = _OUTPUT_RE.match(line) if answer is None and matched is None else None
            if output:
                answer = output.group(1).strip()
            else:
                skipped += 1
            continue
        if matched is None:
            skipped += 1
            continue
        tag, payload = matched
        if tag in (THINK, FINAL) and current is not None:
            steps.append(current)
            current = None
        if tag == THINK:
            if not payload:
                raise MalformedAction("<THINK> without a sub-query")
            current, searched = ParsedStep(payload, (), ""), False
        elif tag == FINAL:
            final_seen = True
            answer = payload or None
        elif tag == RANK and not payload:
            raise MalformedAction("<RANK> without a ranking")
        elif (current is None or (tag == SEARCH and searched)
              or (tag == RANK and current.rank_directive is not None)):
            skipped += 1
        elif tag == SEARCH:
            current, searched = replace(current, citations=read_citations(payload)), True
        elif tag == RANK:
            current = replace(current, rank_directive=payload)
        else:  # <RECORD> closes the step
            steps.append(replace(current, evidence=payload))
            current = None
    if current is not None:
        steps.append(current)
    if final_seen and answer is None:
        answer = ""
    return ParsedTranscript(steps=tuple(steps), answer=answer, skipped_lines=skipped)


# --- JSONL serialization -----------------------------------------------------
#
# Schemas (one JSON object per line):
#   passage    {"id", "title", "text"}
#   example    {"id", "question", "answers": [...],
#               "gold_passages": [...]?, "gold_subqueries": [...]?,
#               "gold_evidences": [...]?}
#   trajectory {"id", "question", "steps": [{"sub_query",
#               "retrieved": [{"id", "score", "rank"}], "selected": [...]?,
#               "evidence"}], "answer"?, "budget"?, "terminated"?}
#   weighted   trajectory fields plus {"log_weight", "weight", "weight_mode"}
#   prediction {"id", "answer"}
#
# Unknown fields are preserved opaquely on read-then-write.


@dataclass(frozen=True)
class TrajectoryRecord:
    """A trajectory as stored on disk: id, episode, candidate answer."""

    id: str
    trajectory: Trajectory
    answer: str | None = None
    extras: dict = field(default_factory=dict, compare=False)


def finite_real(value) -> bool:
    """Whether ``value`` is an int or float in a float's finite range; a bool is not."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


_BAD, _REQUIRED = object(), object()

# The kinds of field: the phrase an error names each by, and a reader from a
# JSON value to what the dataclass field holds, or to _BAD. Bools are no ints.
_STRING = ("a string", lambda v: v if isinstance(v, str) else _BAD)
_INT = ("an integer", lambda v: v if type(v) is int else _BAD)
_BOOL = ("a boolean", lambda v: v if type(v) is bool else _BAD)
_REAL = ("a finite number", lambda v: float(v) if finite_real(v) else _BAD)
_STRINGS = ("a list of strings", lambda v: tuple(v) if isinstance(v, list)
            and all(isinstance(x, str) for x in v) else _BAD)
_OBJECTS = ("a list of objects", lambda v: v if isinstance(v, list)
            and all(isinstance(x, dict) for x in v) else _BAD)
# the JSON files' kinds: a params file's logits and a world manifest's facts
_REALS = ("a list of finite numbers", lambda v: v if isinstance(v, list)
          and all(finite_real(x) for x in v) else _BAD)
_MATRIX = ("a list of equally long lists of finite numbers", lambda v: v
           if isinstance(v, list) and all(_REALS[1](row) is not _BAD for row in v)
           and len({len(row) for row in v}) <= 1 else _BAD)
_TRIPLES = ("a list of [subject, relation, object] string triples",
            lambda v: tuple(map(tuple, v)) if isinstance(v, list) and all(
                isinstance(f, list) and len(f) == 3 and all(isinstance(x, str) for x in f)
                for f in v) else _BAD)
# A settings field's kind by its annotation, which postponed evaluation leaves a string.
SETTING_KINDS = {"str": _STRING, "int": _INT, "bool": _BOOL, "float": _REAL}


def check_setting(name: str, annotation: str, value, error=ValueError) -> None:
    """Raise ``error`` when ``value`` is not of the kind annotated ``annotation``."""
    phrase, read = SETTING_KINDS[annotation]
    if read(value) is _BAD:
        raise error(f"{name} must be {phrase}, not {value!r}")


def check_settings(settings) -> None:
    """Check each field of the settings dataclass ``settings`` against its annotation."""
    for f in fields(settings):
        check_setting(f.name, f.type, getattr(settings, f.name))


def _field(d: dict, name: str, kind: tuple, line: int | None, default=_REQUIRED):
    """Field ``name`` of record ``d`` read as ``kind``. An optional field
    (one given a ``default``) that is absent or null reads as the default;
    any other value not of ``kind`` raises SchemaError."""
    value = d.get(name)
    if value is None and default is not _REQUIRED:
        return default
    value = kind[1](value)
    if value is _BAD:
        if name not in d:
            raise SchemaError(f"record missing required field {name!r}", line)
        raise SchemaError(f"field {name!r} must be {kind[0]}", line)
    return value


def _build(cls, line: int | None, **values):
    """``cls(**values)``; the ValueError or TypeError of its checks raises
    SchemaError."""
    try:
        return cls(**values)
    except (ValueError, TypeError) as exc:
        raise SchemaError(str(exc), line) from exc


def passage_to_dict(p: Passage) -> dict:
    return {"id": p.id, "title": p.title, "text": p.text, **p.extras}


def passage_from_dict(d: dict, line: int | None = None) -> Passage:
    return _build(Passage, line, id=_field(d, "id", _STRING, line),
                  title=_field(d, "title", _STRING, line),
                  text=_field(d, "text", _STRING, line),
                  extras={k: v for k, v in d.items() if k not in _PASSAGE_FIELDS})


_EXAMPLE_FIELDS = ("id", "question", "answers", "gold_passages", "gold_subqueries",
                   "gold_evidences")


def example_to_dict(e: Example) -> dict:
    d: dict[str, Any] = {"id": e.id, "question": e.question, "answers": list(e.gold_answers)}
    if e.gold_passages is not None:
        d["gold_passages"] = list(e.gold_passages)
    if e.gold_subqueries is not None:
        d["gold_subqueries"] = list(e.gold_subqueries)
    if e.gold_evidences is not None:
        d["gold_evidences"] = list(e.gold_evidences)
    d.update(e.extras)
    return d


def example_from_dict(d: dict, line: int | None = None) -> Example:
    return _build(Example, line, id=_field(d, "id", _STRING, line),
                  question=_field(d, "question", _STRING, line),
                  gold_answers=_field(d, "answers", _STRINGS, line),
                  gold_passages=_field(d, "gold_passages", _STRINGS, line, None),
                  gold_subqueries=_field(d, "gold_subqueries", _STRINGS, line, None),
                  gold_evidences=_field(d, "gold_evidences", _STRINGS, line, None),
                  extras={k: v for k, v in d.items() if k not in _EXAMPLE_FIELDS})


def _step_to_dict(s: Step) -> dict:
    d: dict[str, Any] = {
        "sub_query": s.sub_query,
        "retrieved": [{"id": sp.passage_ref, "score": sp.score, "rank": sp.rank}
                      for sp in s.retrieved],
        "evidence": s.evidence,
    }
    if s.selected is not None:
        d["selected"] = list(s.selected)
    return d


def _step_from_dict(d: dict, hop: int, line: int | None) -> Step:
    retrieved = tuple(ScoredPassage(passage_ref=_field(r, "id", _STRING, line),
                                    score=_field(r, "score", _REAL, line),
                                    rank=_field(r, "rank", _INT, line))
                      for r in _field(d, "retrieved", _OBJECTS, line))
    return _build(Step, line, sub_query=_field(d, "sub_query", _STRING, line),
                  retrieved=retrieved, selected=_field(d, "selected", _STRINGS, line, None),
                  evidence=_field(d, "evidence", _STRING, line), hop=hop)


_TRAJECTORY_FIELDS = ("id", "question", "steps", "answer", "budget", "terminated")


def trajectory_record_to_dict(rec: TrajectoryRecord) -> dict:
    t = rec.trajectory
    d: dict[str, Any] = {
        "id": rec.id,
        "question": t.question,
        "steps": [_step_to_dict(s) for s in t.steps],
    }
    if rec.answer is not None:
        d["answer"] = rec.answer
    d["budget"] = t.budget
    d["terminated"] = t.terminated
    d.update(rec.extras)
    return d


def _trajectory_from_dict(d: dict, line: int | None) -> Trajectory:
    steps = tuple(_step_from_dict(s, hop, line)
                  for hop, s in enumerate(_field(d, "steps", _OBJECTS, line), 1))
    return _build(Trajectory, line, question=_field(d, "question", _STRING, line),
                  steps=steps, terminated=_field(d, "terminated", _BOOL, line, True),
                  budget=_field(d, "budget", _INT, line, max(1, len(steps))))


def trajectory_record_from_dict(d: dict, line: int | None = None) -> TrajectoryRecord:
    return TrajectoryRecord(id=_field(d, "id", _STRING, line),
                            trajectory=_trajectory_from_dict(d, line),
                            answer=_field(d, "answer", _STRING, line, None),
                            extras={k: v for k, v in d.items() if k not in _TRAJECTORY_FIELDS})


_WEIGHTED_FIELDS = _TRAJECTORY_FIELDS + ("log_weight", "weight", "weight_mode")


def weighted_to_dict(rec_id: str, wt: WeightedTrajectory) -> dict:
    d = trajectory_record_to_dict(
        TrajectoryRecord(id=rec_id, trajectory=wt.trajectory, answer=wt.answer)
    )
    d["log_weight"] = wt.log_weight
    d["weight"] = wt.weight
    d["weight_mode"] = wt.weight_mode
    d.update(wt.extras)
    return d


def weighted_from_dict(d: dict, line: int | None = None) -> tuple[str, WeightedTrajectory]:
    wt = _build(WeightedTrajectory, line, trajectory=_trajectory_from_dict(d, line),
                answer=_field(d, "answer", _STRING, line, ""),
                log_weight=_field(d, "log_weight", _REAL, line),
                weight=_field(d, "weight", _REAL, line),
                weight_mode=_field(d, "weight_mode", _STRING, line),
                extras={k: v for k, v in d.items() if k not in _WEIGHTED_FIELDS})
    return _field(d, "id", _STRING, line), wt


def write_jsonl(path, records: Iterable[dict]) -> int:
    """Write dict records as line-delimited JSON; returns the record count."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False))
            fh.write("\n")
            n += 1
    return n


# surrogateescape decodes each byte that is not UTF-8 to one of these
_UNDECODED_RE = re.compile("[\udc80-\udcff]")


def iter_jsonl(path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) pairs; raises SchemaError on a line that
    is not UTF-8, is not JSON or is not a JSON object."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            if not line.isascii() and _UNDECODED_RE.search(line):
                raise SchemaError("invalid UTF-8", line_no)
            try:
                record = json.loads(line)
            except ValueError as exc:  # also an int past the interpreter's digit limit
                raise SchemaError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line_no) from exc
            if not isinstance(record, dict):
                raise SchemaError("record is not a JSON object", line_no)
            yield line_no, record


def read_json_file(path, parse):
    """``parse`` of the JSON object stored at ``path``, which reads its
    fields with :func:`_field`. Invalid JSON, a value that is not an object
    and any SchemaError or ValueError of ``parse`` raise MalformedFile
    naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        if not isinstance(d, dict):
            raise ValueError("not a JSON object")
        return parse(d)
    except (SchemaError, ValueError) as exc:
        raise MalformedFile(f"{path}: {exc}") from exc


def read_passages_jsonl(path) -> list[Passage]:
    return [passage_from_dict(d, n) for n, d in iter_jsonl(path)]


def write_passages_jsonl(path, passages: Iterable[Passage]) -> int:
    return write_jsonl(path, (passage_to_dict(p) for p in passages))


def read_examples_jsonl(path) -> list[Example]:
    return [example_from_dict(d, n) for n, d in iter_jsonl(path)]


def write_examples_jsonl(path, examples: Iterable[Example]) -> int:
    return write_jsonl(path, (example_to_dict(e) for e in examples))


def read_trajectories_jsonl(path) -> list[TrajectoryRecord]:
    return [trajectory_record_from_dict(d, n) for n, d in iter_jsonl(path)]


def write_trajectories_jsonl(path, records: Iterable[TrajectoryRecord]) -> int:
    return write_jsonl(path, (trajectory_record_to_dict(r) for r in records))


def read_weighted_jsonl(path) -> list[tuple[str, WeightedTrajectory]]:
    return [weighted_from_dict(d, n) for n, d in iter_jsonl(path)]


def write_weighted_jsonl(path, items: Iterable[tuple[str, WeightedTrajectory]]) -> int:
    return write_jsonl(path, (weighted_to_dict(i, wt) for i, wt in items))


def read_predictions_jsonl(path) -> dict[str, str]:
    """Each prediction record's answer by its example id; a later record for
    an id replaces an earlier one."""
    return {_field(d, "id", _STRING, n): _field(d, "answer", _STRING, n)
            for n, d in iter_jsonl(path)}
