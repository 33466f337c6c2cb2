import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutated, random_trajectory, repeated_subquery_hops
from exsearch import grammar, trajectory
from exsearch.errors import MalformedAction, MalformedFile, SchemaError
from exsearch.policy import TabularPolicyParams
from exsearch.synth import load_world
from exsearch.trajectory import (
    FINAL,
    RECORD,
    SEARCH,
    THINK,
    WEIGHT_MODES,
    Example,
    ParsedStep,
    Passage,
    ScoredPassage,
    Step,
    Trajectory,
    TrajectoryRecord,
    WeightedTrajectory,
    iter_actions,
    match_tag,
    parse_transcript,
    read_citations,
    read_examples_jsonl,
    read_passages_jsonl,
    read_predictions_jsonl,
    read_trajectories_jsonl,
    read_weighted_jsonl,
    render_parsed,
    render_transcript,
    step_citations,
    trajectory_record_from_dict,
    weighted_from_dict,
    write_examples_jsonl,
    write_passages_jsonl,
    write_trajectories_jsonl,
    write_weighted_jsonl,
)

FIXTURES = Path(__file__).parent / "fixtures"


def step(sub_query="ent1 rel0", ids=("a", "b", "c"), selected=None,
         evidence="ent2", hop=1):
    retrieved = tuple(ScoredPassage(pid, float(len(ids) - i), i + 1)
                      for i, pid in enumerate(ids))
    return Step(sub_query=sub_query, retrieved=retrieved, selected=selected,
                evidence=evidence, hop=hop)


class TestTypes:
    def test_passage_requires_id_and_text(self):
        with pytest.raises(ValueError):
            Passage(id="", title="t", text="x")
        with pytest.raises(ValueError):
            Passage(id="p", title="t", text="")

    @pytest.mark.parametrize("extras", [{"id": "q", "text": ""}, {"title": "u"}])
    def test_passage_extras_may_not_reuse_a_field_name(self, extras):
        # Written out, such extras would overwrite the passage's own fields.
        with pytest.raises(ValueError, match="extras reuse a field name"):
            Passage(id="p", title="t", text="x", extras=extras)

    def test_step_rank_gaps_rejected(self):
        bad = (ScoredPassage("a", 2.0, 1), ScoredPassage("b", 1.0, 3))
        with pytest.raises(ValueError):
            Step(sub_query="q", retrieved=bad, selected=None, evidence="", hop=1)

    def test_step_scores_must_not_increase(self):
        bad = (ScoredPassage("a", 1.0, 1), ScoredPassage("b", 2.0, 2))
        with pytest.raises(ValueError):
            Step(sub_query="q", retrieved=bad, selected=None, evidence="", hop=1)

    def test_selected_must_be_subset(self):
        with pytest.raises(ValueError):
            step(selected=("zz",))

    def test_trajectory_hop_order_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(question="q", steps=(step(hop=2),), terminated=True, budget=3)

    def test_trajectory_budget_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(question="q", steps=(step(hop=1), step(hop=2)),
                       terminated=True, budget=1)

    def test_weight_bounds(self):
        t = Trajectory(question="q", steps=(), terminated=True, budget=1)
        with pytest.raises(ValueError):
            WeightedTrajectory(t, "a", 0.0, 1.5, "reward-em")
        with pytest.raises(ValueError):
            WeightedTrajectory(t, "a", 0.0, 0.5, "nonsense-mode")

    def test_example_needs_gold_answers(self):
        with pytest.raises(ValueError):
            Example(id="x", question="q", gold_answers=())


class TestRender:
    def test_empty_trajectory_no_answer_is_empty_text(self):
        t = Trajectory(question="q", steps=(), terminated=True, budget=1)
        assert render_transcript(t) == ""

    def test_warmup_layout(self):
        # Mirrors the two-magazine warm-up exemplar: two think/search/record
        # triples citing one passage each, closed by the final answer.
        s1 = Step(
            sub_query='When did the magazine "Arthur\'s Magazine" start?',
            retrieved=(ScoredPassage("arthur", 1.0, 1),),
            selected=None, evidence="1844", hop=1)
        s2 = Step(
            sub_query='When did the magazine "First for Women" start?',
            retrieved=(ScoredPassage("arthur", 2.0, 1), ScoredPassage("ffw", 1.0, 2)),
            selected=("ffw",), evidence="1989", hop=2)
        t = Trajectory(question="Which magazine was started first, Arthur's "
                                "Magazine or First for Women?",
                       steps=(s1, s2), terminated=True, budget=5)
        assert render_transcript(t, "Arthur's Magazine") == (
            '<THINK> When did the magazine "Arthur\'s Magazine" start?\n'
            "<SEARCH> [1]\n"
            "<RECORD> 1844\n"
            '<THINK> When did the magazine "First for Women" start?\n'
            "<SEARCH> [2]\n"
            "<RECORD> 1989\n"
            "<FINAL> Arthur's Magazine")

    def test_selected_subset_cites_only_selected(self):
        s = step(selected=("b",))
        t = Trajectory(question="q", steps=(s,), terminated=True, budget=1)
        lines = render_transcript(t).splitlines()
        assert lines[1] == "<SEARCH> [2]"

    def test_empty_retrieval_renders_bare_tags(self):
        s = Step(sub_query="q r", retrieved=(), selected=None, evidence="", hop=1)
        t = Trajectory(question="q", steps=(s,), terminated=True, budget=1)
        assert render_transcript(t).splitlines() == ["<THINK> q r", "<SEARCH>", "<RECORD>"]


class TestParse:
    def test_empty_string(self):
        parsed = parse_transcript("")
        assert parsed.steps == () and parsed.answer is None
        assert parsed.skipped_lines == 0

    def test_multihop_good_trace(self):
        parsed = parse_transcript((FIXTURES / "multihop_good_trace.txt").read_text())
        assert len(parsed.steps) == 2
        assert parsed.steps[0].evidence == "Lisa Marie Presley"
        assert parsed.steps[1].evidence == "four"
        assert parsed.steps[0].citations == (0, 2, 3)
        assert parsed.answer == "four"
        assert parsed.skipped_lines > 0  # turn separators and trailing prose

    def test_oversearch_trace_with_repeat_detection(self):
        parsed = parse_transcript((FIXTURES / "oversearch_trace.txt").read_text())
        assert len(parsed.steps) == 7
        assert repeated_subquery_hops(parsed.steps) == (3, 4, 5, 6, 7)
        assert parsed.answer == ("theater director, playwright, film director, "
                                 "producer, screenwriter")

    def test_think_without_payload_is_malformed(self):
        with pytest.raises(MalformedAction):
            parse_transcript("<THINK>\n<SEARCH> [1]\n<RECORD> x")

    def test_rank_without_payload_is_malformed(self):
        with pytest.raises(MalformedAction):
            parse_transcript("<THINK> q\n<SEARCH> [1]\n<RANK>\n<RECORD> x")

    def test_final_spelling_variants(self):
        for tag in ("<FINAL>", "<Final>", "<FINIAL>"):
            parsed = parse_transcript(f"{tag} four")
            assert parsed.answer == "four"

    def test_rank_directive_captured(self):
        parsed = parse_transcript(
            "<THINK> q\n<SEARCH> [1] [2]\n<RANK> [2] > [1]\n<RECORD> x")
        assert parsed.steps[0].rank_directive == "[2] > [1]"

    def test_unknown_lines_counted(self):
        parsed = parse_transcript("hello\n<THINK> q\n<SEARCH> [1]\n<RECORD> x\nbye")
        assert parsed.skipped_lines == 2

    def test_round_trip_100_random_trajectories(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            t, answer = random_trajectory(rng)
            text = render_transcript(t, answer)
            parsed = parse_transcript(text)
            assert render_parsed(parsed) == text
            assert [s.sub_query for s in parsed.steps] == [s.sub_query for s in t.steps]
            assert [s.evidence for s in parsed.steps] == [s.evidence for s in t.steps]
            assert parsed.answer == answer


class TestJsonl:
    def test_weighted_round_trip_50_records(self, tmp_path):
        rng = np.random.default_rng(5)
        items = []
        for i in range(50):
            t, answer = random_trajectory(rng)
            raw = float(-rng.random())
            items.append((f"q{i}/0", WeightedTrajectory(
                trajectory=t, answer=answer, log_weight=raw, weight=1.0,
                weight_mode="posterior-logprob")))
        path = tmp_path / "weighted.jsonl"
        assert write_weighted_jsonl(path, items) == 50
        assert read_weighted_jsonl(path) == items

    def test_empty_file_reads_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_passages_jsonl(path) == []

    def test_missing_question_names_field_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "x", "answers": ["y"]}\n')
        with pytest.raises(SchemaError, match="question") as err:
            read_examples_jsonl(path)
        assert "line 1" in str(err.value)

    def test_unknown_fields_survive_read_then_write(self, tmp_path):
        path = tmp_path / "passages.jsonl"
        record = {"id": "p1", "title": "t", "text": "x", "custom": [1, 2]}
        path.write_text(json.dumps(record) + "\n")
        passages = read_passages_jsonl(path)
        out = tmp_path / "out.jsonl"
        write_passages_jsonl(out, passages)
        assert json.loads(out.read_text()) == record

    def test_examples_round_trip(self, tmp_path):
        examples = [Example(id="e1", question="q", gold_answers=("a", "b"),
                            gold_subqueries=("s1",), gold_evidences=("v1",))]
        path = tmp_path / "ex.jsonl"
        write_examples_jsonl(path, examples)
        assert read_examples_jsonl(path) == examples

    def test_trajectory_records_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        records = []
        for i in range(20):
            t, answer = random_trajectory(rng)
            records.append(TrajectoryRecord(id=f"q{i}/0", trajectory=t, answer=answer))
        path = tmp_path / "trajs.jsonl"
        write_trajectories_jsonl(path, records)
        assert read_trajectories_jsonl(path) == records

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"id": "p", "title": "t", "text": "x"}\nnot json\n')
        with pytest.raises(SchemaError, match="line 2"):
            read_passages_jsonl(path)

    def test_integer_of_5000_digits_raises_schema_error(self, tmp_path):
        path = tmp_path / "trajs.jsonl"
        path.write_text('{"id": "x", "question": "q", "steps": [{"sub_query": "s", '
                        '"evidence": "e", "retrieved": [{"id": "p", "score": '
                        + "1" * 5000 + ', "rank": 1}]}]}\n')
        with pytest.raises(SchemaError, match="line 1: "):
            read_trajectories_jsonl(path)

    @pytest.mark.parametrize("field", ["id", "title", "text"])
    def test_non_string_passage_field_names_line(self, tmp_path, field):
        record = {"id": "p", "title": "t", "text": "x", field: 7}
        path = tmp_path / "passages.jsonl"
        path.write_text('{"id": "q", "title": "t", "text": "y"}\n' + json.dumps(record) + "\n")
        with pytest.raises(SchemaError, match=f"line 2: field '{field}' must be a string"):
            read_passages_jsonl(path)

    @pytest.mark.parametrize("field, value", [
        ("answers", "four"), ("answers", [4]), ("gold_passages", "p1"),
        ("gold_subqueries", [["s"]]), ("gold_evidences", {"e": 1})])
    def test_example_fields_must_be_lists_of_strings(self, tmp_path, field, value):
        record = {"id": "x", "question": "q", "answers": ["a"], field: value}
        path = tmp_path / "examples.jsonl"
        path.write_text('{"id": "y", "question": "q", "answers": ["a"]}\n'
                        + json.dumps(record) + "\n")
        with pytest.raises(SchemaError, match=f"line 2: field '{field}' must be a "
                                              "list of strings"):
            read_examples_jsonl(path)

    def test_weighted_missing_weight_field(self):
        with pytest.raises(SchemaError, match="weight"):
            weighted_from_dict({"id": "x", "question": "q", "steps": []})

    @pytest.mark.parametrize("fault", [
        {"score": {}},
        {"score": "3.5"},
        {"score": True},
        {"score": float("nan")},
        {"rank": float("nan")},
        {"rank": 1.7},
        {"rank": True},
    ], ids=["score-object", "score-string", "score-bool", "score-nan", "rank-nan",
            "rank-fraction", "rank-bool"])
    def test_retrieved_score_and_rank_types_raise_schema_error(self, tmp_path, fault):
        record = {"id": "x", "question": "q", "steps": [
            {"sub_query": "s", "evidence": "e",
             "retrieved": [{"id": "p", "score": 1.0, "rank": 1, **fault}]}]}
        path = tmp_path / "trajs.jsonl"
        path.write_text(json.dumps(record) + "\n")
        field, = fault
        kind = "a finite number" if field == "score" else "an integer"
        with pytest.raises(SchemaError, match=f"line 1: field '{field}' must be {kind}"):
            read_trajectories_jsonl(path)

    @pytest.mark.parametrize("steps, field", [
        ([1], "steps"),
        ("s", "steps"),
        ([{"sub_query": "s", "evidence": "e", "retrieved": [5]}], "retrieved"),
        ([{"sub_query": "s", "evidence": "e", "retrieved": {"id": "p"}}], "retrieved"),
    ], ids=["step-number", "steps-string", "retrieved-number", "retrieved-object"])
    def test_steps_and_retrieved_must_be_lists_of_objects(self, steps, field):
        record = {"id": "x", "question": "q", "steps": steps}
        with pytest.raises(SchemaError, match=f"field '{field}' must be a list of objects"):
            trajectory_record_from_dict(record, 1)
        with pytest.raises(SchemaError, match=f"field '{field}'"):
            weighted_from_dict({**record, "log_weight": 0.0, "weight": 1.0,
                                "weight_mode": "reward-em"}, 1)

    @pytest.mark.parametrize("fault", [{"sub_query": 3}, {"evidence": None},
                                       {"selected": 5}, {"evidence": "a\rb"}])
    def test_other_step_faults_raise_schema_error(self, fault):
        step_record = {"sub_query": "s", "evidence": "e", "retrieved": [], **fault}
        with pytest.raises(SchemaError):
            trajectory_record_from_dict({"id": "x", "question": "q",
                                         "steps": [step_record]}, 1)


class TestLineDiscipline:
    def test_multiline_payloads_rejected(self):
        with pytest.raises(ValueError, match="single-line"):
            step(sub_query="two\nlines")
        with pytest.raises(ValueError, match="single-line"):
            step(evidence="a\nb")

    @pytest.mark.parametrize("boundary", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d",
                                          "\x1e", "\x85", "\u2028", "\u2029"])
    def test_every_line_boundary_of_splitlines_rejected(self, boundary):
        for text in (f"a{boundary}b", f"a{boundary}"):
            with pytest.raises(ValueError, match="single-line"):
                step(sub_query=text)
            with pytest.raises(ValueError, match="single-line"):
                step(evidence=text)

    def test_whitespace_that_is_no_line_boundary_is_kept(self):
        assert step(evidence="a\tb\x1fc\u3000d").evidence == "a\tb\x1fc\u3000d"

    def test_tag_lookalike_payloads_survive_round_trip(self):
        s = step(sub_query="what is <SEARCH> really", evidence="<THINK> not a tag")
        t = Trajectory(question="q", steps=(s,), terminated=True, budget=1)
        text = render_transcript(t, "ans")
        parsed = parse_transcript(text)
        assert parsed.steps[0].sub_query == "what is <SEARCH> really"
        assert parsed.steps[0].evidence == "<THINK> not a tag"
        assert parsed.answer == "ans"


class TestActionScanner:
    """One rule: a tag counts only at the start of a line, after leading
    whitespace; a space after it is optional; the payload is the rest of
    the line, stripped; a tag in mid-line is text."""

    @pytest.mark.parametrize("line, expected", [
        ("<THINK> ent0 rel0", (THINK, "ent0 rel0")),
        ("<THINK>ent0 rel0", (THINK, "ent0 rel0")),
        ("  \t<RECORD>  ent3  ", (RECORD, "ent3")),
        ("<RECORD>", (RECORD, "")),
        ("<SEARCH> [1] [2]", (SEARCH, "[1] [2]")),
        ("<FINIAL>four", (FINAL, "four")),
        ("<Final> four", (FINAL, "four")),
        ("<THINK><SEARCH>", (THINK, "<SEARCH>")),
        ("I will <THINK> q", None),
        ("<think> q", None),
        ("", None),
    ])
    def test_match_tag(self, line, expected):
        assert match_tag(line) == expected

    def test_iter_actions_splits_as_splitlines_does(self):
        text = "<THINK> a\r\n<SEARCH>\rnote <RECORD> x\x85<RECORD>b\u2028<FINAL>"
        assert list(iter_actions(text)) == [
            (THINK, "a"), (SEARCH, ""), (RECORD, "b"), (FINAL, "")]

    def test_read_citations(self):
        assert read_citations("[2] > [10]>[1] and [x] or [3") == (2, 10, 1)
        assert read_citations("") == ()

    @pytest.mark.parametrize("name", ["THINK", "SEARCH", "RECORD", "RANK", "FINAL",
                                      "FINAL_VARIANTS", "match_tag", "iter_actions",
                                      "read_citations"])
    def test_trajectory_names_are_the_grammar_module_objects(self, name):
        assert getattr(trajectory, name) is getattr(grammar, name)

    def test_no_space_after_the_tag_parses(self):
        parsed = parse_transcript("<THINK>ent0 rel0\n<SEARCH>[1][2]\n<RECORD>ent3\n"
                                  "<FINAL>ent3")
        assert parsed.steps == (ParsedStep("ent0 rel0", (1, 2), "ent3"),)
        assert parsed.answer == "ent3" and parsed.skipped_lines == 0

    def test_tag_in_mid_line_is_text(self):
        parsed = parse_transcript("so <THINK> q\n<THINK> r\n<SEARCH> [1]\n"
                                  "then <RECORD> x\n<RECORD> y")
        assert parsed.steps == (ParsedStep("r", (1,), "y"),)
        assert parsed.skipped_lines == 2

    def test_empty_record_records_empty_evidence(self):
        parsed = parse_transcript("<THINK> q\n<SEARCH>\n<RECORD>\n<FINAL> a")
        assert parsed.steps == (ParsedStep("q", (), ""),) and parsed.answer == "a"

    def test_crlf_output_parses_as_lf(self):
        text = "<THINK> q\n<SEARCH> [1]\n<RECORD> x\n<FINAL> a"
        assert parse_transcript(text.replace("\n", "\r\n")) == parse_transcript(text)

    def test_whitespace_only_think_is_malformed(self):
        with pytest.raises(MalformedAction):
            parse_transcript("<THINK> \t\n<SEARCH> [1]\n<RECORD> x")


# Payload pieces from the grammar's own alphabet: tags, citations, the
# "Output:" marker and whitespace that is not a line boundary.
_PIECES = st.sampled_from(["<THINK>", "<SEARCH>", "<RECORD>", "<RANK>", "<FINAL>", "<Final>",
                           "<FINIAL>", "[1]", "[23]", "[", "]", ">", "Output:", "ent7", "rel2",
                           " ", "  ", "\t", "\x1f", "\u3000", "é"])
_PAYLOADS = st.lists(_PIECES, max_size=6).map("".join)


@st.composite
def _grammar_trajectories(draw):
    steps = []
    for hop in range(1, draw(st.integers(0, 3)) + 1):
        n_docs = draw(st.integers(0, 3))
        retrieved = tuple(ScoredPassage(f"p{hop}-{i}", float(n_docs - i), i)
                          for i in range(1, n_docs + 1))
        selected = None
        if retrieved and draw(st.booleans()):
            selected = tuple(draw(st.permutations([sp.passage_ref for sp in retrieved]))
                             [:draw(st.integers(1, n_docs))])
        steps.append(Step(sub_query=draw(_PAYLOADS.filter(str.strip)), retrieved=retrieved,
                          selected=selected, evidence=draw(_PAYLOADS), hop=hop))
    trajectory = Trajectory(question="q", steps=tuple(steps), terminated=True,
                            budget=max(1, len(steps)))
    return trajectory, draw(st.none() | _PAYLOADS)


@settings(max_examples=300, deadline=None)
@given(_grammar_trajectories())
def test_parse_recovers_what_render_wrote(drawn):
    trajectory, answer = drawn
    parsed = parse_transcript(render_transcript(trajectory, answer))
    assert [(s.sub_query, s.citations, s.evidence) for s in parsed.steps] == [
        (s.sub_query.strip(), step_citations(s), s.evidence.strip())
        for s in trajectory.steps]
    assert parsed.answer == (None if answer is None else answer.strip())
    assert parsed.skipped_lines == 0


# --- reader fuzz: one field of a valid record replaced or deleted -----------

_PASSAGE = {"id": "p1", "title": "t", "text": "alpha", "source": "wiki"}
_EXAMPLE = {"id": "e1", "question": "q", "answers": ["a"], "gold_passages": ["p1"],
            "gold_subqueries": ["s"], "gold_evidences": ["v"], "split": "dev"}
_TRAJECTORY = {"id": "e1/0", "question": "q", "steps": [
    {"sub_query": "s", "retrieved": [{"id": "p1", "score": 2.0, "rank": 1},
                                     {"id": "p2", "score": 1, "rank": 2}],
     "selected": ["p2"], "evidence": "v"}], "answer": "a", "budget": 2, "terminated": True}
_WEIGHTED = {**_TRAJECTORY, "log_weight": -0.5, "weight": 1.0, "weight_mode": "reward-em"}
_PREDICTION = {"id": "e1", "answer": "a"}
_PARAMS = {"think_logits": [[0.5, -1.0, 2.0], [0, 1, 0]], "record_logits": [0.25, -1],
           "answer_logits": [1.0, -1.0], "temperature": 1.0, "version": 1}
_WORLD = {"entities": ["e0", "e1", "e2"], "relations": ["r0", "r1"],
          "facts": [["e0", "r0", "e1"], ["e1", "r1", "e2"]], "hop_count": 2, "seed": 7}


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "records.jsonl"


def _read(reader, path, record, error=SchemaError):
    """``reader``'s result on a file holding ``record``, or None when it
    raises ``error``; any other exception fails the test."""
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    try:
        return reader(path)
    except error:
        return None


def _strings(value):
    return type(value) is tuple and all(type(v) is str for v in value)


def _finite_float(value):
    return type(value) is float and math.isfinite(value)


def _assert_trajectory(t):
    assert type(t.question) is str and type(t.terminated) is bool
    assert type(t.budget) is int and len(t.steps) <= t.budget
    for s in t.steps:
        assert type(s.sub_query) is str and type(s.evidence) is str
        assert s.selected is None or _strings(s.selected)
        for sp in s.retrieved:
            assert type(sp.passage_ref) is str and type(sp.rank) is int
            assert _finite_float(sp.score)


class TestReaderFuzz:
    """Each JSONL reader returns fields of their documented types or raises
    SchemaError, and each JSON-file reader does or raises MalformedFile,
    whatever one field or list item of a valid record holds."""

    @settings(max_examples=150, deadline=None)
    @given(mutated(_PASSAGE))
    def test_passages(self, fuzz_file, record):
        for p in _read(read_passages_jsonl, fuzz_file, record) or ():
            assert type(p.id) is str and type(p.title) is str and type(p.text) is str
            assert type(p.extras) is dict

    @settings(max_examples=150, deadline=None)
    @given(mutated(_EXAMPLE))
    def test_examples(self, fuzz_file, record):
        for e in _read(read_examples_jsonl, fuzz_file, record) or ():
            assert type(e.id) is str and type(e.question) is str and _strings(e.gold_answers)
            for golds in (e.gold_passages, e.gold_subqueries, e.gold_evidences):
                assert golds is None or _strings(golds)

    @settings(max_examples=300, deadline=None)
    @given(mutated(_TRAJECTORY))
    def test_trajectories(self, fuzz_file, record):
        for rec in _read(read_trajectories_jsonl, fuzz_file, record) or ():
            assert type(rec.id) is str and (rec.answer is None or type(rec.answer) is str)
            _assert_trajectory(rec.trajectory)

    @settings(max_examples=300, deadline=None)
    @given(mutated(_WEIGHTED))
    def test_weighted(self, fuzz_file, record):
        for rec_id, wt in _read(read_weighted_jsonl, fuzz_file, record) or ():
            assert type(rec_id) is str and type(wt.answer) is str
            assert _finite_float(wt.log_weight) and _finite_float(wt.weight)
            assert wt.weight_mode in WEIGHT_MODES
            _assert_trajectory(wt.trajectory)

    @settings(max_examples=60, deadline=None)
    @given(mutated(_PREDICTION))
    def test_predictions(self, fuzz_file, record):
        for pred_id, answer in (_read(read_predictions_jsonl, fuzz_file, record) or {}).items():
            assert type(pred_id) is str and type(answer) is str

    @settings(max_examples=200, deadline=None)
    @given(mutated(_PARAMS))
    def test_params(self, fuzz_file, record):
        params = _read(TabularPolicyParams.load, fuzz_file, record, MalformedFile)
        if params is not None:
            for logits, ndim in ((params.think_logits, 2), (params.record_logits, 1),
                                 (params.answer_logits, 1)):
                assert logits.dtype == np.float64 and logits.ndim == ndim
                assert np.isfinite(logits).all()
            assert params.answer_logits.shape == (2,)

    @settings(max_examples=200, deadline=None)
    @given(mutated(_WORLD))
    def test_world(self, fuzz_file, record):
        world = _read(load_world, fuzz_file, record, MalformedFile)
        if world is not None:
            assert _strings(world.entities) and _strings(world.relations)
            assert type(world.facts) is tuple
            assert all(_strings(fact) and len(fact) == 3 for fact in world.facts)
            assert type(world.hop_count) is int and type(world.seed) is int
