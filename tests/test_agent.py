import numpy as np
import pytest

from conftest import chain_following_policy, chain_world, tiny_wiki_corpus, uniform_policy
from exsearch.agent import AgentConfig, episode_rng, parse_rank_directive, rank_documents, run_episode
from exsearch.llm import ChatPolicy, EndpointConfig, HttpChatClient
from exsearch.retrieval import Retriever, build_index
from exsearch.stub import ChainOracleBehavior, ScriptedBehavior, StubChatServer
from exsearch.synth import SyntheticWorld, render_corpus
from exsearch.trajectory import Passage, Trajectory, parse_transcript, render_transcript


class TestRankDirectiveParsing:
    IDS = ["a", "b", "c"]

    # (directive, m, expected) — drop rules plus top-m fallback fill
    CASES = [
        ("[2] > [1] > [3]", 2, ["b", "a"]),
        ("[2] > [1] > [3]", 3, ["b", "a", "c"]),
        ("[9] > [1]", 2, ["a", "b"]),
        ("", 2, ["a", "b"]),
        ("no brackets at all", 3, ["a", "b", "c"]),
        ("[1] > [1] > [2]", 2, ["a", "b"]),
        ("[0] > [3]", 2, ["c", "a"]),
        ("[3]", 1, ["c"]),
        ("[3] [2] [1]", 3, ["c", "b", "a"]),
        ("[2]>[3]>[1]", 3, ["b", "c", "a"]),
        ("[4] [5]", 2, ["a", "b"]),
        ("[1] and then maybe [42] or [2]", 3, ["a", "b", "c"]),
    ]

    @pytest.mark.parametrize("directive,m,expected", CASES)
    def test_table(self, directive, m, expected):
        assert parse_rank_directive(directive, self.IDS, m) == expected

    def test_m_larger_than_pool(self):
        assert parse_rank_directive("[2]", ["a", "b"], 5) == ["b", "a"]

    def test_rank_documents_uses_policy_directive(self):
        class Ranker:
            def rank_directive(self, sub_query, documents):
                return "[2] > [1]"

        docs = [Passage(id=i, title=i, text=f"s r {i}") for i in ("a", "b", "c")]
        assert rank_documents(Ranker(), "q", docs, 2) == ["b", "a"]


def two_hop_rig():
    world = SyntheticWorld(
        entities=("A", "B", "C", "D"),
        relations=("r1", "r2"),
        facts=(("A", "r1", "B"), ("B", "r2", "C"), ("A", "r2", "D"),
               ("D", "r1", "C")),
        hop_count=2, seed=0)
    return world, Retriever(build_index(render_corpus(world)))


class TestAgentConfig:
    @pytest.mark.parametrize("field, value", [
        ("budget", 2.5), ("k", True), ("rerank", "yes"), ("rerank_keep", "3"),
        ("dedup_subqueries", 1),
    ])
    def test_rejects_ill_typed_values(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            AgentConfig(**{field: value})


class TestRunEpisode:
    def test_follows_two_hop_chain(self):
        world, retriever = two_hop_rig()
        policy = chain_following_policy(world, ("r1", "r2"), budget=2, k=2)
        result = run_episode("A r1 r2", policy, retriever, AgentConfig(budget=2, k=2),
                             np.random.default_rng(0))
        assert [s.evidence for s in result.trajectory.steps] == ["B", "C"]
        assert result.answer == "C"
        assert result.trajectory.terminated

    def test_immediate_stop_answers_from_empty_trajectory(self):
        world, retriever = two_hop_rig()
        policy = chain_following_policy(world, (), budget=2, k=2)  # STOP at hop 1
        result = run_episode("A r1 r2", policy, retriever, AgentConfig(budget=2, k=2),
                             np.random.default_rng(0))
        assert result.trajectory.steps == ()
        assert result.answer == ""  # copy head over an empty trajectory

    def test_budget_bounds_never_stopping_policy(self):
        world, retriever = two_hop_rig()
        policy = chain_following_policy(world, ("r1",) * 10, budget=10, k=2)
        for budget in (1, 2, 3):
            result = run_episode("A r1", policy, retriever,
                                 AgentConfig(budget=budget, k=2),
                                 np.random.default_rng(0))
            assert len(result.trajectory.steps) <= budget
            assert result.trajectory.terminated

    def test_empty_retrieval_records_empty_evidence_and_continues(self):
        world, retriever = two_hop_rig()

        class OffCorpusPolicy:
            def __init__(self):
                self.hops = 0

            def start(self, question):
                return self

            def propose_subquery(self, history, rng):
                self.hops += 1
                return f"zzz{self.hops} qqq"

            def extract_evidence(self, documents, rng):
                raise AssertionError("must not be called without documents")

            def answer(self, trajectory, rng):
                return "done"

            def score_answer(self, question, trajectory, y):
                return 0.0

        result = run_episode("A r1", OffCorpusPolicy(), retriever,
                             AgentConfig(budget=3, k=2), np.random.default_rng(0))
        assert len(result.trajectory.steps) == 3
        assert all(s.evidence == "" and s.retrieved == () for s in result.trajectory.steps)

    def test_dedup_forces_termination_on_repeat(self):
        world, retriever = two_hop_rig()

        class RepeatPolicy:
            def start(self, question):
                return self

            def propose_subquery(self, history, rng):
                return "A r1"

            def extract_evidence(self, documents, rng):
                return "B"

            def answer(self, trajectory, rng):
                return "B"

            def score_answer(self, question, trajectory, y):
                return 0.0

        with_dedup = run_episode("A r1", RepeatPolicy(), retriever,
                                 AgentConfig(budget=5, k=2, dedup_subqueries=True),
                                 np.random.default_rng(0))
        assert len(with_dedup.trajectory.steps) == 1
        without = run_episode("A r1", RepeatPolicy(), retriever,
                              AgentConfig(budget=5, k=2), np.random.default_rng(0))
        assert len(without.trajectory.steps) == 5

    def test_rerank_populates_selected_subset(self):
        world, retriever = two_hop_rig()
        policy = chain_following_policy(world, ("r1", "r2"), budget=2, k=2)
        config = AgentConfig(budget=2, k=2, rerank=True, rerank_keep=1)
        result = run_episode("A r1 r2", policy, retriever, config,
                             np.random.default_rng(0))
        for step in result.trajectory.steps:
            assert step.selected is not None
            assert len(step.selected) <= 1
            assert set(step.selected) <= {sp.passage_ref for sp in step.retrieved}
        assert result.answer == "C"

    def test_rerank_off_leaves_selected_absent(self):
        world, retriever = two_hop_rig()
        policy = chain_following_policy(world, ("r1", "r2"), budget=2, k=2)
        result = run_episode("A r1 r2", policy, retriever, AgentConfig(budget=2, k=2),
                             np.random.default_rng(0))
        assert all(s.selected is None for s in result.trajectory.steps)

    def test_replay_determinism_same_seed_same_trajectory(self):
        world, questions, retriever = chain_world(seed=4, density=1.0)
        policy = uniform_policy(world, budget=2, k=3)
        config = AgentConfig(budget=2, k=3)
        for ex in questions[:3]:
            rng_a = episode_rng(7, ex.id, 0)
            rng_b = episode_rng(7, ex.id, 0)
            first = run_episode(ex.question, policy, retriever, config, rng_a)
            second = run_episode(ex.question, policy, retriever, config, rng_b)
            assert first == second

    def test_distinct_sample_indices_give_distinct_streams(self):
        a = episode_rng(0, "q1", 0).integers(0, 1 << 30, size=4)
        b = episode_rng(0, "q1", 1).integers(0, 1 << 30, size=4)
        assert not np.array_equal(a, b)


NAVARONE_SCRIPT = [
    "<THINK> Who is Navarone Garibaldi's half-brother?\n",
    "<RECORD> Lisa Marie Presley\n<THINK> How many times has Lisa Marie Presley been married?\n",
    "<RECORD> four\n",
    " four",
]


class TestScriptedChatEpisode:
    def test_replayed_trace_parses_into_two_steps(self):
        retriever = Retriever(build_index(tiny_wiki_corpus()))
        with StubChatServer(ScriptedBehavior(list(NAVARONE_SCRIPT))) as server:
            config = EndpointConfig(base_url=server.base_url, model_name="stub",
                                    backoff_base=0.01)
            policy = ChatPolicy(HttpChatClient(config))
            result = run_episode(
                "Navarone Garibaldi is the half-brother of a singer who has "
                "been married how many times?",
                policy, retriever, AgentConfig(budget=5, k=2),
                np.random.default_rng(0))
        assert len(result.trajectory.steps) == 2
        assert result.trajectory.steps[0].evidence == "Lisa Marie Presley"
        assert result.trajectory.steps[1].evidence == "four"
        assert result.answer == "four"


def scripted_episode(server):
    config = EndpointConfig(base_url=server.base_url, model_name="stub", backoff_base=0.01)
    return ChatPolicy(HttpChatClient(config)).start("q")


class TestChatEpisodeReadsTheGrammar:
    """A chat episode reads each generation with the transcript scanner: a
    tag counts only at the start of a line, and a <THINK> without a payload
    is no sub-query."""

    NO_HISTORY = Trajectory(question="q", steps=(), terminated=False, budget=3)
    DOCS = [Passage(id="p1", title="T", text="body")]

    @pytest.mark.parametrize("generation, sub_query", [
        ("<THINK>ent0 rel0\n", "ent0 rel0"),
        ("<THINK> a\n<THINK> b\n", "b"),
        ("<THINK> a\n<THINK> \n", "a"),
        ("<THINK> q\r\n", "q"),
        ("<THINK> a\rb\n", "a"),
        ("I will <THINK> q\n", None),
        ("<THINK> \t", None),
    ], ids=["no-space", "two-thinks", "last-with-payload", "crlf", "carriage-return",
            "mid-line", "whitespace-only"])
    def test_propose_subquery(self, generation, sub_query):
        with StubChatServer(ScriptedBehavior([generation])) as server:
            episode = scripted_episode(server)
            assert episode.propose_subquery(self.NO_HISTORY, None) == sub_query
        assert episode.finalizing == (sub_query is None)

    @pytest.mark.parametrize("generation, evidence, pending", [
        ("<RECORD>x\n<THINK>r\n", "x", "r"),
        ("<RECORD>\n<THINK> r\n", "", "r"),
        ("<RECORD> x\n<RECORD> y\n", "x", None),
        ("so <RECORD> x\n<THINK> r\n", "", "r"),
        ("<RECORD> x\r\n<THINK> r\r\n", "x", "r"),
        ("<RECORD> x\n<THINK> a\n<THINK> \t", "x", "a"),
        ("<RECORD> x\n<THINK> \t", "x", None),
    ], ids=["no-space", "empty-record", "first-record", "mid-line", "crlf",
            "last-think-with-payload", "whitespace-only-think"])
    def test_extract_evidence(self, generation, evidence, pending):
        with StubChatServer(ScriptedBehavior([generation])) as server:
            episode = scripted_episode(server)
            assert episode.extract_evidence(self.DOCS, None) == evidence
        assert episode.pending_think == pending
        assert episode.finalizing == (pending is None)

    def test_whitespace_only_think_finalizes_instead_of_searching_nothing(self):
        retriever = Retriever(build_index(tiny_wiki_corpus()))
        with StubChatServer(ScriptedBehavior(["<THINK> \t", " four"])) as server:
            config = EndpointConfig(base_url=server.base_url, model_name="stub",
                                    backoff_base=0.01, max_retries=0)
            result = run_episode("q", ChatPolicy(HttpChatClient(config)), retriever,
                                 AgentConfig(budget=3, k=2), np.random.default_rng(0))
        assert result.trajectory.steps == () and result.answer == "four"
        parsed = parse_transcript(render_transcript(result.trajectory, result.answer))
        assert parsed.steps == () and parsed.answer == "four"


def test_chain_oracle_reads_its_partial_through_the_scanner():
    partial = ("<THINK>ent1 rel0\r\n<SEARCH> [1] Title: t. Content: ent1 rel0 ent4\r\n"
               "<RECORD>ent4\r\nnote <RECORD> ent9\n<FINAL>")
    request = {"messages": [{"role": "user", "content": "<USER QUERY> ent1 rel0"},
                            {"role": "assistant", "content": partial}], "stop": ["\n"]}
    status, body = ChainOracleBehavior()(request)
    assert status == 200 and body["choices"][0]["message"]["content"] == " ent4"
