import csv
import json
import subprocess
import sys
import zlib

import pytest

from exsearch import synth, trajectory
from exsearch.cli import main
from exsearch.policy import TabularPolicyParams
from exsearch.retrieval import INDEX_FILENAME, INDEX_MAGIC
from exsearch.stub import ChainOracleBehavior, StubChatServer
from exsearch.trajectory import FINAL


def run_cli(*args):
    """Invoke the CLI in a subprocess so exit codes and streams are real."""
    return subprocess.run([sys.executable, "-m", "exsearch.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    code = main(["synth-world", "--entities", "20", "--relations", "3",
                 "--hops", "2", "--density", "1.0", "--questions", "10",
                 "--align-relations", "--distinct-nodes",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    return out


class TestSynthWorldCommand:
    def test_outputs_exist_and_are_valid(self, world_dir):
        world = synth.load_world(world_dir / "world.json")
        corpus = trajectory.read_passages_jsonl(world_dir / "corpus.jsonl")
        examples = trajectory.read_examples_jsonl(world_dir / "examples.jsonl")
        assert len(corpus) == len(world.facts)
        assert len(examples) == 10

    def test_deterministic_under_seed(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["synth-world", "--entities", "10", "--relations", "2",
                         "--hops", "1", "--density", "0.8", "--questions", "4",
                         "--seed", "9", "--out", str(tmp_path / sub)]) == 0
        a = (tmp_path / "a" / "corpus.jsonl").read_bytes()
        b = (tmp_path / "b" / "corpus.jsonl").read_bytes()
        assert a == b

    def test_aligned_questions_on_default_world_exit_2(self, tmp_path):
        # density 0.5 and 20 questions: too few matching chains
        result = run_cli("synth-world", "--align-relations", "--distinct-nodes",
                         "--out", str(tmp_path / "w"))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("exsearch: error: InfeasibleWorld: ")


class TestIngest:
    def test_summary_line(self, world_dir, tmp_path, capsys):
        assert main(["ingest", "--corpus", str(world_dir / "corpus.jsonl"),
                     "--index", str(tmp_path / "idx")]) == 0
        out = capsys.readouterr().out
        assert "indexed" in out and "passages" in out

    def test_duplicate_id_exits_2(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "x", "title": "t", "text": "a"}\n'
                          '{"id": "x", "title": "t", "text": "b"}\n')
        result = run_cli("ingest", "--corpus", str(corpus),
                         "--index", str(tmp_path / "idx"))
        assert result.returncode == 2
        assert "DuplicateId" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_reingest_gives_identical_results(self, world_dir, tmp_path):
        for sub in ("i1", "i2"):
            assert main(["ingest", "--corpus", str(world_dir / "corpus.jsonl"),
                         "--index", str(tmp_path / sub)]) == 0
        from exsearch.retrieval import load_index, search
        a = load_index(tmp_path / "i1")
        b = load_index(tmp_path / "i2")
        for q in ("ent0 rel0", "ent3 rel1", "ent5"):
            assert search(a, q, 5) == search(b, q, 5)


class TestUsageErrors:
    def test_unknown_policy_name(self, world_dir):
        result = run_cli("ask", "--question", "q", "--policy", "wizard",
                         "--world", str(world_dir / "world.json"))
        assert result.returncode == 1

    def test_missing_required_flag(self):
        result = run_cli("ingest", "--corpus", "x.jsonl")
        assert result.returncode == 1

    def test_tabular_without_world(self):
        result = run_cli("ask", "--question", "q", "--policy", "tabular")
        assert result.returncode == 1
        assert "UsageError" in result.stderr


class TestTrainAndAsk:
    def test_train_then_ask_reaches_gold(self, world_dir, tmp_path, capsys):
        world = synth.load_world(world_dir / "world.json")
        examples = trajectory.read_examples_jsonl(world_dir / "examples.jsonl")
        params = tmp_path / "params.json"
        history = tmp_path / "history.csv"
        assert main(["train", "--world", str(world_dir / "world.json"),
                     "--examples", str(world_dir / "examples.jsonl"),
                     "--mode", "exact", "--iterations", "12", "--patience", "0",
                     "--budget", "2", "--k", "3",
                     "--params-out", str(params), "--history", str(history),
                     "--seed", "0"]) == 0
        capsys.readouterr()

        with open(history) as fh:
            rows = list(csv.DictReader(fh))
        logliks = [float(r["train_loglik"]) for r in rows]
        assert all(b - a >= -1e-9 for a, b in zip(logliks, logliks[1:]))

        # ask with the trained policy on a training question
        ex = examples[0]
        assert main(["ask", "--question", ex.question, "--policy", "tabular",
                     "--world", str(world_dir / "world.json"),
                     "--params", str(params), "--budget", "2", "--k", "3",
                     "--seed", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answer"] == ex.gold_answers[0]
        assert "<FINAL>" in payload["transcript"]

    def test_train_json_prints_one_document(self, world_dir, tmp_path, capsys):
        params, history = tmp_path / "params.json", tmp_path / "history.csv"
        assert main(["train", "--world", str(world_dir / "world.json"),
                     "--examples", str(world_dir / "examples.jsonl"),
                     "--iterations", "2", "--patience", "0", "--budget", "2",
                     "--k", "3", "--params-out", str(params),
                     "--history", str(history), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "iterations": 2, "params": str(params), "history": str(history),
            "failures": [0, 0]}

    def test_sampled_train_is_unchanged_by_jobs(self, world_dir, tmp_path, capsys):
        for jobs in ("1", "4"):
            assert main(["train", "--world", str(world_dir / "world.json"),
                         "--examples", str(world_dir / "examples.jsonl"),
                         "--mode", "sampled", "--samples", "3", "--iterations", "3",
                         "--patience", "0", "--budget", "2", "--k", "3",
                         "--seed", "5", "--jobs", jobs,
                         "--params-out", str(tmp_path / f"params{jobs}.json"),
                         "--history", str(tmp_path / f"history{jobs}.csv")]) == 0
        capsys.readouterr()
        assert ((tmp_path / "params4.json").read_bytes()
                == (tmp_path / "params1.json").read_bytes())
        histories = []
        for jobs in ("1", "4"):
            with open(tmp_path / f"history{jobs}.csv") as fh:
                histories.append([{k: v for k, v in row.items() if k != "wall_time"}
                                  for row in csv.DictReader(fh)])
        assert len(histories[0]) == 3
        assert histories[1] == histories[0]

    def train(self, world_dir, tmp_path, name, *flags):
        return main(["train", "--world", str(world_dir / "world.json"),
                     "--examples", str(world_dir / "examples.jsonl"),
                     "--budget", "2", "--k", "3", "--patience", "0",
                     "--params-out", str(tmp_path / f"{name}.json"),
                     "--history", str(tmp_path / f"{name}.csv"), *flags])

    def test_exact_train_resumes_from_params_in(self, world_dir, tmp_path, capsys):
        assert self.train(world_dir, tmp_path, "two", "--iterations", "2") == 0
        assert self.train(world_dir, tmp_path, "one", "--iterations", "1") == 0
        assert self.train(world_dir, tmp_path, "resumed", "--iterations", "1",
                          "--params-in", str(tmp_path / "one.json")) == 0
        capsys.readouterr()
        assert ((tmp_path / "resumed.json").read_bytes()
                == (tmp_path / "two.json").read_bytes())

    def test_exact_train_applies_rerank(self, world_dir, tmp_path, capsys):
        # Keeping one selected document per hop is a different process from
        # recording among all three retrieved ones, so exact training on it
        # must learn different parameters.
        assert self.train(world_dir, tmp_path, "plain", "--mode", "exact") == 0
        assert self.train(world_dir, tmp_path, "reranked", "--mode", "exact",
                          "--rerank", "--rerank-keep", "1") == 0
        capsys.readouterr()
        assert ((tmp_path / "reranked.json").read_bytes()
                != (tmp_path / "plain.json").read_bytes())

    def test_exact_train_rejects_dedup(self, world_dir, tmp_path, capsys):
        assert self.train(world_dir, tmp_path, "dedup", "--mode", "exact",
                          "--dedup") == 1
        err = capsys.readouterr().err
        assert err.startswith("exsearch: error: ValueError: ") and "dedup" in err
        assert not (tmp_path / "dedup.json").exists()

    def test_ask_with_scripted_llm_stub_matches_fixture(self, tmp_path, capsys,
                                                        monkeypatch):
        corpus = tmp_path / "corpus.jsonl"
        trajectory.write_passages_jsonl(corpus, _wiki_passages())
        index_dir = tmp_path / "idx"
        assert main(["ingest", "--corpus", str(corpus), "--index", str(index_dir)]) == 0
        capsys.readouterr()
        script = [
            "<THINK> Who is Navarone Garibaldi's half-brother?\n",
            "<RECORD> Lisa Marie Presley\n"
            "<THINK> How many times has Lisa Marie Presley been married?\n",
            "<RECORD> four\n",
            " four",
        ]
        from exsearch.stub import ScriptedBehavior
        with StubChatServer(ScriptedBehavior(script)) as server:
            config = tmp_path / "engine.json"
            config.write_text(json.dumps({
                "llm": {"base_url": server.base_url, "model_name": "stub",
                        "backoff_base": 0.01},
                "retriever": {"index": str(index_dir), "k": 2},
            }))
            assert main(["ask", "--question",
                         "Navarone Garibaldi is the half-brother of a singer who "
                         "has been married how many times?",
                         "--policy", "llm", "--config", str(config),
                         "--budget", "5", "--k", "2"]) == 0
        out = capsys.readouterr().out
        expected = (
            "<THINK> Who is Navarone Garibaldi's half-brother?\n"
            "<SEARCH> [1] [2]\n"
            "<RECORD> Lisa Marie Presley\n"
            "<THINK> How many times has Lisa Marie Presley been married?\n"
            "<SEARCH> [1] [2]\n"
            "<RECORD> four\n"
            "<FINAL> four\n")
        assert out == expected


def _wiki_passages():
    from conftest import tiny_wiki_corpus
    return tiny_wiki_corpus()


class TestWeighAndEval:
    def test_weigh_reward_em_pattern(self, tmp_path, capsys):
        examples = [trajectory.Example(id="e1", question="q", gold_answers=("four",))]
        trajectory.write_examples_jsonl(tmp_path / "ex.jsonl", examples)
        t = trajectory.Trajectory(question="q", steps=(), terminated=True, budget=1)
        records = [trajectory.TrajectoryRecord(id="e1/0", trajectory=t, answer="four"),
                   trajectory.TrajectoryRecord(id="e1/1", trajectory=t, answer="five")]
        trajectory.write_trajectories_jsonl(tmp_path / "trajs.jsonl", records)
        assert main(["weigh", "--trajectories", str(tmp_path / "trajs.jsonl"),
                     "--examples", str(tmp_path / "ex.jsonl"),
                     "--mode", "reward-em", "--out", str(tmp_path / "w.jsonl")]) == 0
        capsys.readouterr()
        weighted = trajectory.read_weighted_jsonl(tmp_path / "w.jsonl")
        raws = [wt.log_weight for _i, wt in weighted]
        weights = [wt.weight for _i, wt in weighted]
        assert raws == [1.0, 0.0]
        from exsearch.policy import softmax
        assert weights == pytest.approx(list(softmax([1.0, 0.0])))

    def test_eval_all_correct_fixture(self, tmp_path, capsys):
        examples = [trajectory.Example(id=f"e{i}", question="q",
                                       gold_answers=(f"ans{i}",)) for i in range(3)]
        trajectory.write_examples_jsonl(tmp_path / "ds.jsonl", examples)
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(json.dumps({"id": f"e{i}", "answer": f"ans{i}"}) + "\n"
                                 for i in range(3)))
        assert main(["eval", "--predictions", str(preds),
                     "--dataset", str(tmp_path / "ds.jsonl"), "--json",
                     "--csv", str(tmp_path / "per.csv")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["em"] == payload["f1"] == payload["acc"] == 1.0
        with open(tmp_path / "per.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 and all(float(r["em"]) == 1.0 for r in rows)


class TestPipelineComposition:
    def test_explore_weigh_export_with_oracle_stub(self, tmp_path, capsys):
        out = tmp_path / "world"
        assert main(["synth-world", "--entities", "15", "--relations", "2",
                     "--hops", "2", "--density", "1.0", "--questions", "6",
                     "--seed", "4", "--out", str(out)]) == 0
        index_dir = tmp_path / "idx"
        assert main(["ingest", "--corpus", str(out / "corpus.jsonl"),
                     "--index", str(index_dir)]) == 0
        with StubChatServer(ChainOracleBehavior()) as server:
            config = tmp_path / "engine.json"
            config.write_text(json.dumps({
                "llm": {"base_url": server.base_url, "model_name": "stub",
                        "backoff_base": 0.01},
                "retriever": {"index": str(index_dir), "k": 3},
            }))
            for jobs in ("1", "4"):
                assert main(["explore", "--examples", str(out / "examples.jsonl"),
                             "--policy", "llm", "--config", str(config),
                             "--samples", "2", "--budget", "3", "--jobs", jobs,
                             "--out", str(tmp_path / f"trajs{jobs}.jsonl")]) == 0
        # one shared chat policy, per-episode sessions: threads change nothing
        assert ((tmp_path / "trajs4.jsonl").read_bytes()
                == (tmp_path / "trajs1.jsonl").read_bytes())
        assert main(["weigh", "--trajectories", str(tmp_path / "trajs1.jsonl"),
                     "--examples", str(out / "examples.jsonl"),
                     "--mode", "reward-em", "--out", str(tmp_path / "w.jsonl")]) == 0
        assert main(["export-sft", "--weighted", str(tmp_path / "w.jsonl"),
                     "--examples", str(out / "examples.jsonl"),
                     "--out", str(tmp_path / "sft.jsonl")]) == 0
        capsys.readouterr()
        records = [json.loads(line)
                   for line in (tmp_path / "sft.jsonl").read_text().splitlines()]
        assert len(records) == 12
        sums: dict[str, float] = {}
        for rec in records:
            sums.setdefault(rec["id"].rsplit("/", 1)[0], 0.0)
            sums[rec["id"].rsplit("/", 1)[0]] += rec["weight"]
        for total in sums.values():
            assert total == pytest.approx(1.0, abs=1e-9)
        # the oracle stub follows gold chains, so exported answers match golds
        examples = trajectory.read_examples_jsonl(out / "examples.jsonl")
        golds = {ex.id: ex.gold_answers[0] for ex in examples}
        correct = sum(1 for rec in records
                      if rec["answer"] == golds[rec["id"].rsplit("/", 1)[0]])
        assert correct == len(records)


    def test_sft_records_carry_the_policys_prompt(self, tmp_path, capsys):
        """export-sft and warmup-format write the system and user turns the
        chat policy generated under, and answer scoring conditions on the
        answer prefix the policy generated its answer after."""
        out, index_dir = tmp_path / "world", tmp_path / "idx"
        assert main(["synth-world", "--entities", "15", "--relations", "2",
                     "--hops", "2", "--density", "1.0", "--questions", "4",
                     "--seed", "4", "--out", str(out)]) == 0
        assert main(["ingest", "--corpus", str(out / "corpus.jsonl"),
                     "--index", str(index_dir)]) == 0
        examples = trajectory.read_examples_jsonl(out / "examples.jsonl")
        requests = []
        oracle = ChainOracleBehavior()

        def logged(request):
            requests.append(request)
            return oracle(request)

        with StubChatServer(logged) as server:
            config = tmp_path / "engine.json"
            config.write_text(json.dumps({
                "llm": {"base_url": server.base_url, "model_name": "stub",
                        "backoff_base": 0.01},
                "retriever": {"index": str(index_dir)}}))
            assert main(["explore", "--examples", str(out / "examples.jsonl"),
                         "--policy", "llm", "--config", str(config),
                         "--samples", "2", "--budget", "3",
                         "--out", str(tmp_path / "trajs.jsonl")]) == 0
            generated = list(requests)
            assert main(["weigh", "--trajectories", str(tmp_path / "trajs.jsonl"),
                         "--examples", str(out / "examples.jsonl"),
                         "--mode", "posterior-logprob", "--policy", "llm",
                         "--config", str(config), "--out", str(tmp_path / "w.jsonl")]) == 0
            scored = requests[len(generated):]
        assert main(["export-sft", "--weighted", str(tmp_path / "w.jsonl"),
                     "--examples", str(out / "examples.jsonl"),
                     "--out", str(tmp_path / "sft.jsonl")]) == 0
        assert main(["warmup-format", "--examples", str(out / "examples.jsonl"),
                     "--index", str(index_dir), "--k", "3",
                     "--out", str(tmp_path / "warm.jsonl")]) == 0
        capsys.readouterr()

        # One job explores example by example, sample by sample; an episode
        # opens with a request that carries no assistant prefix yet.
        starts = [r["messages"] for r in generated if len(r["messages"]) == 2]
        assert len(starts) == 2 * len(examples)
        prompt = {}
        for i, ex in enumerate(examples):
            assert starts[2 * i] == starts[2 * i + 1]
            prompt[ex.id] = starts[2 * i]
        sft = [json.loads(line) for line in
               (tmp_path / "sft.jsonl").read_text().splitlines()]
        warm = [json.loads(line) for line in
                (tmp_path / "warm.jsonl").read_text().splitlines()]
        assert len(sft) == 2 * len(examples) and len(warm) == len(examples)
        for rec in sft:
            assert rec["messages"][:2] == prompt[rec["id"].rsplit("/", 1)[0]]
        for rec in warm:
            assert rec["messages"][:2] == prompt[rec["id"]]

        answering = [r["messages"] for r in generated
                     if r["messages"][-1]["role"] == "assistant"
                     and r["messages"][-1]["content"].endswith(FINAL)]
        assert all("score_completion" in r for r in scored)
        assert [r["messages"] for r in scored] == answering


class TestWarmupCommand:
    def test_warmup_format_cli(self, world_dir, tmp_path, capsys):
        assert main(["warmup-format", "--examples", str(world_dir / "examples.jsonl"),
                     "--world", str(world_dir / "world.json"),
                     "--k", "3", "--out", str(tmp_path / "warm.jsonl")]) == 0
        capsys.readouterr()
        records = [json.loads(line)
                   for line in (tmp_path / "warm.jsonl").read_text().splitlines()]
        assert len(records) == 10
        for rec in records:
            assert [m["role"] for m in rec["messages"]] == ["system", "user", "assistant"]


class TestExitCodes:
    def test_unreachable_endpoint_exits_3(self, tmp_path):
        config = tmp_path / "engine.json"
        config.write_text(json.dumps({
            "llm": {"base_url": "http://127.0.0.1:9", "model_name": "stub",
                    "max_retries": 0, "timeout": 0.2, "backoff_base": 0.01},
        }))
        corpus = tmp_path / "corpus.jsonl"
        trajectory.write_passages_jsonl(corpus, _wiki_passages())
        idx = tmp_path / "idx"
        assert main(["ingest", "--corpus", str(corpus), "--index", str(idx)]) == 0
        result = run_cli("ask", "--question", "q", "--policy", "llm",
                         "--config", str(config), "--index", str(idx))
        assert result.returncode == 3
        assert "Error" in result.stderr or "error" in result.stderr

    @staticmethod
    def _explore_refused_port(tmp_path, capsys, max_retries):
        """Run explore (2 examples x 3 samples) against a refused port and
        check the failure contract: exit 3, no output file, one error line."""
        config = tmp_path / "engine.json"
        config.write_text(json.dumps({
            "llm": {"base_url": "http://127.0.0.1:9", "model_name": "stub",
                    "max_retries": max_retries, "timeout": 0.2, "backoff_base": 0.01},
        }))
        corpus = tmp_path / "corpus.jsonl"
        trajectory.write_passages_jsonl(corpus, _wiki_passages())
        examples = tmp_path / "ex.jsonl"
        trajectory.write_examples_jsonl(examples, [
            trajectory.Example(id=f"e{i}", question="q", gold_answers=("a",))
            for i in range(2)])
        assert main(["ingest", "--corpus", str(corpus),
                     "--index", str(tmp_path / "idx")]) == 0
        capsys.readouterr()
        code = main(["explore", "--examples", str(examples), "--policy", "llm",
                     "--config", str(config), "--index", str(tmp_path / "idx"),
                     "--samples", "3", "--out", str(tmp_path / "t.jsonl")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert not (tmp_path / "t.jsonl").exists()
        assert len(err) == 1 and err[0].startswith("exsearch: error: EndpointError: ")
        assert err[0].endswith("(6 of 6 episodes failed)")

    def test_explore_failures_write_nothing_and_are_counted(self, tmp_path, capsys):
        self._explore_refused_port(tmp_path, capsys, max_retries=0)

    def test_explore_against_refused_port_backs_off_once(self, tmp_path, capsys,
                                                          monkeypatch):
        sleeps = []
        monkeypatch.setattr("exsearch.llm.time.sleep", sleeps.append)
        self._explore_refused_port(tmp_path, capsys, max_retries=2)
        assert len(sleeps) == 2

    def test_missing_input_file_exits_2(self, tmp_path):
        result = run_cli("ingest", "--corpus", str(tmp_path / "nope.jsonl"),
                         "--index", str(tmp_path / "idx"))
        assert result.returncode == 2

    def test_explore_on_version_1_index_exits_2_with_reingest_hint(
            self, world_dir, tmp_path, capsys):
        index_dir = tmp_path / "idx"
        index_dir.mkdir()
        body = {"doc_count": 0, "avg_doc_length": 0.0, "doc_lengths": {},
                "postings": {}, "passages": []}
        (index_dir / INDEX_FILENAME).write_bytes(
            INDEX_MAGIC + b"\x01" + zlib.compress(json.dumps(body).encode("utf-8")))
        code = main(["explore", "--examples", str(world_dir / "examples.jsonl"),
                     "--policy", "tabular", "--world", str(world_dir / "world.json"),
                     "--index", str(index_dir), "--out", str(tmp_path / "t.jsonl")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert not (tmp_path / "t.jsonl").exists()
        assert len(err) == 1 and err[0].startswith("exsearch: error: VersionMismatch: ")
        assert "re-run `exsearch ingest`" in err[0]


class TestTypedInputErrors:
    """Defective input exits with its typed error on one stderr line."""

    @staticmethod
    def _error_line(result, code: int) -> str:
        assert result.returncode == code
        assert "Traceback" not in result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        return lines[0]

    def test_ingest_non_string_id_exits_2(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": ["x"], "title": "t", "text": "a"}\n')
        result = run_cli("ingest", "--corpus", str(corpus),
                         "--index", str(tmp_path / "idx"))
        line = self._error_line(result, 2)
        assert line.startswith("exsearch: error: SchemaError: line 1: passage id")

    def test_unknown_llm_config_key_exits_1(self, world_dir, tmp_path):
        config = tmp_path / "engine.json"
        config.write_text(json.dumps({"llm": {
            "base_url": "http://127.0.0.1:9", "model_name": "stub", "timeout_s": 3}}))
        result = run_cli("ask", "--question", "q", "--policy", "llm",
                         "--config", str(config), "--world", str(world_dir / "world.json"))
        line = self._error_line(result, 1)
        assert line.startswith("exsearch: error: UsageError: ") and "timeout_s" in line

    @pytest.mark.parametrize("section, values, key", [
        pytest.param("agent", {"rerank": "false"}, "rerank", id="string-rerank"),
        pytest.param("agent", {"dedup_subqueries": "no"}, "dedup_subqueries",
                     id="string-dedup"),
        pytest.param("trainer", {"iterations": 2.9}, "iterations", id="float-iterations"),
        pytest.param("agent", {"budget": [2]}, "budget", id="list-budget"),
        pytest.param("agent", {"rerank_keep": True}, "rerank_keep", id="bool-rerank-keep"),
        pytest.param("agent", {"budjet": 2}, "budjet", id="unknown-agent-key"),
        pytest.param("trainer", {"itrations": 2}, "itrations", id="unknown-trainer-key"),
        pytest.param("retriever", {"index": 3}, "index", id="int-retriever-index"),
        pytest.param("retriever", {"path": "idx"}, "path", id="unknown-retriever-key"),
        pytest.param("retriever", "idx", "retriever", id="string-retriever-section"),
    ])
    def test_ill_typed_or_unknown_config_key_exits_1(self, world_dir, tmp_path, capsys,
                                                     section, values, key):
        config = tmp_path / "engine.json"
        config.write_text(json.dumps({section: values}))
        params = tmp_path / "params.json"
        code = main(["train", "--world", str(world_dir / "world.json"),
                     "--examples", str(world_dir / "examples.jsonl"),
                     "--k", "2", "--patience", "0", "--config", str(config),
                     "--params-out", str(params), "--history", str(tmp_path / "h.csv")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and len(err) == 1
        assert err[0].startswith("exsearch: error: UsageError: ")
        assert f"[{section}]" in err[0] and key in err[0]
        assert not params.exists()

    @pytest.mark.parametrize("config, message", [
        pytest.param({"seed": True}, "seed must be of type int, not True", id="bool-seed"),
        pytest.param({"seed": 3.0}, "seed must be of type int, not 3.0", id="float-seed"),
        pytest.param({"seed": "3"}, "seed must be of type int, not '3'", id="string-seed"),
        pytest.param({"sed": 3}, "unknown top-level config key: sed",
                     id="unknown-top-level-key"),
        pytest.param({"retrieval": {"index": "idx"}},
                     "unknown top-level config key: retrieval", id="misspelt-section"),
    ])
    def test_ill_typed_or_unknown_top_level_config_exits_1(self, world_dir, tmp_path,
                                                           capsys, config, message):
        path = tmp_path / "engine.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = main(["synth-world", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and len(err) == 1
        assert err[0] == f"exsearch: error: UsageError: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda llm: llm.update(timeout="3"), "timeout must be a finite number",
                     id="string-timeout"),
        pytest.param(lambda llm: llm.update(base_url=llm["base_url"].replace(
            "http://127.0.0.1", "localhost")), "base_url must be an http:// or https:// URL",
            id="base-url-without-scheme"),
    ])
    def test_ill_typed_llm_config_exits_1_before_any_request(self, world_dir, tmp_path,
                                                             edit, message):
        received = []

        def behavior(request):
            received.append(request)
            return 200, {"choices": [{"message": {"content": f"{FINAL} x"}}]}

        with StubChatServer(behavior) as server:
            llm = {"base_url": server.base_url, "model_name": "stub"}
            edit(llm)
            config = tmp_path / "engine.json"
            config.write_text(json.dumps({"llm": llm}))
            result = run_cli("ask", "--question", "q", "--policy", "llm",
                             "--config", str(config),
                             "--world", str(world_dir / "world.json"))
        line = self._error_line(result, 1)
        assert line.startswith("exsearch: error: ValueError: ") and message in line
        assert received == []

    @pytest.mark.parametrize("kind, edit, message", [
        pytest.param("world", lambda d: d.pop("relations"), "missing field 'relations'",
                     id="world-without-relations"),
        pytest.param("world", None, "Expecting", id="world-not-json"),
        pytest.param("params", lambda d: d.pop("record_logits"),
                     "missing field 'record_logits'", id="params-without-record-logits"),
        pytest.param("params", None, "Expecting", id="params-not-json"),
        pytest.param("params", lambda d: d.update(version=2),
                     "unsupported params version 2", id="params-version-2"),
        pytest.param("params", lambda d: d.update(temperature=0.5),
                     "temperature 0.5 is not supported", id="params-temperature-0.5"),
    ])
    def test_defective_file_exits_2_naming_path(self, world_dir, tmp_path, kind,
                                                edit, message):
        files = {"world": world_dir / "world.json", "params": tmp_path / "params.json"}
        TabularPolicyParams.uniform(3, 2, 3).save(files["params"])
        bad = tmp_path / f"bad-{kind}.json"
        if edit is None:
            bad.write_text("{not json")
        else:
            d = json.loads(files[kind].read_text())
            edit(d)
            bad.write_text(json.dumps(d))
        files[kind] = bad
        result = run_cli("ask", "--question", "ent0 rel0", "--world", str(files["world"]),
                         "--params", str(files["params"]))
        line = self._error_line(result, 2)
        assert line.startswith(f"exsearch: error: MalformedFile: {bad}: ")
        assert message in line


class TestEvalRetrievalMetrics:
    def test_recall_and_precision_reported(self, world_dir, tmp_path, capsys):
        examples = trajectory.read_examples_jsonl(world_dir / "examples.jsonl")
        params = tmp_path / "params.json"
        history = tmp_path / "history.csv"
        assert main(["train", "--world", str(world_dir / "world.json"),
                     "--examples", str(world_dir / "examples.jsonl"),
                     "--mode", "exact", "--iterations", "8", "--patience", "0",
                     "--budget", "2", "--k", "3",
                     "--params-out", str(params), "--history", str(history)]) == 0
        assert main(["explore", "--examples", str(world_dir / "examples.jsonl"),
                     "--policy", "tabular", "--world", str(world_dir / "world.json"),
                     "--params", str(params), "--samples", "1",
                     "--budget", "2", "--k", "3",
                     "--out", str(tmp_path / "trajs.jsonl")]) == 0
        preds = tmp_path / "preds.jsonl"
        lines = []
        for rec in trajectory.read_trajectories_jsonl(tmp_path / "trajs.jsonl"):
            ex_id = rec.id.rsplit("/", 1)[0]
            lines.append(json.dumps({"id": ex_id, "answer": rec.answer or ""}))
        preds.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--predictions", str(preds),
                     "--dataset", str(world_dir / "examples.jsonl"),
                     "--trajectories", str(tmp_path / "trajs.jsonl"),
                     "--world", str(world_dir / "world.json"),
                     "--k", "3,5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["em"] >= 0.9
        assert set(payload["recall_at"]) == {"3", "5"}
        assert payload["recall_at"]["5"] >= payload["recall_at"]["3"]


class TestWeighPosteriorMode:
    def test_tabular_posterior_weights(self, world_dir, tmp_path, capsys):
        params = tmp_path / "params.json"
        assert main(["train", "--world", str(world_dir / "world.json"),
                     "--examples", str(world_dir / "examples.jsonl"),
                     "--mode", "exact", "--iterations", "6", "--patience", "0",
                     "--budget", "2", "--k", "3",
                     "--params-out", str(params),
                     "--history", str(tmp_path / "h.csv")]) == 0
        assert main(["explore", "--examples", str(world_dir / "examples.jsonl"),
                     "--policy", "tabular", "--world", str(world_dir / "world.json"),
                     "--params", str(params), "--samples", "3",
                     "--budget", "2", "--k", "3",
                     "--out", str(tmp_path / "t.jsonl")]) == 0
        assert main(["weigh", "--trajectories", str(tmp_path / "t.jsonl"),
                     "--examples", str(world_dir / "examples.jsonl"),
                     "--mode", "posterior-logprob",
                     "--policy", "tabular", "--world", str(world_dir / "world.json"),
                     "--params", str(params), "--budget", "2", "--k", "3",
                     "--out", str(tmp_path / "w.jsonl")]) == 0
        capsys.readouterr()
        weighted = trajectory.read_weighted_jsonl(tmp_path / "w.jsonl")
        assert weighted
        sums: dict[str, float] = {}
        for rec_id, wt in weighted:
            assert wt.weight_mode == "posterior-logprob"
            ex_id = rec_id.rsplit("/", 1)[0]
            sums[ex_id] = sums.get(ex_id, 0.0) + wt.weight
        for total in sums.values():
            assert total == pytest.approx(1.0, abs=1e-9)
