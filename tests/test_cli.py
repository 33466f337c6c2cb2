import argparse
import contextlib
import csv
import dataclasses
import io
import json
import subprocess
import sys
import zlib

import pytest
from hypothesis import given, settings

from conftest import MALFORMED_REPLIES, mutated
from exsearch import synth, training, trajectory
from exsearch.agent import AgentConfig
from exsearch.cli import build_parser, main
from exsearch.policy import TabularPolicyParams
from exsearch.retrieval import INDEX_FILENAME, INDEX_MAGIC
from exsearch.stub import ChainOracleBehavior, StubChatServer
from exsearch.trajectory import FINAL


def run_cli(*args):
    """Invoke the CLI in a subprocess so exit codes and streams are real."""
    return subprocess.run([sys.executable, "-m", "exsearch.cli", *args],
                          capture_output=True, text=True)


def main_error_line(capsys, argv, code: int = 2) -> str:
    """The one stderr line of ``main(argv)``, which must exit with ``code``."""
    assert main(argv) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return err[0]


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    code = main(["synth-world", "--entities", "20", "--relations", "3",
                 "--hops", "2", "--density", "1.0", "--questions", "10",
                 "--align-relations", "--distinct-nodes",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    return out


def test_consecutive_main_calls_share_no_flag_values(tmp_path, capsys):
    """main builds its parser once per process; one call's flags and
    subcommand do not reach the next call."""
    world = ["--entities", "6", "--relations", "2", "--questions", "2"]
    assert main(["synth-world", *world, "--json", "--seed", "3",
                 "--out", str(tmp_path / "seed3")]) == 0
    passages = json.loads(capsys.readouterr().out)["passages"]
    assert main(["ingest", "--corpus", str(tmp_path / "seed3" / "corpus.jsonl"),
                 "--index", str(tmp_path / "idx")]) == 0
    assert capsys.readouterr().out == f"indexed {passages} passages\n"
    assert main(["synth-world", *world, "--out", str(tmp_path / "default")]) == 0
    assert capsys.readouterr().out.startswith("world with ")
    assert main(["synth-world", *world, "--seed", "0", "--out", str(tmp_path / "seed0")]) == 0
    corpus = {name: (tmp_path / name / "corpus.jsonl").read_bytes()
              for name in ("seed3", "default", "seed0")}
    assert corpus["default"] == corpus["seed0"] != corpus["seed3"]


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

    @pytest.mark.parametrize("flags, code, message", [
        (["--entities", "1"], 2, "InfeasibleWorld: need at least 3 entities"),
        (["--density", "0"], 2, "InfeasibleWorld: fact_density must lie in (0, 1]"),
        (["--questions", "0"], 1, "UsageError: --questions must be >= 1, got 0"),
        (["--seed", "-1"], 1, "UsageError: seed must be >= 0, got -1"),
    ], ids=["one-entity", "zero-density", "no-questions", "negative-seed"])
    def test_infeasible_world_or_no_questions_exits_with_one_line(self, tmp_path, capsys,
                                                                 flags, code, message):
        out = tmp_path / "w"
        line = main_error_line(capsys, ["synth-world", *flags, "--out", str(out)], code)
        assert line.startswith(f"exsearch: error: {message}")
        assert not out.exists()


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

    def test_extras_survive_ingest(self, tmp_path):
        from exsearch.retrieval import load_index
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"id": "p0", "title": "Zürich", "text": "alpha", "source": {"tags": ["a", 1]}}\n'
            '{"id": "p1", "title": "t", "text": "beta"}\n'
            '{"id": "p2", "title": "t", "text": "gamma", "lang": "日本語"}\n', encoding="utf-8")
        assert main(["ingest", "--corpus", str(corpus), "--index", str(tmp_path / "idx")]) == 0
        loaded = load_index(tmp_path / "idx")
        assert [p.extras for p in loaded.passages.values()] == [
            {"source": {"tags": ["a", 1]}}, {}, {"lang": "日本語"}]
        assert loaded.passages["p0"].title == "Zürich"

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

    @pytest.mark.parametrize("argv", [
        ["explore", "--examples", "e.jsonl", "--out", "o.jsonl", "--jobs", "0"],
        ["train", "--world", "w.json", "--examples", "e.jsonl", "--params-out", "p.json",
         "--history", "h.csv", "--jobs", "-4"],
    ], ids=["explore-zero", "train-negative"])
    def test_jobs_below_one_exits_1_with_one_line(self, capsys, argv):
        line = main_error_line(capsys, argv, 1)
        assert line == f"exsearch: error: UsageError: --jobs must be >= 1, got {argv[-1]}"


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

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_empty_training_or_validation_set_exits_1(self, world_dir, tmp_path, capsys,
                                                       mode):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        examples = str(world_dir / "examples.jsonl")
        for train, val in ((str(empty), []), (examples, ["--val", str(empty)])):
            line = main_error_line(capsys, [
                "train", "--world", str(world_dir / "world.json"), "--examples", train,
                *val, "--mode", mode, "--params-out", str(tmp_path / "p.json"),
                "--history", str(tmp_path / "h.csv")], 1)
            assert line == ("exsearch: error: ValueError: em_train needs non-empty "
                            "training and validation sets")
            assert not (tmp_path / "p.json").exists()

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

    @staticmethod
    def one_wide_record_head(world_dir, tmp_path):
        path = tmp_path / "narrow.json"
        world = synth.load_world(world_dir / "world.json")
        TabularPolicyParams.uniform(len(world.relations), budget=2, k=1).save(path)
        return path

    def test_explore_refuses_a_record_head_narrower_than_k_at_load(
            self, world_dir, tmp_path, capsys):
        narrow = self.one_wide_record_head(world_dir, tmp_path)
        explore = ["explore", "--examples", str(world_dir / "examples.jsonl"),
                   "--policy", "tabular", "--world", str(world_dir / "world.json"),
                   "--params", str(narrow), "--budget", "2", "--k", "3", "--samples", "1"]
        line = main_error_line(capsys, [*explore, "--out", str(tmp_path / "k3.jsonl")])
        assert line == (f"exsearch: error: NarrowRecordHead: {narrow}: record head of "
                        "width 1 is narrower than the 3 documents a hop records from (k 3)")
        assert not (tmp_path / "k3.jsonl").exists()
        # under --rerank a hop records from the rerank_keep documents it keeps
        line = main_error_line(capsys, [*explore, "--rerank", "--rerank-keep", "2",
                                        "--out", str(tmp_path / "keep2.jsonl")])
        assert line.endswith("narrower than the 2 documents a hop records from "
                             "(rerank_keep 2)")
        assert main([*explore, "--rerank", "--rerank-keep", "1",
                     "--out", str(tmp_path / "keep1.jsonl")]) == 0
        capsys.readouterr()
        assert (tmp_path / "keep1.jsonl").exists()

    def test_train_refuses_params_in_narrower_than_k_at_load(self, world_dir, tmp_path,
                                                             capsys):
        narrow = self.one_wide_record_head(world_dir, tmp_path)
        assert self.train(world_dir, tmp_path, "resumed", "--mode", "sampled",
                          "--params-in", str(narrow)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"exsearch: error: NarrowRecordHead: {narrow}: record head of "
                       "width 1 is narrower than the 3 documents a hop records from (k 3)"]
        assert not (tmp_path / "resumed.json").exists()

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

    def test_toml_config_trains_as_json_and_flags_do(self, world_dir, tmp_path, capsys):
        pytest.importorskip("tomllib")
        (tmp_path / "engine.toml").write_text(
            "[agent]\nbudget = 2\nk = 3\nrerank = true\nrerank_keep = 2\n\n"
            "[trainer]\niterations = 3\nearly_stop_patience = 0\n")
        (tmp_path / "engine.json").write_text(json.dumps({
            "agent": {"budget": 2, "k": 3, "rerank": True, "rerank_keep": 2},
            "trainer": {"iterations": 3, "early_stop_patience": 0}}))
        runs = {"toml": ["--config", str(tmp_path / "engine.toml")],
                "json": ["--config", str(tmp_path / "engine.json")],
                "flags": ["--budget", "2", "--k", "3", "--rerank", "--rerank-keep", "2",
                          "--iterations", "3", "--patience", "0"]}
        for name, flags in runs.items():
            assert main(["train", "--world", str(world_dir / "world.json"),
                         "--examples", str(world_dir / "examples.jsonl"),
                         "--params-out", str(tmp_path / f"{name}.json"),
                         "--history", str(tmp_path / f"{name}.csv"), *flags]) == 0
        capsys.readouterr()
        params = {name: (tmp_path / f"{name}.json").read_bytes() for name in runs}
        assert params["toml"] == params["json"] == params["flags"]

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

    def test_export_sft_keeps_weighted_record_ids(self, tmp_path, capsys):
        examples = [trajectory.Example(id=f"e{i}", question="q", gold_answers=("four",))
                    for i in (1, 2)]
        trajectory.write_examples_jsonl(tmp_path / "ex.jsonl", examples)
        t = trajectory.Trajectory(question="q", steps=(), terminated=True, budget=1)
        records = [trajectory.TrajectoryRecord(id=rec_id, trajectory=t, answer="four")
                   for rec_id in ("e2/0", "e1/3", "e1/1")]
        trajectory.write_trajectories_jsonl(tmp_path / "trajs.jsonl", records)
        assert main(["weigh", "--trajectories", str(tmp_path / "trajs.jsonl"),
                     "--examples", str(tmp_path / "ex.jsonl"),
                     "--mode", "reward-em", "--out", str(tmp_path / "w.jsonl")]) == 0
        assert main(["export-sft", "--weighted", str(tmp_path / "w.jsonl"),
                     "--examples", str(tmp_path / "ex.jsonl"),
                     "--out", str(tmp_path / "sft.jsonl")]) == 0
        capsys.readouterr()
        sft = [json.loads(line) for line in (tmp_path / "sft.jsonl").read_text().splitlines()]
        assert [rec["id"] for rec in sft] == ["e1/1", "e1/3", "e2/0"]

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

    def test_explore_jobs_agree_over_shared_kept_alive_connections(self, tmp_path, capsys):
        """Workers share the client's kept-alive connections, and the stub
        serves their requests at once: --jobs 4 and 8 write what --jobs 1
        does."""
        out, index_dir = tmp_path / "world", tmp_path / "idx"
        assert main(["synth-world", "--entities", "15", "--relations", "2",
                     "--hops", "2", "--density", "1.0", "--questions", "6",
                     "--seed", "4", "--out", str(out)]) == 0
        assert main(["ingest", "--corpus", str(out / "corpus.jsonl"),
                     "--index", str(index_dir)]) == 0
        server = StubChatServer(ChainOracleBehavior())  # it keeps no state
        server._server.RequestHandlerClass.protocol_version = "HTTP/1.1"
        server._lock = contextlib.nullcontext()
        with server:
            config = tmp_path / "engine.json"
            config.write_text(json.dumps({
                "llm": {"base_url": server.base_url, "model_name": "stub",
                        "backoff_base": 0.01},
                "retriever": {"index": str(index_dir)}}))
            for jobs in ("1", "4", "8"):
                assert main(["explore", "--examples", str(out / "examples.jsonl"),
                             "--policy", "llm", "--config", str(config),
                             "--samples", "2", "--budget", "3", "--jobs", jobs,
                             "--out", str(tmp_path / f"trajs{jobs}.jsonl")]) == 0
        capsys.readouterr()
        expected = (tmp_path / "trajs1.jsonl").read_bytes()
        for jobs in ("4", "8"):
            assert (tmp_path / f"trajs{jobs}.jsonl").read_bytes() == expected


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

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_warmup_format_k_below_1_exits_1(self, world_dir, tmp_path, capsys, k):
        out = tmp_path / "warm.jsonl"
        code = main(["warmup-format", "--examples", str(world_dir / "examples.jsonl"),
                     "--world", str(world_dir / "world.json"), "--k", k, "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert err == ["exsearch: error: ValueError: k must be >= 1"]
        assert not out.exists()

    def test_warmup_format_reads_the_agent_k(self, world_dir, tmp_path, capsys, monkeypatch):
        ks = []
        warmup_format = training.warmup_format
        monkeypatch.setattr(training, "warmup_format", lambda examples, retriever, k: (
            ks.append(k) or warmup_format(examples, retriever, k)))
        config = tmp_path / "engine.json"
        config.write_text(json.dumps({"agent": {"k": 2}}))
        argv = ["warmup-format", "--examples", str(world_dir / "examples.jsonl"),
                "--world", str(world_dir / "world.json"), "--out", str(tmp_path / "w.jsonl")]
        assert main([*argv, "--config", str(config)]) == 0
        assert main(argv) == 0
        assert ks == [2, 5]

    @pytest.mark.parametrize("record, message", [
        pytest.param({"id": "e0", "question": "q", "answers": ["a"]},
                     "MissingAnnotation: example is missing required annotation: "
                     "gold_subqueries", id="no-gold-subqueries"),
        pytest.param({"id": "e0", "question": "q", "answers": ["a"], "gold_subqueries": "q"},
                     "SchemaError: line 1: field 'gold_subqueries' must be a list of strings",
                     id="string-gold-subqueries"),
    ])
    def test_warmup_format_on_unusable_examples_exits_2(self, world_dir, tmp_path, capsys,
                                                        record, message):
        examples = tmp_path / "ex.jsonl"
        examples.write_text(json.dumps(record) + "\n")
        out = tmp_path / "warm.jsonl"
        line = main_error_line(capsys, ["warmup-format", "--examples", str(examples),
                                        "--world", str(world_dir / "world.json"),
                                        "--out", str(out)])
        assert line == f"exsearch: error: {message}"
        assert not out.exists()


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

    @pytest.mark.parametrize("body", MALFORMED_REPLIES)
    def test_explore_against_malformed_replies_exits_3(self, tmp_path, capsys, body):
        corpus = tmp_path / "corpus.jsonl"
        trajectory.write_passages_jsonl(corpus, _wiki_passages())
        examples = tmp_path / "ex.jsonl"
        trajectory.write_examples_jsonl(examples, [
            trajectory.Example(id=f"e{i}", question="q", gold_answers=("a",))
            for i in range(2)])
        assert main(["ingest", "--corpus", str(corpus),
                     "--index", str(tmp_path / "idx")]) == 0
        capsys.readouterr()
        with StubChatServer(lambda request: (200, body)) as server:
            config = tmp_path / "engine.json"
            config.write_text(json.dumps({"llm": {"base_url": server.base_url,
                                                  "model_name": "stub"}}))
            code = main(["explore", "--examples", str(examples), "--policy", "llm",
                         "--config", str(config), "--index", str(tmp_path / "idx"),
                         "--samples", "3", "--out", str(tmp_path / "t.jsonl")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert not (tmp_path / "t.jsonl").exists()
        assert len(err) == 1
        assert err[0].startswith("exsearch: error: EndpointError: ")
        assert err[0].endswith("(6 of 6 episodes failed)")

    def test_weigh_on_positive_logprobs_exits_3(self, tmp_path, capsys):
        # Two tokens at 1.7e308 sum to inf; the softmax then made a nan weight.
        examples = tmp_path / "ex.jsonl"
        trajectory.write_examples_jsonl(examples, [
            trajectory.Example(id="e0", question="q", gold_answers=("a",))])
        trajs = tmp_path / "t.jsonl"
        trajs.write_text("".join(json.dumps({"id": f"e0/{i}", "question": "q", "steps": [],
                                             "answer": "a"}) + "\n" for i in range(2)))
        tokens = [{"token": "a", "logprob": 1.7e308}, {"token": "b", "logprob": 1.7e308}]
        body = {"choices": [{"message": {"role": "assistant", "content": "a b"},
                             "logprobs": {"content": tokens}}]}
        with StubChatServer(lambda request: (200, body)) as server:
            config = tmp_path / "engine.json"
            config.write_text(json.dumps({"llm": {"base_url": server.base_url,
                                                  "model_name": "stub"}}))
            code = main(["weigh", "--trajectories", str(trajs), "--examples", str(examples),
                         "--mode", "posterior-logprob", "--policy", "llm",
                         "--config", str(config), "--out", str(tmp_path / "w.jsonl")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert not (tmp_path / "w.jsonl").exists()
        assert len(err) == 1
        assert err[0].startswith(
            "exsearch: error: EndpointError: malformed token log-probabilities")

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
        assert line.startswith("exsearch: error: SchemaError: line 1: "
                               "field 'id' must be a string")

    def test_weigh_ill_typed_score_exits_2(self, tmp_path):
        examples = tmp_path / "ex.jsonl"
        trajectory.write_examples_jsonl(examples, [
            trajectory.Example(id="e1", question="q", gold_answers=("a",))])
        trajs = tmp_path / "trajs.jsonl"
        trajs.write_text(json.dumps({"id": "e1/0", "question": "q", "answer": "a", "steps": [
            {"sub_query": "s", "evidence": "e",
             "retrieved": [{"id": "p", "score": {}, "rank": 1}]}]}) + "\n")
        result = run_cli("weigh", "--trajectories", str(trajs), "--examples", str(examples),
                         "--mode", "reward-em", "--out", str(tmp_path / "w.jsonl"))
        line = self._error_line(result, 2)
        assert line.startswith("exsearch: error: SchemaError: line 1: "
                               "field 'score' must be a finite number")
        assert not (tmp_path / "w.jsonl").exists()

    _TRAJECTORY = {"id": "e1/0", "question": "q", "answer": "a", "steps": []}
    _WEIGHTED = {**_TRAJECTORY, "budget": 1, "terminated": True, "log_weight": 0.0,
                 "weight": 0.5, "weight_mode": "reward-em"}

    @pytest.mark.parametrize("command, fault, message", [
        ("weigh", {"answer": 5}, "field 'answer' must be a string"),
        ("weigh", {"id": 5}, "field 'id' must be a string"),
        ("export-sft", {"answer": 5}, "field 'answer' must be a string"),
        ("export-sft", {"id": 5}, "field 'id' must be a string"),
        ("export-sft", {"terminated": "no"}, "field 'terminated' must be a boolean"),
    ])
    def test_ill_typed_record_field_exits_2(self, tmp_path, capsys, command, fault, message):
        examples = tmp_path / "ex.jsonl"
        trajectory.write_examples_jsonl(examples, [
            trajectory.Example(id="e1", question="q", gold_answers=("a",))])
        base = self._TRAJECTORY if command == "weigh" else self._WEIGHTED
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(base) + "\n"
                           + json.dumps({**base, "id": "e1/1", **fault}) + "\n")
        source = (["--trajectories", str(records), "--mode", "reward-em"]
                  if command == "weigh" else ["--weighted", str(records)])
        line = main_error_line(capsys, [command, *source, "--examples", str(examples),
                                        "--out", str(tmp_path / "out.jsonl")])
        assert line == f"exsearch: error: SchemaError: line 2: {message}"
        assert not (tmp_path / "out.jsonl").exists()

    def test_weigh_on_bytes_that_are_not_utf8_exits_2(self, tmp_path, capsys):
        examples = tmp_path / "ex.jsonl"
        trajectory.write_examples_jsonl(examples, [
            trajectory.Example(id="e1", question="q", gold_answers=("a",))])
        trajs = tmp_path / "trajs.jsonl"
        trajs.write_bytes(json.dumps(self._TRAJECTORY).encode() + b"\n"
                          + b'{"id": "e1/1", "question": "q\xff", "steps": []}\n')
        line = main_error_line(capsys, [
            "weigh", "--trajectories", str(trajs), "--examples", str(examples),
            "--mode", "reward-em", "--out", str(tmp_path / "w.jsonl")])
        assert line == "exsearch: error: SchemaError: line 2: invalid UTF-8"

    def test_explore_on_non_string_question_exits_2(self, world_dir, tmp_path, capsys):
        examples = tmp_path / "ex.jsonl"
        examples.write_text('{"id": "e1", "question": "q", "answers": ["a"]}\n'
                            '{"id": "e2", "question": 5, "answers": ["a"]}\n')
        line = main_error_line(capsys, [
            "explore", "--examples", str(examples), "--policy", "tabular",
            "--world", str(world_dir / "world.json"), "--out", str(tmp_path / "t.jsonl")])
        assert line == "exsearch: error: SchemaError: line 2: field 'question' must be a string"

    @pytest.mark.parametrize("record, message", [
        ({"id": "e2", "answer": 5}, "field 'answer' must be a string"),
        ({"id": ["e2"], "answer": "a"}, "field 'id' must be a string"),
        ({"id": "e2", "answer": None}, "field 'answer' must be a string"),
        ({"id": "e2"}, "record missing required field 'answer'"),
    ], ids=["int-answer", "list-id", "null-answer", "missing-answer"])
    def test_eval_on_ill_typed_prediction_exits_2(self, tmp_path, capsys, record, message):
        dataset = tmp_path / "ex.jsonl"
        trajectory.write_examples_jsonl(dataset, [
            trajectory.Example(id=f"e{i}", question="q", gold_answers=("a",)) for i in (1, 2)])
        predictions = tmp_path / "preds.jsonl"
        predictions.write_text('{"id": "e1", "answer": "a"}\n' + json.dumps(record) + "\n")
        line = main_error_line(capsys, ["eval", "--predictions", str(predictions),
                                        "--dataset", str(dataset)])
        assert line == f"exsearch: error: SchemaError: line 2: {message}"

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
        pytest.param("agent", 3, "agent", id="int-agent-section"),
        pytest.param("trainer", {"e_step_mode": "sampled"}, "e_step_mode",
                     id="trainer-e-step-mode"),
        pytest.param("llm", {"base_url": "http://127.0.0.1:9", "model_name": "stub",
                             "tmeout": 3}, "tmeout", id="unknown-llm-key-on-train"),
        pytest.param("llm", ["base_url", "model_name"], "llm", id="list-llm-section"),
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
        pytest.param({"seed": True}, "seed must be an integer, not True", id="bool-seed"),
        pytest.param({"seed": 3.0}, "seed must be an integer, not 3.0", id="float-seed"),
        pytest.param({"seed": "3"}, "seed must be an integer, not '3'", id="string-seed"),
        pytest.param({"sed": 3}, "unknown top-level config key: sed",
                     id="unknown-top-level-key"),
        pytest.param({"retrieval": {"index": "idx"}},
                     "unknown top-level config key: retrieval", id="misspelt-section"),
        pytest.param({"llm": {"base_url": "http://127.0.0.1:9", "model_name": "stub",
                              "tmeout": 3}},
                     "unknown key in the [llm] config section: tmeout", id="unknown-llm-key"),
        pytest.param({"llm": {"base_url": "http://127.0.0.1:9", "model_name": "stub",
                              "parallelism_cap": 4}},
                     "unknown key in the [llm] config section: parallelism_cap",
                     id="llm-parallelism-cap"),
        pytest.param({"llm": {"base_url": "http://127.0.0.1:9", "model_name": "stub",
                              "supports_logprobs": "probe"}},
                     "unknown key in the [llm] config section: supports_logprobs",
                     id="llm-supports-logprobs"),
        pytest.param({"trainer": "fast"}, "the [trainer] config section must be a table",
                     id="string-trainer-section"),
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

    @pytest.mark.parametrize("section", [3, ["base_url", "model_name"],
                                         "base_url model_name"],
                             ids=["int", "list", "string"])
    def test_llm_section_that_is_not_a_table_exits_1(self, world_dir, tmp_path, section):
        config = tmp_path / "engine.json"
        config.write_text(json.dumps({"llm": section}))
        result = run_cli("ask", "--question", "q", "--policy", "llm",
                         "--config", str(config), "--world", str(world_dir / "world.json"))
        line = self._error_line(result, 1)
        assert line.startswith("exsearch: error: UsageError: ") and "[llm]" in line

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda llm: llm.update(timeout="3"),
                     "UsageError: [llm] timeout must be a finite number, not '3'",
                     id="string-timeout"),
        pytest.param(lambda llm: llm.update(base_url=llm["base_url"].replace(
            "http://127.0.0.1", "localhost")),
            "ValueError: base_url must be an http:// or https:// URL",
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
        assert line.startswith(f"exsearch: error: {message}")
        assert received == []

    @pytest.mark.parametrize("kind, edit, message", [
        pytest.param("world", lambda d: d.pop("relations"),
                     "missing required field 'relations'",
                     id="world-without-relations"),
        pytest.param("world", None, "Expecting", id="world-not-json"),
        pytest.param("params", lambda d: d.pop("record_logits"),
                     "missing required field 'record_logits'",
                     id="params-without-record-logits"),
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

    _LOGITS = "a list of finite numbers"
    _MATRIX = "a list of equally long lists of finite numbers"

    @pytest.mark.parametrize("kind, field, value, message", [
        ("params", "record_logits", True, _LOGITS),
        ("params", "record_logits", [[0.0, 0.0, 0.0]], _LOGITS),
        ("params", "answer_logits", ["0", "0"], _LOGITS),
        ("params", "answer_logits", [10**400, 0], _LOGITS),
        ("params", "think_logits", [["0"] * 4] * 3, _MATRIX),
        ("params", "think_logits", [[0.0] * 4, [0.0] * 3, [0.0] * 4], _MATRIX),
        ("params", "version", True, "an integer"),
        ("world", "relations", "rel", "a list of strings"),
        ("world", "facts", [["ent0", "rel0"]], "a list of [subject, relation, object]"),
        ("world", "hop_count", True, "an integer"),
        ("world", "hop_count", 2.9, "an integer"),
        ("world", "seed", "7", "an integer"),
    ], ids=["params-bool-record-logits", "params-2d-record-logits", "params-string-logits",
            "params-huge-logit", "params-string-matrix", "params-ragged-matrix",
            "params-bool-version", "world-string-relations", "world-pair-fact",
            "world-bool-hop-count", "world-float-hop-count", "world-string-seed"])
    def test_ill_typed_json_file_field_exits_2(self, world_dir, tmp_path, kind, field,
                                               value, message):
        """``ask --params`` on a bad params file and ``train --world`` on a bad
        world manifest name the path and the field on one line."""
        if kind == "params":
            d = TabularPolicyParams.uniform(3, 2, 3).to_json_dict()
        else:
            d = json.loads((world_dir / "world.json").read_text())
        bad = tmp_path / f"bad-{kind}.json"
        bad.write_text(json.dumps({**d, field: value}))
        if kind == "params":
            result = run_cli("ask", "--question", "ent0 rel0",
                             "--world", str(world_dir / "world.json"), "--params", str(bad))
        else:
            result = run_cli("train", "--world", str(bad),
                             "--examples", str(world_dir / "examples.jsonl"),
                             "--params-out", str(tmp_path / "p.json"),
                             "--history", str(tmp_path / "h.csv"))
        line = self._error_line(result, 2)
        assert line.startswith(f"exsearch: error: MalformedFile: {bad}: field {field!r} "
                               f"must be {message}")
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("records, message", [
        ([(0.7, "reward-em"), (0.7, "reward-f1")],
         "example 'e1' mixes weight modes ['reward-em', 'reward-f1']"),
        ([(0.5, "reward-em"), (0.5, "reward-acc")],
         "example 'e1' mixes weight modes ['reward-acc', 'reward-em']"),
        ([(0.7, "reward-em"), (0.7, "reward-em")],
         "weights of example 'e1' sum to 1.4, not 1"),
        ([(0.5, "reward-em"), (0.5 + 1e-8, "reward-em")],
         "weights of example 'e1' sum to 1.00000001, not 1"),
    ], ids=["mixed-modes-over-1", "mixed-modes", "sum-1.4", "sum-off-by-1e-8"])
    def test_export_sft_on_inconsistent_weights_exits_2(self, tmp_path, capsys, records,
                                                         message):
        examples = tmp_path / "ex.jsonl"
        trajectory.write_examples_jsonl(examples, [
            trajectory.Example(id=f"e{i}", question="q", gold_answers=("a",)) for i in (1, 2)])
        weighted = tmp_path / "w.jsonl"
        weighted.write_text(json.dumps({**self._WEIGHTED, "id": "e2/0", "weight": 1.0}) + "\n"
                            + "".join(json.dumps({**self._WEIGHTED, "id": f"e1/{i}",
                                                  "weight": w, "weight_mode": mode}) + "\n"
                                      for i, (w, mode) in enumerate(records)))
        line = main_error_line(capsys, ["export-sft", "--weighted", str(weighted),
                                        "--examples", str(examples),
                                        "--out", str(tmp_path / "sft.jsonl")])
        assert line == f"exsearch: error: InconsistentWeights: {message}"
        assert not (tmp_path / "sft.jsonl").exists()


# A full engine config, and the kind of each of its values; a float takes any
# finite number.
_ENGINE = {
    "seed": 3,
    "retriever": {"index": "idx", "k": 3},
    "agent": {"budget": 2, "k": 3, "rerank": False, "rerank_keep": 2,
              "dedup_subqueries": False},
    "trainer": {"iterations": 2, "samples_per_example": 2, "weight_mode": "reward-em",
                "early_stop_patience": 0, "validation_metric": "em"},
    "llm": {"base_url": "http://127.0.0.1:9/v1", "model_name": "stub",
            "api_key_env": "EXSEARCH_API_KEY", "timeout": 30, "max_retries": 3,
            "backoff_base": 1.0},
}
_ENGINE_KINDS = {
    "seed": int,
    "retriever": {"index": str, "k": int},
    "agent": {"budget": int, "k": int, "rerank": bool, "rerank_keep": int,
              "dedup_subqueries": bool},
    "trainer": {"iterations": int, "samples_per_example": int, "weight_mode": str,
                "early_stop_patience": int, "validation_metric": str},
    "llm": {"base_url": str, "model_name": str, "api_key_env": str, "timeout": float,
            "max_retries": int, "backoff_base": float},
}


def _of_kind(value, kind) -> bool:
    if kind is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is kind


def _ill_typed(config: dict) -> bool:
    """Whether a value of ``config`` is not of its field's kind."""
    for name, value in config.items():
        kinds = _ENGINE_KINDS[name]
        if not isinstance(kinds, dict):
            if not _of_kind(value, kinds):
                return True
        elif isinstance(value, dict) and any(
                key in kinds and not _of_kind(item, kinds[key]) for key, item in value.items()):
            return True
    return False


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config-fuzz")


class TestConfigFuzz:
    """Every command checks every section's keys and kinds when it loads a
    config file; a command checks ranges when it builds the settings."""

    def test_the_full_config_loads(self, fuzz_dir, capsys):
        path = fuzz_dir / "engine.json"
        path.write_text(json.dumps(_ENGINE))
        assert main(["synth-world", "--config", str(path), "--entities", "6",
                     "--relations", "2", "--questions", "2", "--out", str(fuzz_dir / "w")]) == 0

    @settings(max_examples=150, deadline=None)
    @given(mutated(_ENGINE))
    def test_synth_world_loads_or_exits_1_with_one_line(self, fuzz_dir, config):
        path = fuzz_dir / "engine.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["synth-world", "--config", str(path), "--entities", "6",
                         "--relations", "2", "--questions", "2", "--out", str(fuzz_dir / "w")])
        lines = err.getvalue().splitlines()
        assert code in (0, 1) and len(lines) == code
        if _ill_typed(config):
            assert code == 1 and lines[0].startswith("exsearch: error: UsageError: ")
        elif config.get("seed", 0) < 0:  # the one setting synth-world checks the range of
            assert lines == [f"exsearch: error: UsageError: seed must be >= 0, "
                             f"got {config['seed']}"]
        else:  # or a section that is not a table
            assert code == 0 or lines[0].startswith("exsearch: error: UsageError: ")


# (config section, field) for every setting train reads from a config file
_TRAIN_SETTINGS = ([("agent", f.name) for f in dataclasses.fields(AgentConfig)]
                   + [("trainer", f.name) for f in dataclasses.fields(training.TrainConfig)
                      if f.name != "e_step_mode"])


class TestSettingsLayers:
    """Each agent and trainer setting has a train flag whose dest is its
    name; its config value is used when the flag is absent, and the flag wins."""

    @staticmethod
    def _train_settings(monkeypatch, world_dir, tmp_path, config, *flags) -> dict:
        seen = {}

        def em_train(examples, policy, retriever, train_config, agent_config, **kwargs):
            seen.update(dataclasses.asdict(agent_config), **dataclasses.asdict(train_config))
            return [], policy.params

        monkeypatch.setattr(training, "em_train", em_train)
        path = tmp_path / "engine.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--world", str(world_dir / "world.json"),
                     "--examples", str(world_dir / "examples.jsonl"),
                     "--config", str(path), "--params-out", str(tmp_path / "p.json"),
                     "--history", str(tmp_path / "h.csv"), *flags]) == 0
        return seen

    @pytest.mark.parametrize("section, name", _TRAIN_SETTINGS,
                             ids=[name for _section, name in _TRAIN_SETTINGS])
    def test_flag_overrides_config_overrides_default(self, world_dir, tmp_path, capsys,
                                                     monkeypatch, section, name):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flag = {a.dest: a for a in sub.choices["train"]._actions}[name]
        default = self._train_settings(monkeypatch, world_dir, tmp_path, {})[name]
        if isinstance(default, bool):  # a store_true flag
            config_value, flag_config, argv, flag_value = True, False, [], True
        elif flag.choices:
            config_value = next(c for c in flag.choices if c != default)
            flag_value = next(c for c in flag.choices if c not in (default, config_value))
            flag_config, argv = config_value, [flag_value]
        else:
            config_value, flag_value = default + 1, default + 2
            flag_config, argv = config_value, [str(flag_value)]
        assert config_value != default
        settings = self._train_settings(monkeypatch, world_dir, tmp_path,
                                        {section: {name: config_value}})
        assert settings[name] == config_value
        settings = self._train_settings(monkeypatch, world_dir, tmp_path,
                                        {section: {name: flag_config}},
                                        flag.option_strings[0], *argv)
        assert settings[name] == flag_value
        capsys.readouterr()


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
