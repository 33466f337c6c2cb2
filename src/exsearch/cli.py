"""exsearch command-line interface.

Single binary, one subcommand per pipeline stage:

    ingest          corpus JSONL -> search index
    synth-world     generate a synthetic world (corpus + examples + manifest)
    ask             answer one question with the tabular or llm policy
    explore         batch episode collection (the exploration half of a
                    training iteration)
    weigh           attach importance weights to explored trajectories
    train           full tabular self-training loop (history CSV + params)
    eval            score predictions against a dataset
    export-sft      weighted trajectories -> chat-format training records
    warmup-format   annotated examples -> supervised transcripts

Exit codes: 0 success, 1 usage, 2 data error, 3 endpoint error. Errors are
one machine-parseable line on stderr: ``exsearch: error: <Kind>: <message>``.
``--config FILE`` supplies an engine configuration (JSON always; TOML on
Python 3.11+) whose values individual flags override.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from . import agent, llm, metrics, retrieval, synth, training, trajectory
from .errors import (EndpointError, ExsearchError, InconsistentWeights, LogprobsUnsupported,
                     NarrowRecordHead, UnknownId)
from .policy import TabularPolicy, TabularPolicyParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ENDPOINT = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"exsearch: error: UsageError: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


# The keys of each config section and their kinds (trajectory.SETTING_KINDS):
# [agent], [trainer] and [llm] hold the fields of the settings they fill, less
# e_step_mode, which --mode sets. Every command checks every section's keys and
# kinds at load, and checks ranges, URL shape and required keys when it builds
# the settings. A [retriever] k is read by nothing (the retrieval size is
# [agent] k or --k); perfbench's llm_pipeline config still sets it.
_SECTION_KINDS = {"retriever": {"index": "str", "k": "int"}} | {
    section: {f.name: f.type for f in dataclasses.fields(cls) if f.name != "e_step_mode"}
    for section, cls in (("agent", agent.AgentConfig), ("trainer", training.TrainConfig),
                         ("llm", llm.EndpointConfig))}


def _check_sections(config) -> None:
    if not isinstance(config, dict):
        raise UsageError("a config file must hold a table of sections")
    for section, values in config.items():
        if section == "seed":
            trajectory.check_setting("seed", "int", values, UsageError)
            continue
        if section not in _SECTION_KINDS:
            raise UsageError(f"unknown top-level config key: {section}")
        if not isinstance(values, dict):
            raise UsageError(f"the [{section}] config section must be a table")
        kinds = _SECTION_KINDS[section]
        for key, value in values.items():
            if key not in kinds:
                raise UsageError(f"unknown key in the [{section}] config section: {key}")
            trajectory.check_setting(f"[{section}] {key}", kinds[key], value, UsageError)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if p.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:
            raise UsageError("TOML configs need Python 3.11+; use JSON") from exc
        with open(p, "rb") as fh:
            config = tomllib.load(fh)
    else:
        with open(p, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    _check_sections(config)
    return config


def _settings(cls, args, section: dict, **command_defaults):
    """Build the settings dataclass ``cls``; later layers override earlier
    ones: its field defaults, ``command_defaults``, the config ``section``,
    then each flag whose dest is a field name."""
    values = {**command_defaults, **section}
    for field in dataclasses.fields(cls):
        flag = getattr(args, field.name, None)
        if flag is not None:
            values[field.name] = flag
    return cls(**values)


def _agent_config(args, config: dict) -> agent.AgentConfig:
    return _settings(agent.AgentConfig, args, config.get("agent", {}))


def _seed(args, config: dict) -> int:
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    return seed


def _endpoint_config(config: dict) -> llm.EndpointConfig:
    section = config.get("llm")
    if not section or "base_url" not in section or "model_name" not in section:
        raise UsageError("--policy llm needs a config file with an [llm] section "
                         "providing base_url and model_name")
    return llm.EndpointConfig(**section)


def _load_retriever(args, config: dict) -> retrieval.Retriever:
    index_path = getattr(args, "index", None)
    if index_path is None:
        index_path = config.get("retriever", {}).get("index")
    if index_path:
        return retrieval.Retriever(retrieval.load_index(index_path))
    world_path = getattr(args, "world", None)
    if world_path:
        world = synth.load_world(world_path)
        return retrieval.Retriever(retrieval.build_index(synth.render_corpus(world)))
    raise UsageError("need --index (or a retriever.index config entry) or --world")


def _load_params(path, agent_config: agent.AgentConfig) -> TabularPolicyParams:
    """Read a params file whose record head covers every document a hop of
    ``agent_config`` may record from: ``rerank_keep`` of them under
    ``rerank``, ``k`` otherwise."""
    params = TabularPolicyParams.load(path)
    name, needed = (("rerank_keep", agent_config.rerank_keep) if agent_config.rerank
                    else ("k", agent_config.k))
    width = len(params.record_logits)
    if width < needed:
        raise NarrowRecordHead(f"{path}: record head of width {width} is narrower "
                               f"than the {needed} documents a hop records from "
                               f"({name} {needed})")
    return params


def _load_policy(args, config: dict, agent_config: agent.AgentConfig):
    if args.policy == "llm":
        client = llm.HttpChatClient(_endpoint_config(config))
        return llm.ChatPolicy(client)
    world_path = getattr(args, "world", None)
    if not world_path:
        raise UsageError("--policy tabular needs --world for the relation vocabulary")
    world = synth.load_world(world_path)
    params_path = getattr(args, "params", None)
    if params_path:
        params = _load_params(params_path, agent_config)
    else:
        params = TabularPolicyParams.uniform(len(world.relations),
                                             agent_config.budget, agent_config.k)
    return TabularPolicy(params, world.relations)


def _emit(args, human: str, payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, ensure_ascii=False))
    else:
        print(human)


# -- subcommands ---------------------------------------------------------------


def cmd_ingest(args, config: dict) -> int:
    passages = trajectory.read_passages_jsonl(args.corpus)
    out = Path(args.index)
    out.mkdir(parents=True, exist_ok=True)
    retrieval.save_passages(passages, out)
    _emit(args, f"indexed {len(passages)} passages",
          {"indexed": len(passages), "index": str(out / retrieval.INDEX_FILENAME)})
    return EXIT_OK


def cmd_synth_world(args, config: dict) -> int:
    seed = _seed(args, config)
    if args.questions < 1:
        raise UsageError(f"--questions must be >= 1, got {args.questions}")
    world = synth.generate_world(args.entities, args.relations, args.hops,
                                 args.density, seed)
    corpus = synth.render_corpus(world)
    sequence = None
    if args.align_relations:
        sequence = synth.best_relation_sequence(world, distinct_nodes=args.distinct_nodes)
    examples = synth.make_questions(world, args.questions, seed,
                                    relation_sequence=sequence,
                                    distinct_nodes=args.distinct_nodes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    synth.save_world(world, out / "world.json")
    trajectory.write_passages_jsonl(out / "corpus.jsonl", corpus)
    trajectory.write_examples_jsonl(out / "examples.jsonl", examples)
    _emit(args,
          f"world with {len(world.facts)} facts, {len(corpus)} passages, "
          f"{len(examples)} questions -> {out}",
          {"facts": len(world.facts), "passages": len(corpus),
           "questions": len(examples), "out": str(out)})
    return EXIT_OK


def cmd_ask(args, config: dict) -> int:
    agent_config = _agent_config(args, config)
    retriever = _load_retriever(args, config)
    policy = _load_policy(args, config, agent_config)
    rng = agent.episode_rng(_seed(args, config), args.question, 0)
    result = agent.run_episode(args.question, policy, retriever, agent_config, rng)
    transcript = trajectory.render_transcript(result.trajectory, result.answer)
    _emit(args, transcript,
          {"question": args.question, "answer": result.answer,
           "transcript": transcript, "steps": len(result.trajectory.steps)})
    return EXIT_OK


def cmd_explore(args, config: dict) -> int:
    agent_config = _agent_config(args, config)
    retriever = _load_retriever(args, config)
    examples = trajectory.read_examples_jsonl(args.examples)
    policy = _load_policy(args, config, agent_config)
    explored = training.explore(examples, policy, retriever, agent_config,
                                args.samples, _seed(args, config), jobs=args.jobs)
    errors = [exc for found in explored for _i, exc in found.errors]
    if errors:
        return _fail(errors[0], f" ({len(errors)} of "
                                f"{len(examples) * args.samples} episodes failed)")
    records = [trajectory.TrajectoryRecord(id=f"{found.example.id}/{i}",
                                           trajectory=result.trajectory,
                                           answer=result.answer)
               for found in explored for i, result in found.results]
    n = trajectory.write_trajectories_jsonl(args.out, records)
    _emit(args, f"explored {n} trajectories over {len(examples)} examples -> {args.out}",
          {"trajectories": n, "examples": len(examples), "out": str(args.out)})
    return EXIT_OK


def _group_by_example(pairs, examples):
    """Examples by id, and per example id its ``(sample, record id, item)``
    triples from the ``(record id, item)`` pairs, in sample order."""
    by_id = {ex.id: ex for ex in examples}
    groups: dict[str, list] = {ex.id: [] for ex in examples}
    for rec_id, item in pairs:
        ex_id, sample = rec_id_parts(rec_id)
        if ex_id not in by_id:
            raise UnknownId(f"trajectory references unknown example id {ex_id!r}")
        groups[ex_id].append((sample, rec_id, item))
    for group in groups.values():
        group.sort(key=lambda entry: entry[0])
    return by_id, groups


def rec_id_parts(record_id: str) -> tuple[str, int]:
    """(example id, sample index) of an ``<example id>/<sample index>`` record
    id; an id without an integer suffix is the example id, at sample 0."""
    ex_id, sep, sample = record_id.rpartition("/")
    if not sep:
        return record_id, 0
    try:
        return ex_id, int(sample)
    except ValueError:
        return record_id, 0


def cmd_weigh(args, config: dict) -> int:
    examples = trajectory.read_examples_jsonl(args.examples)
    records = trajectory.read_trajectories_jsonl(args.trajectories)
    by_id, groups = _group_by_example(((rec.id, rec) for rec in records), examples)

    policy = None
    if args.mode == "posterior-logprob":
        policy = _load_policy(args, config, _agent_config(args, config))

    out_items = []
    for ex_id, group in groups.items():
        if not group:
            continue
        samples = [(rec.trajectory, rec.answer or "") for _s, _rid, rec in group]
        batch = training.weigh(by_id[ex_id], samples, args.mode, policy)
        out_items += [(rid, wt) for (_s, rid, _rec), wt in zip(group, batch.items)]
    n = trajectory.write_weighted_jsonl(args.out, out_items)
    _emit(args, f"weighted {n} trajectories ({args.mode}) -> {args.out}",
          {"weighted": n, "mode": args.mode, "out": str(args.out)})
    return EXIT_OK


def cmd_train(args, config: dict) -> int:
    world = synth.load_world(args.world)
    retriever = retrieval.Retriever(retrieval.build_index(synth.render_corpus(world)))
    examples = trajectory.read_examples_jsonl(args.examples)
    val = trajectory.read_examples_jsonl(args.val) if args.val else None
    agent_config = _agent_config(args, config)

    exact = args.mode == "exact"
    train_config = _settings(training.TrainConfig, args, config.get("trainer", {}),
                             e_step_mode="exact-enumeration" if exact else "sampled",
                             validation_metric="loglik" if exact else "em")
    if args.params_in:
        params = _load_params(args.params_in, agent_config)
    else:
        params = TabularPolicyParams.uniform(len(world.relations),
                                             agent_config.budget, agent_config.k)
    policy = TabularPolicy(params, world.relations)
    reports, final_params = training.em_train(
        examples, policy, retriever, train_config, agent_config,
        seed=_seed(args, config), val_examples=val, jobs=args.jobs)
    training.write_history_csv(args.history, reports)
    final_params.save(args.params_out)
    if not args.json:
        for r in reports:
            loglik = ("" if r.train_loglik is None
                      else f" train_loglik={r.train_loglik:.6f}")
            print(f"iteration {r.iteration}{loglik} elbo={r.elbo:.6f} "
                  f"val={r.validation_score:.6f} failures={r.failures}")
    _emit(args, f"trained {len(reports)} iterations -> {args.params_out}, {args.history}",
          {"iterations": len(reports), "params": str(args.params_out),
           "history": str(args.history),
           "failures": [r.failures for r in reports]})
    return EXIT_OK


def cmd_eval(args, config: dict) -> int:
    dataset = trajectory.read_examples_jsonl(args.dataset)
    predictions = trajectory.read_predictions_jsonl(args.predictions)

    k_list = tuple(int(k) for k in args.k.split(",")) if args.k else ()
    trajectories = None
    lookup = None
    if args.trajectories:
        recs = trajectory.read_trajectories_jsonl(args.trajectories)
        trajectories = {}
        for rec in recs:
            ex_id, _sample = rec_id_parts(rec.id)
            trajectories.setdefault(ex_id, rec.trajectory)
        retriever = _load_retriever(args, config)
        lookup = retriever.get

    report = metrics.evaluate_run(predictions, dataset, k_list,
                                  trajectories=trajectories, passage_lookup=lookup,
                                  use_selected=args.use_selected)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, ensure_ascii=False, indent=2)
            fh.write("\n")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "em", "f1", "acc"])
            for ex in dataset:
                pred = predictions.get(ex.id)
                golds = list(ex.gold_answers)
                if pred is None:
                    writer.writerow([ex.id, 0.0, 0.0, 0.0])
                else:
                    writer.writerow([ex.id,
                                     metrics.exact_match(pred, golds),
                                     metrics.token_f1(pred, golds),
                                     metrics.accuracy(pred, golds)])
    if args.json:
        print(json.dumps(report.to_json_dict(), ensure_ascii=False))
    else:
        parts = [f"em={report.em:.4f}", f"f1={report.f1:.4f}", f"acc={report.acc:.4f}"]
        parts += [f"recall@{k}={v:.4f}" for k, v in sorted(report.recall_at.items())]
        parts += [f"precision@{k}={v:.4f}" for k, v in sorted(report.precision_at.items())]
        parts.append(f"n={report.n_examples}")
        if report.n_missing:
            parts.append(f"missing={report.n_missing}")
        print(" ".join(parts))
    return EXIT_OK


def cmd_export_sft(args, config: dict) -> int:
    examples = trajectory.read_examples_jsonl(args.examples)
    weighted = trajectory.read_weighted_jsonl(args.weighted)
    by_id, groups = _group_by_example(weighted, examples)
    for ex_id, group in groups.items():
        modes = sorted({wt.weight_mode for _s, _rid, wt in group})
        if len(modes) > 1:
            raise InconsistentWeights(f"example {ex_id!r} mixes weight modes {modes}")
        total = math.fsum(wt.weight for _s, _rid, wt in group)
        if group and abs(total - 1.0) > 1e-9:
            raise InconsistentWeights(f"weights of example {ex_id!r} sum to {total!r}, not 1")
    # by (example id, sample index), each under its weighted record's id
    rows = [training.sft_record(rid, by_id[ex_id], wt)
            for ex_id in sorted(groups) for _s, rid, wt in groups[ex_id]]
    n = trajectory.write_jsonl(args.out, rows)
    _emit(args, f"exported {n} weighted records -> {args.out}",
          {"exported": n, "out": str(args.out)})
    return EXIT_OK


def cmd_warmup_format(args, config: dict) -> int:
    k = _agent_config(args, config).k
    examples = trajectory.read_examples_jsonl(args.examples)
    retriever = _load_retriever(args, config)
    records = training.warmup_format(examples, retriever, k)
    n = trajectory.write_jsonl(args.out, records)
    _emit(args, f"formatted {n} warm-up transcripts -> {args.out}",
          {"formatted": n, "out": str(args.out)})
    return EXIT_OK


# -- wiring ---------------------------------------------------------------------


class _Jobs(argparse.Action):
    """Stores ``--jobs``, a worker thread count of at least 1."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 1:
            raise UsageError(f"--jobs must be >= 1, got {value}")
        setattr(namespace, self.dest, value)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="engine config file (JSON; TOML on 3.11+)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--jobs", type=int, default=1, action=_Jobs,
                   help="worker threads for batch commands (pays off only "
                        "for endpoint-bound work)")


def _add_agent_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=None, help="max hops per episode")
    p.add_argument("--k", type=int, default=None, help="retrieval size per hop")
    p.add_argument("--rerank", action="store_true", default=None)
    p.add_argument("--rerank-keep", dest="rerank_keep", type=int, default=None)
    p.add_argument("--dedup", dest="dedup_subqueries", action="store_true", default=None,
                   help="terminate on exact-repeat sub-queries")


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", choices=["tabular", "llm"], default="tabular")
    p.add_argument("--index", help="search index file or directory")
    p.add_argument("--world", help="world manifest JSON (relations + corpus)")
    p.add_argument("--params", help="tabular policy parameters JSON")


def build_parser() -> _Parser:
    parser = _Parser(prog="exsearch",
                     description="agentic retrieval with EM self-training")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a search index from passage JSONL")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth-world", help="generate a synthetic multi-hop world")
    p.add_argument("--entities", type=int, default=20)
    p.add_argument("--relations", type=int, default=4)
    p.add_argument("--hops", type=int, default=2)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--questions", type=int, default=20)
    p.add_argument("--align-relations", dest="align_relations", action="store_true",
                   help="restrict questions to one shared relation sequence "
                        "(learnable by the hop-keyed tabular policy); needs a "
                        "dense world, e.g. --density 1.0 --questions 10, or "
                        "exits 2 with InfeasibleWorld")
    p.add_argument("--distinct-nodes", dest="distinct_nodes", action="store_true",
                   help="exclude chains that revisit an entity")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_synth_world)

    p = sub.add_parser("ask", help="answer a single question")
    p.add_argument("--question", required=True)
    _add_policy_flags(p)
    _add_agent_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_ask)

    p = sub.add_parser("explore", help="collect episodes for a dataset")
    p.add_argument("--examples", required=True)
    p.add_argument("--samples", type=int, default=2)
    p.add_argument("--out", required=True)
    _add_policy_flags(p)
    _add_agent_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("weigh", help="attach importance weights to trajectories")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--examples", required=True)
    p.add_argument("--mode", choices=trajectory.WEIGHT_MODES, default="reward-em")
    p.add_argument("--out", required=True)
    _add_policy_flags(p)
    _add_agent_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_weigh)

    p = sub.add_parser("train", help="tabular EM self-training")
    p.add_argument("--world", required=True)
    p.add_argument("--examples", required=True)
    p.add_argument("--val")
    p.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    p.add_argument("--weight-mode", dest="weight_mode", default=None,
                   choices=trajectory.WEIGHT_MODES)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--samples", dest="samples_per_example", type=int, default=None)
    p.add_argument("--patience", dest="early_stop_patience", type=int, default=None)
    p.add_argument("--val-metric", dest="validation_metric", default=None,
                   choices=training.VALIDATION_METRICS)
    p.add_argument("--params-in", dest="params_in")
    p.add_argument("--params-out", dest="params_out", required=True)
    p.add_argument("--history", required=True)
    _add_agent_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score predictions against a dataset")
    p.add_argument("--predictions", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--k", default="", help="comma-separated K values for retrieval metrics")
    p.add_argument("--trajectories", help="trajectory JSONL for retrieval metrics")
    p.add_argument("--use-selected", dest="use_selected", action="store_true")
    p.add_argument("--index")
    p.add_argument("--world")
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--csv", help="write the per-example CSV here")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-sft", help="weighted trajectories -> SFT records")
    p.add_argument("--weighted", required=True)
    p.add_argument("--examples", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_export_sft)

    p = sub.add_parser("warmup-format", help="annotated examples -> transcripts")
    p.add_argument("--examples", required=True)
    p.add_argument("--k", type=int, default=None, help="retrieval size per hop")
    p.add_argument("--out", required=True)
    p.add_argument("--index")
    p.add_argument("--world")
    _add_common(p)
    p.set_defaults(func=cmd_warmup_format)

    return parser


def _fail(exc: Exception, detail: str = "") -> int:
    """Print the one-line error for ``exc`` and return its exit code."""
    print(f"exsearch: error: {type(exc).__name__}: {exc}{detail}", file=sys.stderr)
    if isinstance(exc, (UsageError, ValueError)):
        return EXIT_USAGE
    if isinstance(exc, (EndpointError, LogprobsUnsupported)):
        return EXIT_ENDPOINT
    return EXIT_DATA


@functools.cache
def _parser() -> _Parser:
    """The parser :func:`main` uses, built once per process: parsing leaves
    it unchanged, and building it costs about 95 ``add_argument`` calls."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        config = _load_config(args.config)
        return args.func(args, config)
    except (UsageError, ValueError, ExsearchError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
