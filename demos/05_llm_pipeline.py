"""Driving a chat endpoint: explore, weigh, export.

Runs the full external-training path against the bundled offline stub
server (a rule-based agent speaking the chat-completion protocol): collect
episodes per question, attach importance weights, and export weighted SFT
records an external trainer can consume. Point ``EndpointConfig`` at a real
server and set EXSEARCH_API_KEY to do the same against a live model.
"""

import json
import os
import tempfile
from pathlib import Path

from exsearch.agent import AgentConfig
from exsearch.llm import ChatPolicy, EndpointConfig, HttpChatClient
from exsearch.retrieval import Retriever, build_index
from exsearch.stub import ChainOracleBehavior, StubChatServer
from exsearch.synth import generate_world, make_questions, render_corpus
from exsearch.training import TrainConfig, e_step, export_weighted_sft


def main():
    os.environ.setdefault("EXSEARCH_API_KEY", "offline-demo")
    world = generate_world(n_entities=15, n_relations=2, hop_count=2,
                           fact_density=1.0, seed=3)
    questions = make_questions(world, 5, seed=3)
    retriever = Retriever(build_index(render_corpus(world)))

    with StubChatServer(ChainOracleBehavior()) as server:
        endpoint = EndpointConfig(base_url=server.base_url, model_name="offline-stub",
                                  backoff_base=0.05)
        policy = ChatPolicy(HttpChatClient(endpoint))
        config = TrainConfig(samples_per_example=2, weight_mode="reward-em")
        batches = e_step(questions, policy, retriever, config,
                         AgentConfig(budget=3, k=3), seed=0)

    for batch in batches:
        answers = [wt.answer for wt in batch.items]
        weights = [round(wt.weight, 3) for wt in batch.items]
        print(f"{batch.example.question!r}: gold {batch.example.gold_answers[0]!r}, "
              f"answers {answers}, weights {weights}")

    out = Path(tempfile.gettempdir()) / "demo_weighted_sft.jsonl"
    n = export_weighted_sft(batches, out)
    record = json.loads(out.read_text().splitlines()[0])
    print(f"\nexported {n} weighted records to {out}")
    print("first record's assistant transcript:")
    print(record["messages"][2]["content"])
    print(f"weight={record['weight']:.3f} metrics={record['metrics']}")


if __name__ == "__main__":
    main()
