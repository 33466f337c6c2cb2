"""exsearch: an agentic retrieval engine with an EM self-training loop.

The package splits into:

* :mod:`exsearch.trajectory` — episode data structures, the transcript
  grammar, JSONL schemas;
* :mod:`exsearch.retrieval` — BM25 inverted-index search and persistence;
* :mod:`exsearch.synth` — tractable synthetic multi-hop QA worlds;
* :mod:`exsearch.policy` — the decision interface and its enumerable
  tabular implementation;
* :mod:`exsearch.llm` — chat-endpoint client and chat-driven policy;
* :mod:`exsearch.agent` — the think/search/record episode loop;
* :mod:`exsearch.training` — exploration, importance weighting, closed-form
  updates, likelihood tracking, weighted-SFT export;
* :mod:`exsearch.metrics` — answer and retrieval evaluation;
* :mod:`exsearch.stub` — offline chat-completion stub server;
* :mod:`exsearch.cli` — the ``exsearch`` command.

Import each name from its module (``from exsearch.retrieval import
build_index``). The package root re-exports nothing, so importing one module
loads only what that module imports: :mod:`exsearch.trajectory`,
:mod:`exsearch.retrieval`, :mod:`exsearch.metrics` and :mod:`exsearch.errors`
load neither numpy nor the policy, agent or training modules, and
:mod:`exsearch.stub` needs only the standard library and
:mod:`exsearch.trajectory`, whose reader of the transcript grammar it uses.
"""

__version__ = "0.1.0"
