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
"""

from .agent import AgentConfig, EpisodeResult, episode_rng, rank_documents, run_episode
from .metrics import MetricsReport, accuracy, evaluate_run, exact_match, normalize_answer, token_f1
from .policy import PolicyDecision, TabularPolicy, TabularPolicyParams
from .retrieval import CorpusIndex, Retriever, build_index, load_index, save_index, search, tokenize
from .synth import SyntheticWorld, generate_world, make_questions, render_corpus
from .training import (
    ExampleBatch,
    IterationReport,
    TrainConfig,
    compute_elbo,
    e_step,
    em_train,
    export_weighted_sft,
    factor_masses,
    m_step_tabular,
    normalize_weights,
    warmup_format,
)
from .trajectory import (
    Example,
    ParsedTranscript,
    Passage,
    ScoredPassage,
    Step,
    Trajectory,
    TrajectoryRecord,
    WeightedTrajectory,
    parse_transcript,
    render_transcript,
)

__version__ = "0.1.0"
