"""Corpus ingestion and top-K lexical retrieval over an inverted index.

BM25 (k1=0.9, b=0.4) with the non-negative smoothed idf
``ln(1 + (N - df + 0.5) / (df + 0.5))`` so that a passage scores 0 exactly
when it shares no term with the query; zero-scoring passages are never
returned. No stemming or stopword removal; both title and body are indexed.
A query costs one pass over the posting lists of its distinct terms.
The index is immutable after build and safe for concurrent searches.

An index file holds only the passages; everything else in a
:class:`CorpusIndex` is derived from them, so loading one rebuilds the
postings with :func:`build_index`.
"""

from __future__ import annotations

import heapq
import json
import math
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import CorruptIndex, DuplicateId, EmptyIndex, SchemaError, VersionMismatch
from .trajectory import Passage, ScoredPassage, passage_from_dict, passage_to_dict

K1 = 0.9
B = 0.4

INDEX_MAGIC = b"EXSIDX1"
INDEX_VERSION = 2
INDEX_FILENAME = "index.exsidx"

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character, dropping empties."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class CorpusIndex:
    """Inverted index over a passage corpus.

    ``postings`` maps each term to (passage id, term frequency) pairs sorted
    by passage id; ``doc_lengths`` counts indexed tokens per passage.
    """

    postings: dict[str, tuple[tuple[str, int], ...]]
    doc_lengths: dict[str, int]
    avg_doc_length: float
    doc_count: int
    passages: dict[str, Passage]


def indexed_text(passage: Passage) -> str:
    """The text a passage is indexed (and searched) under."""
    return f"{passage.title} {passage.text}"


def build_index(passages: Iterable[Passage]) -> CorpusIndex:
    """Build an inverted index; raises DuplicateId on repeated passage ids."""
    store: dict[str, Passage] = {}
    for p in passages:
        if p.id in store:
            raise DuplicateId(f"duplicate passage id: {p.id!r}")
        store[p.id] = p

    counts: dict[str, dict[str, int]] = {}
    doc_lengths: dict[str, int] = {}
    for pid, p in store.items():
        tokens = tokenize(indexed_text(p))
        doc_lengths[pid] = len(tokens)
        for tok in tokens:
            counts.setdefault(tok, {}).setdefault(pid, 0)
            counts[tok][pid] += 1

    postings = {
        term: tuple(sorted(per_doc.items()))
        for term, per_doc in sorted(counts.items())
    }
    n = len(store)
    avg = (sum(doc_lengths.values()) / n) if n else 0.0
    return CorpusIndex(postings=postings, doc_lengths=doc_lengths,
                       avg_doc_length=avg, doc_count=n, passages=store)


def search(index: CorpusIndex, query: str, k: int) -> list[ScoredPassage]:
    """Top-k BM25 retrieval.

    Results are sorted by score descending with ties broken by ascending
    passage id; passages scoring 0 are excluded. Raises EmptyIndex when the
    index holds no documents.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if index.doc_count == 0:
        raise EmptyIndex("cannot search an empty index")
    avg = index.avg_doc_length
    scores: dict[str, float] = {}
    # Term at a time, in query order: every passage sums its terms' shares
    # in the same order, so equal inputs give exactly equal (tied) scores.
    for term in dict.fromkeys(tokenize(query)):
        plist = index.postings.get(term, ())
        df = len(plist)
        idf = math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))
        for pid, tf in plist:
            norm = K1 * (1.0 - B + B * index.doc_lengths[pid] / avg) if avg else K1
            scores[pid] = scores.get(pid, 0.0) + idf * (K1 + 1.0) * tf / (tf + norm)
    ranked = heapq.nsmallest(k, scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [ScoredPassage(passage_ref=pid, score=s, rank=i)
            for i, (pid, s) in enumerate(ranked, 1)]


@dataclass
class Retriever:
    """Search interface handed to agents: (query, k) -> scored passages.

    This is the seam for alternative retrieval backends; the bundled
    implementation wraps a CorpusIndex.
    """

    index: CorpusIndex
    cache: dict[tuple[str, int], tuple[ScoredPassage, ...]] = field(default_factory=dict)

    def search(self, query: str, k: int) -> list[ScoredPassage]:
        key = (query, k)
        if key not in self.cache:
            self.cache[key] = tuple(search(self.index, query, k))
        return list(self.cache[key])

    def get(self, passage_id: str) -> Passage:
        return self.index.passages[passage_id]

    def resolve(self, hits: Iterable[ScoredPassage]) -> list[Passage]:
        return [self.index.passages[h.passage_ref] for h in hits]


def save_index(index: CorpusIndex, path) -> None:
    """Persist an index: magic header, format-version byte, then the
    zlib-compressed JSON list of its passage records. The postings are not
    stored; :func:`load_index` rebuilds them."""
    records = [passage_to_dict(p) for p in index.passages.values()]
    payload = zlib.compress(json.dumps(records, ensure_ascii=False).encode("utf-8"))
    path = Path(path)
    if path.is_dir():
        path = path / INDEX_FILENAME
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(bytes([INDEX_VERSION]))
        fh.write(payload)


def load_index(path) -> CorpusIndex:
    """Load an index written by :func:`save_index`, rebuilding its postings
    from the stored passages with :func:`build_index`.

    Raises CorruptIndex on a bad magic header, an undecodable body, a body
    that is not a list of passage records, a malformed record or a repeated
    passage id; raises VersionMismatch on any other format-version byte,
    which includes files from before the passages-only format.
    """
    path = Path(path)
    if path.is_dir():
        path = path / INDEX_FILENAME
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(INDEX_MAGIC)] != INDEX_MAGIC:
        raise CorruptIndex(f"{path}: bad magic header")
    if len(blob) < len(INDEX_MAGIC) + 1:
        raise CorruptIndex(f"{path}: truncated file")
    version = blob[len(INDEX_MAGIC)]
    if version != INDEX_VERSION:
        raise VersionMismatch(
            f"{path}: unsupported index version {version} (this build reads "
            f"version {INDEX_VERSION}); re-run `exsearch ingest` on the corpus")
    try:
        records = json.loads(zlib.decompress(blob[len(INDEX_MAGIC) + 1:]))
    except (ValueError, zlib.error) as exc:
        raise CorruptIndex(f"{path}: undecodable index body ({exc})") from exc
    if not isinstance(records, list) or not all(isinstance(d, dict) for d in records):
        raise CorruptIndex(f"{path}: index body is not a list of passage records")
    try:
        return build_index([passage_from_dict(d) for d in records])
    except (SchemaError, DuplicateId) as exc:
        raise CorruptIndex(f"{path}: {exc}") from exc
