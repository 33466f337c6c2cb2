"""Corpus ingestion and top-K lexical retrieval over an inverted index.

BM25 (k1=0.9, b=0.4) with the non-negative smoothed idf
``ln(1 + (N - df + 0.5) / (df + 0.5))`` so that a passage scores 0 exactly
when it shares no term with the query; zero-scoring passages are never
returned. No stemming or stopword removal; both title and body are indexed.
A term's idf and a passage's length norm are fixed once the index is built,
so :func:`build_index` stores each posting's whole BM25 weight. A query reads
the posting lists of its distinct terms shortest first and stops reading
them once the weights the rest could add cannot reach its top k (exact
MaxScore, Turtle & Flood 1995); each passage it reads is scored in full.
The index is immutable after build and safe for concurrent searches.

An index file holds only the passages, stored as columns (ids, titles,
texts, and the extras of the passages that have any); everything else in a
:class:`CorpusIndex` is derived from them, so loading one rebuilds the
postings with :func:`build_index`.
"""

from __future__ import annotations

import heapq
import json
import math
import re
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import CorruptIndex, DuplicateId, EmptyIndex, VersionMismatch
from .trajectory import Passage, ScoredPassage

K1 = 0.9
B = 0.4
# A term's weight scale * tf / (tf + norm) is below its bound scale, the
# build's idf * (K1 + 1), since norm >= K1 * (1 - B) > 0. Rounding can put a
# sum of m weights about m * 1.1e-16 of itself above the exact sum; search
# stops only when the bounds fall short of the k-th score by far more.
_BOUND_MARGIN = 1e-9

INDEX_MAGIC = b"EXSIDX1"
INDEX_VERSION = 3
INDEX_FILENAME = "index.exsidx"
# On a 10,000-passage corpus, level 3 compresses the body in about a third
# of the time the default level 6 takes, and the file (108.8 kB) is still
# smaller than version 2's record list at level 6 (113.0 kB); at level 1 it
# would be larger (116.3 kB).
INDEX_ZLIB_LEVEL = 3
_BODY_KEYS = frozenset(("id", "title", "text", "extras"))

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character, dropping empties."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class CorpusIndex:
    """Inverted index over a passage corpus.

    ``postings`` maps each term to ``{passage id: BM25 weight}`` for the
    passages holding it, the weight being ``idf * (K1 + 1) * tf / (tf + norm)``
    with the idf and the passage's length norm applied at build.
    """

    postings: dict[str, dict[str, float]]
    doc_count: int
    passages: dict[str, Passage]


def build_index(passages: Iterable[Passage]) -> CorpusIndex:
    """Build an inverted index; raises DuplicateId on repeated passage ids."""
    store: dict[str, Passage] = {}
    for p in passages:
        if p.id in store:
            raise DuplicateId(f"duplicate passage id: {p.id!r}")
        store[p.id] = p

    postings: defaultdict[str, dict[str, float]] = defaultdict(dict)
    lengths: dict[str, int] = {}
    for pid, p in store.items():
        tokens = tokenize(f"{p.title} {p.text}")
        lengths[pid] = len(tokens)
        for tok in tokens:
            per_doc = postings[tok]
            per_doc[pid] = per_doc.get(pid, 0) + 1

    n = len(store)
    avg = (sum(lengths.values()) / n) if n else 0.0
    for per_doc in postings.values():
        df = len(per_doc)
        # scale * tf is idf * (K1 + 1.0) * tf evaluated left to right, so a
        # weight has the bits of the BM25 expression written out in full.
        # Any posting means some passage has tokens, so avg > 0 here.
        scale = math.log(1.0 + (n - df + 0.5) / (df + 0.5)) * (K1 + 1.0)
        for pid, tf in per_doc.items():  # each count becomes its weight
            per_doc[pid] = scale * tf / (tf + K1 * (1.0 - B + B * lengths[pid] / avg))
    return CorpusIndex(postings=dict(postings), doc_count=n, passages=store)


def search(index: CorpusIndex, query: str, k: int) -> list[ScoredPassage]:
    """Top-k BM25 retrieval.

    Results are sorted by score descending with ties broken by ascending
    passage id; passages scoring 0 are excluded. Raises EmptyIndex when the
    index holds no documents.

    A term's weights lie below its bound ``idf * (K1 + 1)``. The posting
    lists are read shortest first, and reading stops before a list once the
    bounds of the lists left add up to less than the k-th best score so far:
    no passage found only in those lists can enter the top k. Every passage
    read is scored in full, its weights added in query order from 0.0, so
    the results and their scores are those of adding up every list.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if index.doc_count == 0:
        raise EmptyIndex("cannot search an empty index")
    get = index.postings.get
    lists = [per_doc for term in dict.fromkeys(tokenize(query)) if (per_doc := get(term))]
    if not lists:
        return []
    floor = None
    if len(lists) == 1:
        scores = lists[0]  # 0.0 + w is w
    else:
        # The shortest list has the highest idf, hence the highest bound. A
        # passage's weights added in query order from 0.0 have the bits of a
        # term-at-a-time sum, so equal inputs still give exactly tied scores.
        scores = {}
        n = index.doc_count
        order = sorted(lists, key=len)
        for i, per_doc in enumerate(order):
            if i:
                if len(scores) >= k:
                    bound = sum(math.log(1.0 + (n - len(rest) + 0.5) / (len(rest) + 0.5))
                                * (K1 + 1.0) for rest in order[i:]) * (1.0 + _BOUND_MARGIN)
                    above = [s for s in scores.values() if s > bound]
                    if len(above) >= k:
                        # A passage in none of the lists read scores below
                        # bound: it can neither enter the top k nor tie with
                        # its last entry, whose score is the k-th of above.
                        floor = sorted(above, reverse=True)[k - 1]
                        break
                per_doc = per_doc.keys() - scores.keys()
            for pid in per_doc:
                score = 0.0
                for weights in lists:
                    score += weights.get(pid, 0.0)
                scores[pid] = score
    # Every passage in the top k scores at least the k-th largest score;
    # sorting those few by id, then stably by score, breaks ties by id.
    if floor is None:
        floor = heapq.nlargest(k, scores.values())[-1]
    ranked = sorted(pid for pid, s in scores.items() if s >= floor)
    ranked.sort(key=scores.__getitem__, reverse=True)
    return [ScoredPassage(passage_ref=pid, score=scores[pid], rank=i)
            for i, pid in enumerate(ranked[:k], 1)]


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


def save_passages(passages: Iterable[Passage], path) -> None:
    """Write the index file of ``passages`` without building the index;
    raises DuplicateId on a repeated passage id.

    The file holds a magic header, the format-version byte, then the JSON
    object of the passage columns, compressed at zlib level
    :data:`INDEX_ZLIB_LEVEL`. ``id``, ``title`` and ``text`` are parallel
    lists in passage order; ``extras`` maps the decimal row number of each
    passage with non-empty extras to them. The postings are not stored;
    :func:`load_index` rebuilds them."""
    passages = list(passages)
    seen: set[str] = set()
    for p in passages:
        if p.id in seen:
            raise DuplicateId(f"duplicate passage id: {p.id!r}")
        seen.add(p.id)
    body = {"id": [p.id for p in passages],
            "title": [p.title for p in passages],
            "text": [p.text for p in passages],
            "extras": {str(row): p.extras for row, p in enumerate(passages) if p.extras}}
    payload = zlib.compress(json.dumps(body, ensure_ascii=False).encode("utf-8"),
                            INDEX_ZLIB_LEVEL)
    path = Path(path)
    if path.is_dir():
        path = path / INDEX_FILENAME
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(bytes([INDEX_VERSION]))
        fh.write(payload)


def save_index(index: CorpusIndex, path) -> None:
    """Persist an index: the file :func:`save_passages` writes for its passages."""
    save_passages(index.passages.values(), path)


def _passages_from_columns(body) -> list[Passage]:
    """The passages of an index body, in row order; raises ValueError when
    the body is not the column object :func:`save_index` writes or a row is
    not a valid passage."""
    if type(body) is not dict or body.keys() != _BODY_KEYS:
        raise ValueError("index body is not an object with exactly the keys "
                         "id, title, text and extras")
    for name in ("id", "title", "text"):
        column = body[name]
        if type(column) is not list or not {str}.issuperset(map(type, column)):
            raise ValueError(f"index column {name!r} is not a list of strings")
    n = len(body["id"])
    if not n == len(body["title"]) == len(body["text"]):
        raise ValueError(f"index columns differ in length: id {n}, title "
                         f"{len(body['title'])}, text {len(body['text'])}")
    if type(body["extras"]) is not dict:
        raise ValueError("index extras is not an object")
    passages = [Passage(*fields) for fields in zip(body["id"], body["title"], body["text"])]
    # Few passages carry extras: rebuilding those beats a lookup for every row.
    for key, value in body["extras"].items():
        row = int(key) if key.isascii() and key.isdigit() else -1
        if not (str(row) == key and 0 <= row < n):
            raise ValueError(f"index extras key {key!r} is not a row number below {n}")
        if type(value) is not dict:
            raise ValueError(f"index extras row {key} is not an object")
        p = passages[row]
        passages[row] = Passage(p.id, p.title, p.text, value)
    return passages


def load_index(path) -> CorpusIndex:
    """Load an index written by :func:`save_index`, rebuilding its postings
    from the stored passages with :func:`build_index`.

    Raises CorruptIndex on a bad magic header, an undecodable body, a body
    that is not the object of passage columns, an empty id or text, extras
    that reuse a field name, or a repeated passage id; raises VersionMismatch
    on any other format-version byte, which includes the version-1 files
    that stored the postings and the version-2 files that stored a list of
    passage records.
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
        body = json.loads(zlib.decompress(blob[len(INDEX_MAGIC) + 1:]))
    except (ValueError, zlib.error) as exc:
        raise CorruptIndex(f"{path}: undecodable index body ({exc})") from exc
    try:
        return build_index(_passages_from_columns(body))
    except (ValueError, DuplicateId) as exc:
        raise CorruptIndex(f"{path}: {exc}") from exc
