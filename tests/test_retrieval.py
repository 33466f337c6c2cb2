import dataclasses
import heapq
import json
import math
import re
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutated
from exsearch import synth
from exsearch.errors import CorruptIndex, DuplicateId, EmptyIndex, VersionMismatch
from exsearch.retrieval import (
    INDEX_MAGIC,
    INDEX_VERSION,
    B,
    K1,
    build_index,
    load_index,
    save_index,
    save_passages,
    search,
    tokenize,
)
from exsearch.trajectory import Passage, ScoredPassage


def reference_search(index, query: str, k: int) -> list[ScoredPassage]:
    """Term-at-a-time search: every posting of every distinct query term
    added in query order, then the same top-k selection as ``search``."""
    scores: dict[str, float] = {}
    get = scores.get
    for term in dict.fromkeys(tokenize(query)):
        for pid, w in index.postings.get(term, {}).items():
            scores[pid] = get(pid, 0.0) + w
    if not scores:
        return []
    floor = heapq.nlargest(k, scores.values())[-1]
    ranked = sorted(pid for pid, s in scores.items() if s >= floor)
    ranked.sort(key=scores.__getitem__, reverse=True)
    return [ScoredPassage(passage_ref=pid, score=scores[pid], rank=i)
            for i, pid in enumerate(ranked[:k], 1)]


def brute_force_bm25(passages: list[Passage], query: str) -> dict[str, float]:
    """Independent BM25 oracle: explicit loops over documents and terms."""
    texts = {p.id: (p.title + " " + p.text).lower() for p in passages}
    docs = {pid: re.findall(r"[^\W_]+", text) for pid, text in texts.items()}
    n = len(docs)
    avgdl = sum(len(toks) for toks in docs.values()) / n if n else 0.0
    scores = {}
    q_terms = []
    for term in re.findall(r"[^\W_]+", query.lower()):
        if term not in q_terms:
            q_terms.append(term)
    for pid, toks in docs.items():
        counts = Counter(toks)
        score = 0.0
        for term in q_terms:
            tf = counts.get(term, 0)
            if tf == 0:
                continue
            df = sum(1 for other in docs.values() if term in other)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            score += idf * (K1 + 1) * tf / (tf + K1 * (1 - B + B * len(toks) / avgdl))
        scores[pid] = score
    return scores


def passages_from(texts: dict[str, str]) -> list[Passage]:
    return [Passage(id=pid, title=pid, text=text) for pid, text in texts.items()]


def passages_with_extras() -> list[Passage]:
    """Passages of which some carry extras (a nested value, a non-ASCII
    string) and some carry none."""
    return [Passage(id="p0", title="Zürich", text="alpha beta",
                    extras={"source": {"url": "https://example.org/z", "tags": ["a", 1]}}),
            Passage(id="p1", title="t", text="beta gamma"),
            Passage(id="p2", title="t", text="gamma delta", extras={"lang": "日本語"}),
            Passage(id="p3", title="t", text="delta alpha")]


def columns_body(ids, titles, texts, extras=None) -> dict:
    """A version-3 index body holding the given columns."""
    return {"id": ids, "title": titles, "text": texts, "extras": extras or {}}


class TestTokenize:
    def test_punctuation_and_case(self):
        assert tokenize("Arthur's Magazine (1844)") == ["arthur", "s", "magazine", "1844"]

    def test_empty(self):
        assert tokenize("") == []

    def test_idempotent_under_join(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            raw = "".join(chr(int(rng.integers(32, 127))) for _ in range(30))
            once = tokenize(raw)
            assert tokenize(" ".join(once)) == once


class TestBuildIndex:
    def test_empty_corpus(self):
        index = build_index([])
        assert index.doc_count == 0 and index.postings == {}

    def test_postings_match_brute_force_counts(self):
        passages = passages_from({
            "p1": "alpha beta alpha",
            "p2": "beta gamma",
            "p3": "alpha delta delta",
        })
        index = build_index(passages)
        docs = {p.id: Counter(tokenize(p.title + " " + p.text)) for p in passages}
        lengths = {pid: sum(c.values()) for pid, c in docs.items()}
        avgdl = sum(lengths.values()) / len(docs)
        expected: dict[str, dict[str, float]] = {}
        for term in {t for c in docs.values() for t in c}:
            holders = [pid for pid, c in docs.items() if term in c]
            df = len(holders)
            idf = math.log(1.0 + (len(docs) - df + 0.5) / (df + 0.5))
            # Within one term and passage the weight rises strictly with tf,
            # so equal weights also pin the term frequencies.
            expected[term] = {
                pid: idf * (K1 + 1) * docs[pid][term]
                / (docs[pid][term] + K1 * (1 - B + B * lengths[pid] / avgdl))
                for pid in holders}
        assert index.postings == expected
        assert index.doc_count == 3

    def test_passage_order_does_not_matter(self):
        rng = np.random.default_rng(3)
        vocab = [f"w{i}" for i in range(12)]
        passages = passages_from({
            f"p{i:03d}": " ".join(vocab[int(j)] for j in rng.integers(0, 12, size=5))
            for i in range(60)})
        shuffled = [passages[int(i)] for i in rng.permutation(len(passages))]
        index, reordered = build_index(passages), build_index(shuffled)
        assert reordered.postings == index.postings
        for _ in range(20):
            query = " ".join(vocab[int(j)] for j in rng.integers(0, 12, size=3))
            for k in (1, 4, index.doc_count):
                assert search(reordered, query, k) == search(index, query, k)

    def test_duplicate_id_rejected(self):
        passages = [Passage(id="x", title="a", text="a"),
                    Passage(id="x", title="b", text="b")]
        with pytest.raises(DuplicateId, match="x"):
            build_index(passages)


class TestSearch:
    def test_no_matching_term_returns_empty(self):
        index = build_index(passages_from({"p1": "alpha beta"}))
        assert search(index, "zeta", 5) == []

    def test_single_passage_hit(self):
        index = build_index(passages_from({"p1": "alpha beta"}))
        hits = search(index, "alpha", 5)
        assert [h.passage_ref for h in hits] == ["p1"]
        assert hits[0].rank == 1 and hits[0].score > 0

    def test_empty_index_raises(self):
        with pytest.raises(EmptyIndex):
            search(build_index([]), "q", 1)

    def test_matches_exhaustive_scoring_on_toy_corpus(self):
        rng = np.random.default_rng(4)
        vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
        passages = passages_from({
            f"p{i:02d}": " ".join(vocab[int(j)] for j in rng.integers(0, 6, size=5))
            for i in range(10)})
        index = build_index(passages)
        for query in ("alpha beta", "gamma", "zeta eps alpha", "delta delta"):
            oracle = brute_force_bm25(passages, query)
            expected = sorted(((pid, s) for pid, s in oracle.items() if s > 0),
                              key=lambda kv: (-kv[1], kv[0]))[:3]
            got = [(h.passage_ref, h.score) for h in search(index, query, 3)]
            assert got == expected

    def test_full_ranking_equals_brute_force_on_200_passages(self):
        rng = np.random.default_rng(11)
        vocab = [f"w{i}" for i in range(30)]
        passages = passages_from({
            f"p{i:03d}": " ".join(vocab[int(j)] for j in rng.integers(0, 30, size=8))
            for i in range(200)})
        index = build_index(passages)
        for qi in range(20):
            query = " ".join(vocab[int(j)] for j in rng.integers(0, 30, size=2))
            oracle = brute_force_bm25(passages, query)
            expected = sorted(((pid, s) for pid, s in oracle.items() if s > 0),
                              key=lambda kv: (-kv[1], kv[0]))
            got = [(h.passage_ref, h.score)
                   for h in search(index, query, index.doc_count)]
            assert got == expected

    def test_deterministic_and_tie_broken_by_id(self):
        passages = passages_from({"pb": "alpha", "pa": "alpha", "pc": "alpha"})
        index = build_index(passages)
        hits = search(index, "alpha", 3)
        assert [h.passage_ref for h in hits] == ["pa", "pb", "pc"]
        assert hits == search(index, "alpha", 3)

    def test_one_posting_lookup_per_distinct_query_term(self):
        class CountingPostings(dict):
            lookups = 0

            def get(self, key, default=None):
                self.lookups += 1
                return super().get(key, default)

            def __getitem__(self, key):
                self.lookups += 1
                return super().__getitem__(key)

        rng = np.random.default_rng(7)
        vocab = [f"w{i}" for i in range(10)]
        index = build_index(passages_from({
            f"p{i:03d}": " ".join(vocab[int(j)] for j in rng.integers(0, 10, size=6))
            for i in range(100)}))
        counted = dataclasses.replace(index, postings=CountingPostings(index.postings))
        hits = search(counted, "w1 w2 w1 w3 absent w2", 5)
        assert counted.postings.lookups == 4
        assert hits == search(index, "w1 w2 w1 w3 absent w2", 5)

    def test_ties_beyond_k_keep_the_smallest_ids(self):
        tied = [f"t{i:02d}" for i in range(12)]
        texts = {pid: "alpha beta" for pid in tied}
        texts.update(top="alpha alpha", other="gamma delta")
        index = build_index(passages_from(dict(reversed(texts.items()))))
        full = search(index, "alpha", index.doc_count)
        assert [h.passage_ref for h in full] == ["top", *tied]
        assert len({h.score for h in full[1:]}) == 1
        for k in range(1, len(full) + 1):
            hits = search(index, "alpha", k)
            assert hits == full[:k]
            assert [h.passage_ref for h in hits[1:]] == tied[:k - 1]

    def test_ties_across_query_terms_are_broken_by_id(self):
        # "alpha" and "beta" have equal df and the passages equal lengths, so
        # both score the same although "pb" is reached through the first term.
        index = build_index(passages_from({"pb": "alpha", "pa": "beta", "pc": "gamma"}))
        hits = search(index, "alpha beta", 2)
        assert [h.passage_ref for h in hits] == ["pa", "pb"]
        assert hits[0].score == hits[1].score
        assert search(index, "alpha beta", 1) == hits[:1]

    @settings(max_examples=80, deadline=None)
    @given(texts=st.lists(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3),
                          min_size=1, max_size=12),
           order=st.permutations(range(12)),
           query=st.lists(st.sampled_from(["a", "b", "c", "absent"]), min_size=1, max_size=3))
    def test_every_k_is_a_prefix_of_the_full_ranking(self, texts, order, query):
        # Three words over at most a dozen short passages: most scores tie,
        # so the k-th score is usually shared beyond position k.
        passages = passages_from({f"p{j:02d}": " ".join(words)
                                  for j, words in zip(order, texts)})
        index = build_index(passages)
        q = " ".join(query)
        full = search(index, q, index.doc_count)
        expected = sorted(((pid, s) for pid, s in brute_force_bm25(passages, q).items()
                           if s > 0), key=lambda kv: (-kv[1], kv[0]))
        assert [(h.passage_ref, h.score) for h in full] == expected
        assert [h.rank for h in full] == list(range(1, len(full) + 1))
        for k in range(1, len(full) + 1):
            assert search(index, q, k) == full[:k]

    def test_zero_scoring_passage_does_not_reorder_prior_results(self):
        base = {"p1": "alpha beta beta", "p2": "alpha alpha gamma", "p3": "beta beta gamma"}
        with_extra = dict(base, p9="delta delta delta")
        order_before = [h.passage_ref for h in
                        search(build_index(passages_from(base)), "alpha beta", 3)]
        after = search(build_index(passages_from(with_extra)), "alpha beta", 4)
        assert [h.passage_ref for h in after] == order_before


@pytest.fixture(scope="module", params=[1, 2])
def world_index(request):
    """A 1000 x 10 world at the given seed and its 10,000-passage index."""
    world = synth.generate_world(1000, 10, 2, 1.0, request.param)
    return world, build_index(synth.render_corpus(world))


class CountingList(dict):
    """A posting list that counts how often it is read as a whole."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()

    def keys(self):
        self.reads += 1
        return super().keys()

    def items(self):
        self.reads += 1
        return super().items()

    def values(self):
        self.reads += 1
        return super().values()


# A vocabulary whose draws make "a" common and "e" rare, so that document
# frequencies, and with them the bounds, differ widely between terms.
SKEWED_TERMS = ["a"] * 8 + ["b"] * 4 + ["c", "c", "d", "e"]


@st.composite
def skewed_corpora(draw):
    """Passages mixing a few terms, each repeated up to 300 times, some of
    them padded with up to 1,000 tokens of a filler no query holds."""
    texts = {}
    for j in range(draw(st.integers(1, 20))):
        runs = draw(st.lists(st.tuples(st.sampled_from(SKEWED_TERMS),
                                       st.one_of(st.just(1), st.integers(1, 300))),
                             min_size=1, max_size=4))
        filler = draw(st.one_of(st.just(0), st.integers(1, 1000)))
        texts[f"p{j:02d}"] = " ".join([" ".join([term] * tf) for term, tf in runs]
                                      + ["pad"] * filler)
    return texts


class TestMaxScore:
    """``search`` stops reading posting lists that cannot reach the top k;
    its results must be those of the term-at-a-time reference, bit for bit
    (scores are positive and finite, so ``==`` compares their bits)."""

    def test_equals_reference_on_10k_passage_worlds(self, world_index):
        world, index = world_index
        rng = np.random.default_rng(0)
        relations = world.relations
        queries = [f"ent{int(rng.integers(1000))} {relations[int(rng.integers(10))]}"
                   for _ in range(40)]
        vocab = sorted(index.postings) + ["absent"]
        queries += [" ".join(vocab[int(i)] for i in rng.integers(0, len(vocab), size=size))
                    for size in rng.integers(1, 6, size=40)]
        queries += [" ".join(relations[int(i)] for i in rng.integers(0, 10, size=3))
                    + f" ent{int(rng.integers(1000))}" for _ in range(10)]
        # A passage's own three terms in a random order: its score adds three
        # weights, whose sum can change in the last bit with their order.
        ids = list(index.passages)
        queries += [" ".join(rng.permutation(tokenize(index.passages[ids[int(i)]].text)))
                    for i in rng.integers(0, len(ids), size=40)]
        for query in queries:
            for k in (1, 3, 10, index.doc_count):
                assert search(index, query, k) == reference_search(index, query, k), (query, k)

    @settings(max_examples=150, deadline=None)
    @given(texts=skewed_corpora(),
           query=st.lists(st.sampled_from(["a", "b", "c", "d", "e", "absent"]),
                          min_size=1, max_size=5))
    def test_equals_reference_on_skewed_corpora(self, texts, query):
        index = build_index(passages_from(texts))
        q = " ".join(query)
        for k in range(1, index.doc_count + 2):
            assert search(index, q, k) == reference_search(index, q, k)

    @settings(max_examples=100, deadline=None)
    @given(texts=skewed_corpora(), heavy=st.integers(1, 1000))
    def test_every_weight_is_below_its_terms_bound(self, texts, heavy):
        texts["heavy"] = " ".join(["e"] * heavy)
        index = build_index(passages_from(texts))
        n = index.doc_count
        for term, per_doc in index.postings.items():
            df = len(per_doc)
            bound = math.log(1 + (n - df + .5) / (df + .5)) * (K1 + 1)
            assert max(per_doc.values()) < bound, term

    def test_k1_entity_relation_query_never_reads_the_relation_list(self, world_index):
        world, index = world_index
        counted = dataclasses.replace(index, postings={
            term: CountingList(per_doc) for term, per_doc in index.postings.items()})
        rng = np.random.default_rng(3)
        for _ in range(50):
            entity = f"ent{int(rng.integers(1000))}"
            relation = world.relations[int(rng.integers(10))]
            query = f"{entity} {relation}"
            counted.postings[entity].reads = counted.postings[relation].reads = 0
            assert search(counted, query, 1) == search(index, query, 1)
            assert counted.postings[relation].reads == 0, query
            assert counted.postings[entity].reads > 0
            # Asking for every passage reads the relation list, so the count
            # above is live.
            everything = index.doc_count
            assert search(counted, query, everything) == search(index, query, everything)
            assert counted.postings[relation].reads > 0, query


@pytest.fixture(scope="module")
def index_file(tmp_path_factory):
    return tmp_path_factory.mktemp("index-fuzz") / "index.exsidx"


class TestPersistence:
    def test_round_trip_preserves_search_results(self, tmp_path):
        rng = np.random.default_rng(2)
        vocab = [f"w{i}" for i in range(20)]
        passages = passages_from({
            f"p{i:03d}": " ".join(vocab[int(j)] for j in rng.integers(0, 20, size=6))
            for i in range(100)})
        index = build_index(passages)
        path = tmp_path / "index.exsidx"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded == index
        for _ in range(20):
            query = " ".join(vocab[int(j)] for j in rng.integers(0, 20, size=2))
            assert search(loaded, query, 5) == search(index, query, 5)

    def test_empty_index_round_trip(self, tmp_path):
        path = tmp_path / "empty.exsidx"
        save_index(build_index([]), path)
        assert load_index(path).doc_count == 0

    def test_magic_header_present(self, tmp_path):
        path = tmp_path / "index.exsidx"
        save_index(build_index(passages_from({"p": "x"})), path)
        blob = path.read_bytes()
        assert blob.startswith(INDEX_MAGIC)
        assert blob[len(INDEX_MAGIC)] == INDEX_VERSION

    def test_wrong_magic_raises_corrupt(self, tmp_path):
        path = tmp_path / "bad.exsidx"
        path.write_bytes(b"NOTANIDX" + b"\x01xxxx")
        with pytest.raises(CorruptIndex):
            load_index(path)

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "vers.exsidx"
        save_index(build_index([]), path)
        blob = bytearray(path.read_bytes())
        blob[len(INDEX_MAGIC)] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_index(path)

    def test_garbled_body_raises_corrupt(self, tmp_path):
        path = tmp_path / "body.exsidx"
        path.write_bytes(INDEX_MAGIC + bytes([INDEX_VERSION]) + b"garbage-not-zlib")
        with pytest.raises(CorruptIndex):
            load_index(path)

    def test_directory_path_uses_default_filename(self, tmp_path):
        index = build_index(passages_from({"p": "alpha"}))
        save_index(index, tmp_path)
        assert load_index(tmp_path) == index

    def test_save_passages_writes_the_bytes_of_save_index(self, tmp_path):
        passages = passages_with_extras() + synth.render_corpus(
            synth.generate_world(20, 3, 2, 1.0, 1))
        save_passages(passages, tmp_path / "passages.exsidx")
        save_index(build_index(passages), tmp_path / "index.exsidx")
        assert ((tmp_path / "passages.exsidx").read_bytes()
                == (tmp_path / "index.exsidx").read_bytes())

    def test_save_passages_rejects_a_repeated_id(self, tmp_path):
        path = tmp_path / "index.exsidx"
        with pytest.raises(DuplicateId, match="x"):
            save_passages([Passage(id="x", title="a", text="a"),
                           Passage(id="x", title="b", text="b")], path)
        assert not path.exists()

    def test_round_trip_on_10k_passage_world(self, tmp_path):
        world = synth.generate_world(1000, 10, 2, 1.0, 5)
        built = build_index(synth.render_corpus(world))
        path = tmp_path / "index.exsidx"
        save_index(built, path)
        loaded = load_index(path)
        assert built.doc_count == 10_000
        assert loaded == built
        assert list(loaded.postings) == list(built.postings)
        assert list(loaded.passages) == list(built.passages)
        body = json.loads(zlib.decompress(path.read_bytes()[len(INDEX_MAGIC) + 1:]))
        assert body == {"id": [p.id for p in built.passages.values()],
                        "title": [p.title for p in built.passages.values()],
                        "text": [p.text for p in built.passages.values()],
                        "extras": {}}

        rng = np.random.default_rng(5)
        queries = [ex.question for ex in synth.make_questions(world, 20, 5)]
        queries += [f"ent{int(rng.integers(1000))} {world.relations[int(rng.integers(10))]}"
                    for _ in range(20)]
        vocab = sorted(built.postings) + ["absent", "nowhere"]
        queries += [" ".join(vocab[int(i)] for i in rng.integers(0, len(vocab), size=4))
                    for _ in range(20)]

        def ranked(index, query, k):
            return [(h.passage_ref, h.rank, h.score.hex()) for h in search(index, query, k)]

        for query in queries:
            for k in (1, 5, 50):
                assert ranked(loaded, query, k) == ranked(built, query, k)

    @staticmethod
    def _write_body(path, body, version=INDEX_VERSION):
        payload = zlib.compress(json.dumps(body).encode("utf-8"))
        path.write_bytes(INDEX_MAGIC + bytes([version]) + payload)

    @pytest.mark.parametrize("body, message", [
        (columns_body(["p"], ["t"], []), "columns differ in length: id 1, title 1, text 0"),
        (columns_body(["p"], ["t"], [""]), "empty text"),
        (columns_body([["p"]], ["t"], ["alpha"]), "column 'id' is not a list of strings"),
    ], ids=["records0-missing required field 'text'", "records1-empty text",
            "records2-unhashable"])
    def test_malformed_record_raises_corrupt(self, tmp_path, body, message):
        path = tmp_path / "rec.exsidx"
        self._write_body(path, body)
        with pytest.raises(CorruptIndex, match=rf"rec\.exsidx: .*{message}"):
            load_index(path)

    def test_repeated_passage_id_raises_corrupt(self, tmp_path):
        path = tmp_path / "dup.exsidx"
        self._write_body(path, columns_body(["p", "p"], ["t", "t"], ["alpha", "alpha"]))
        with pytest.raises(CorruptIndex, match=r"dup\.exsidx: duplicate passage id"):
            load_index(path)

    @pytest.mark.parametrize("body", [
        [{"id": "p", "title": "t", "text": "alpha"}], ["p"], [["p"], ["t"], ["alpha"]], 7])
    def test_body_not_a_list_of_records_raises_corrupt(self, tmp_path, body):
        path = tmp_path / "shape.exsidx"
        self._write_body(path, body)
        with pytest.raises(CorruptIndex, match=r"shape\.exsidx: .*not an object with exactly"):
            load_index(path)

    @pytest.mark.parametrize("body", [
        columns_body(["p", "q"], ["t"], ["alpha", "beta"]),
        columns_body(["p"], ["t", "u"], ["alpha", "beta"]),
        columns_body([], ["t"], ["alpha"]),
    ])
    def test_unequal_column_lengths_raise_corrupt(self, tmp_path, body):
        path = tmp_path / "len.exsidx"
        self._write_body(path, body)
        with pytest.raises(CorruptIndex, match=r"len\.exsidx: index columns differ in length"):
            load_index(path)

    @pytest.mark.parametrize("title", [3, None, ["t"]])
    def test_non_string_title_raises_corrupt(self, tmp_path, title):
        path = tmp_path / "title.exsidx"
        self._write_body(path, columns_body(["p", "q"], ["t", title], ["alpha", "beta"]))
        with pytest.raises(CorruptIndex,
                           match=r"title\.exsidx: index column 'title' is not a list of strings"):
            load_index(path)

    @pytest.mark.parametrize("body", [
        {"id": ["p"], "title": ["t"], "text": ["alpha"]},
        {"id": ["p"], "title": ["t"], "extras": {}},
        {**columns_body(["p"], ["t"], ["alpha"]), "passages": []},
        {"id": ["p"], "title": ["t"], "text": ["alpha"], "extra": {}},
    ])
    def test_missing_or_extra_top_level_key_raises_corrupt(self, tmp_path, body):
        path = tmp_path / "keys.exsidx"
        self._write_body(path, body)
        with pytest.raises(CorruptIndex, match=r"keys\.exsidx: .*not an object with exactly"):
            load_index(path)

    @pytest.mark.parametrize("extras, message", [
        ({"2": {"a": 1}}, "key '2' is not a row number below 2"),
        ({"-1": {"a": 1}}, "key '-1' is not a row number below 2"),
        ({"x": {"a": 1}}, "key 'x' is not a row number below 2"),
        ({"01": {"a": 1}}, "key '01' is not a row number below 2"),
        ({" 1": {"a": 1}}, "key ' 1' is not a row number below 2"),
        ({"\u0661": {"a": 1}}, "is not a row number below 2"),
        ({"1": ["a", 1]}, "extras row 1 is not an object"),
        ({"1": "a"}, "extras row 1 is not an object"),
        ({"1": {"text": ""}}, "extras reuse a field name"),
    ])
    def test_bad_extras_row_raises_corrupt(self, tmp_path, extras, message):
        path = tmp_path / "extras.exsidx"
        self._write_body(path, columns_body(["p", "q"], ["t", "u"], ["alpha", "beta"], extras))
        with pytest.raises(CorruptIndex, match=rf"extras\.exsidx: .*{message}"):
            load_index(path)

    @pytest.mark.parametrize("extras", [[], ["1"], 7])
    def test_extras_not_an_object_raises_corrupt(self, tmp_path, extras):
        path = tmp_path / "extras.exsidx"
        self._write_body(path, {**columns_body(["p"], ["t"], ["alpha"]), "extras": extras})
        with pytest.raises(CorruptIndex, match=r"extras\.exsidx: index extras is not an object"):
            load_index(path)

    @settings(max_examples=300, deadline=None)
    @given(mutated(columns_body(["p0", "p1", "p2"], ["t", "Zürich", "u"],
                                ["alpha beta", "beta gamma", "gamma"],
                                {"1": {"lang": "en", "tags": ["a", 1]}})))
    def test_any_one_field_mutated_loads_or_raises_corrupt(self, index_file, body):
        self._write_body(index_file, body)
        try:
            index = load_index(index_file)
        except CorruptIndex:
            return
        for p in index.passages.values():
            assert type(p.id) is str and type(p.title) is str and type(p.text) is str
            assert type(p.extras) is dict

    def test_extras_survive_the_index_file(self, tmp_path):
        index = build_index(passages_with_extras())
        path = tmp_path / "index.exsidx"
        save_index(index, path)
        loaded = load_index(path)
        assert [p.extras for p in loaded.passages.values()] == \
            [p.extras for p in index.passages.values()]
        body = json.loads(zlib.decompress(path.read_bytes()[len(INDEX_MAGIC) + 1:]))
        assert sorted(body["extras"]) == ["0", "2"]

    def test_version_2_file_asks_for_reingest(self, tmp_path):
        path = tmp_path / "v2.exsidx"
        self._write_body(path, [{"id": "p", "title": "p", "text": "alpha"}], version=2)
        with pytest.raises(VersionMismatch, match=r"version 2\b.*exsearch ingest"):
            load_index(path)

    def test_version_1_file_asks_for_reingest(self, tmp_path):
        path = tmp_path / "v1.exsidx"
        self._write_body(path, {
            "doc_count": 1, "avg_doc_length": 2.0, "doc_lengths": {"p": 2},
            "postings": {"alpha": [["p", 1]], "p": [["p", 1]]},
            "passages": [{"id": "p", "title": "p", "text": "alpha"}],
        }, version=1)
        with pytest.raises(VersionMismatch, match=r"version 1\b.*exsearch ingest"):
            load_index(path)
