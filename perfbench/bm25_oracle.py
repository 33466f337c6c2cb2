"""Brute-force BM25, written apart from ``exsearch.retrieval``, that the
benchmark checks the program's search results against.

It scores every passage of the corpus for every query, so it is slow and
used only on a sample of the queries a run issued, outside the timed work.
"""

from __future__ import annotations

import math
import re
from collections import Counter

K1 = 0.9
B = 0.4
_WORD = re.compile(r"[^\W_]+")


def _words(text: str) -> list[str]:
    return _WORD.findall(text.lower())


class BruteForceBM25:
    """Term counts of every passage, scored exhaustively per query."""

    def __init__(self, passages):
        self.counts = {p.id: Counter(_words(p.title + " " + p.text)) for p in passages}
        self.lengths = {pid: sum(c.values()) for pid, c in self.counts.items()}
        self.avgdl = sum(self.lengths.values()) / len(self.lengths)
        self.df = Counter(term for c in self.counts.values() for term in c)

    def top_k(self, query: str, k: int) -> list[tuple[str, float]]:
        """(passage id, score) of the k best passages scoring above 0,
        best first, ties broken by ascending id."""
        terms = list(dict.fromkeys(_words(query)))
        n = len(self.counts)
        scored = []
        for pid, counts in self.counts.items():
            score = 0.0
            for term in terms:
                tf = counts.get(term, 0)
                if tf:
                    df = self.df[term]
                    idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
                    norm = K1 * (1.0 - B + B * self.lengths[pid] / self.avgdl)
                    score += idf * (K1 + 1.0) * tf / (tf + norm)
            if score > 0.0:
                scored.append((pid, score))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:k]
