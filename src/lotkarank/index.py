"""Inverted index and tf-idf retrieval.

Scores are sums of tf * ln(N / df) over query tokens, accumulated one
query token at a time over that token's posting list.
"""
import math
import pickle
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import DocumentRecord, tokenize

_PICKLE_PROTOCOL = 4


@dataclass
class ResultSet:
    """Scored documents for one query, ordered by (score desc, doc_id asc)."""

    query_id: str
    entries: list[tuple[str, float, int]] = field(default_factory=list)  # (doc_id, score, rank)

    @property
    def set_size(self) -> int:
        return len(self.entries)

    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _, _ in self.entries]


class InvertedIndex:
    """Term postings plus document table for a fixed corpus.

    Immutable after construction; concurrent reads are safe. Postings are
    sorted by doc_id so the index is identical for any input permutation.
    """

    def __init__(self, docs):
        if not docs:
            raise ValueError("cannot build an index from an empty corpus")
        ordered = sorted(docs, key=lambda rec: rec.doc_id)
        self.doc_table: dict[str, DocumentRecord] = {}
        for rec in ordered:
            if rec.doc_id in self.doc_table:
                raise ValueError(f"duplicate doc_id {rec.doc_id!r}")
            self.doc_table[rec.doc_id] = rec
        self.corpus_size = len(ordered)
        self._doc_ids = [rec.doc_id for rec in ordered]

        self.postings: dict[str, list[tuple[str, int]]] = {}
        for pos, rec in enumerate(ordered):
            counts = Counter(tokenize(rec.title) + tokenize(rec.body))
            for term in counts:
                self.postings.setdefault(term, []).append((rec.doc_id, counts[term]))
        self.doc_freq = {term: len(plist) for term, plist in self.postings.items()}

        # dense mirrors consumed by search and tfidf_score
        doc_pos = {doc_id: i for i, doc_id in enumerate(self._doc_ids)}
        self._term_docs: dict[str, np.ndarray] = {}
        self._term_tfs: dict[str, np.ndarray] = {}
        for term, plist in self.postings.items():
            self._term_docs[term] = np.array([doc_pos[d] for d, _ in plist], dtype=np.int32)
            self._term_tfs[term] = np.array([tf for _, tf in plist], dtype=np.float64)
        self._doc_pos = doc_pos

    def __eq__(self, other):
        if not isinstance(other, InvertedIndex):
            return NotImplemented
        return (
            self.postings == other.postings
            and self.doc_freq == other.doc_freq
            and self.doc_table == other.doc_table
        )

    def term_count(self) -> int:
        return len(self.postings)

    def save(self, path):
        with open(path, "wb") as fout:
            pickle.dump(self, fout, protocol=_PICKLE_PROTOCOL)

    @classmethod
    def load(cls, path) -> "InvertedIndex":
        with open(path, "rb") as fin:
            index = pickle.load(fin)
        if not isinstance(index, cls):
            raise ValueError(f"{path} does not contain an index")
        return index


def build_index(docs) -> InvertedIndex:
    """Index a nonempty list of DocumentRecords (title + body are the indexed text)."""
    return InvertedIndex(docs)


def tfidf_score(query_tokens, doc_id: str, index: InvertedIndex) -> float:
    """Score one document: sum of tf * ln(N / df) over the query tokens.

    Repeated query tokens contribute once per occurrence; tokens absent
    from the index contribute nothing.
    """
    if doc_id not in index.doc_table:
        raise KeyError(f"unknown doc_id {doc_id!r}")
    pos = index._doc_pos[doc_id]
    total = 0.0
    for token in query_tokens:
        docs = index._term_docs.get(token)
        if docs is None:
            continue
        i = np.searchsorted(docs, pos)
        if i == len(docs) or docs[i] != pos:
            continue
        idf = math.log(index.corpus_size / index.doc_freq[token])
        total += index._term_tfs[token][i] * idf
    return total


def search(query: str, index: InvertedIndex, query_id: str = "q") -> ResultSet:
    """Retrieve every document with positive tf-idf score for the query.

    Ties are broken by doc_id ascending.
    """
    tokens = tokenize(query)
    scores = None
    for token in tokens:
        docs = index._term_docs.get(token)
        if docs is None:
            continue
        if scores is None:
            scores = np.zeros(index.corpus_size, dtype=np.float64)
        idf = math.log(index.corpus_size / index.doc_freq[token])
        # exactly scores[d] += tf * idf per posting: a term's postings name each document once
        scores[docs] += index._term_tfs[token] * idf
    if scores is None:
        return ResultSet(query_id=query_id)
    positions = np.flatnonzero(scores > 0.0)
    # stable sort on negated scores: ties stay in position order, and
    # positions follow doc_id order, so this is (score desc, doc_id asc)
    order = positions[np.argsort(-scores[positions], kind="stable")]
    doc_ids = index._doc_ids
    ranked = zip(order.tolist(), scores[order].tolist())
    entries = [(doc_ids[pos], score, rank) for rank, (pos, score) in enumerate(ranked, start=1)]
    return ResultSet(query_id=query_id, entries=entries)
