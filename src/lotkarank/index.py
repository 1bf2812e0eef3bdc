"""Inverted index and tf-idf retrieval.

Scores are sums of tf * ln(N / df) over query tokens, accumulated one
query token at a time over that token's posting list.

The postings are one CSR table: row r of term t (``_term_ids[t]``) spans
``_ptr[r]:_ptr[r + 1]`` of the flat ``_docs`` (int32 doc positions in
doc_id order) and ``_tfs`` (int32 term counts) arrays, and df is the row
length. ``InvertedIndex.postings(term)`` is the one way to read a row.
"""
import math
import pickle
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import DocumentRecord, tokenize

_PICKLE_PROTOCOL = 4
# layout of a saved index; bump when the pickled attributes change
_FORMAT = "csr-1"


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
        self._format = _FORMAT

        # one (row, tf) pair per distinct term of each document, in doc order
        self._term_ids: dict[str, int] = {}
        rows, tfs, lengths = [], [], []
        for rec in ordered:
            counts = Counter(tokenize(rec.title) + tokenize(rec.body))
            rows.extend(self._term_ids.setdefault(term, len(self._term_ids)) for term in counts)
            tfs.extend(counts.values())
            lengths.append(len(counts))
        rows = np.array(rows, dtype=np.int64)
        # a stable sort by row keeps each row's postings in doc order
        order = np.argsort(rows, kind="stable")
        self._docs = np.repeat(np.arange(self.corpus_size, dtype=np.int32), lengths)[order]
        self._tfs = np.array(tfs, dtype=np.int32)[order]
        self._ptr = np.zeros(len(self._term_ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(self._term_ids)), out=self._ptr[1:])

    def postings(self, term: str):
        """(doc positions, tfs) of the term, sorted by doc_id; None if not indexed."""
        row = self._term_ids.get(term)
        if row is None:
            return None
        start, stop = self._ptr[row], self._ptr[row + 1]
        return self._docs[start:stop], self._tfs[start:stop]

    def __eq__(self, other):
        if not isinstance(other, InvertedIndex):
            return NotImplemented
        return (
            self._term_ids == other._term_ids
            and np.array_equal(self._ptr, other._ptr)
            and np.array_equal(self._docs, other._docs)
            and np.array_equal(self._tfs, other._tfs)
            and self.doc_table == other.doc_table
        )

    def term_count(self) -> int:
        return len(self._term_ids)

    def save(self, path):
        with open(path, "wb") as fout:
            pickle.dump(self, fout, protocol=_PICKLE_PROTOCOL)

    @classmethod
    def load(cls, path) -> "InvertedIndex":
        rebuild = "rebuild it with `lotkarank index`"
        with open(path, "rb") as fin:
            try:
                index = pickle.load(fin)
            except Exception as exc:  # corrupt pickle bytes can raise almost any exception type
                raise ValueError(f"{path} is not a readable index ({exc}); {rebuild}") from exc
        if not isinstance(index, cls):
            raise ValueError(f"{path} does not contain an index; {rebuild}")
        if getattr(index, "_format", None) != _FORMAT:
            raise ValueError(f"{path} holds an index in an older layout; {rebuild}")
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
    pos = bisect_left(index._doc_ids, doc_id)
    total = 0.0
    for token in query_tokens:
        hit = index.postings(token)
        if hit is None:
            continue
        docs, tfs = hit
        i = np.searchsorted(docs, pos)
        if i == len(docs) or docs[i] != pos:
            continue
        idf = math.log(index.corpus_size / len(docs))
        total += tfs[i] * idf
    return total


def search(query: str, index: InvertedIndex, query_id: str = "q") -> ResultSet:
    """Retrieve every document with positive tf-idf score for the query.

    Ties are broken by doc_id ascending.
    """
    tokens = tokenize(query)
    scores = None
    for token in tokens:
        hit = index.postings(token)
        if hit is None:
            continue
        docs, tfs = hit
        if scores is None:
            scores = np.zeros(index.corpus_size, dtype=np.float64)
        idf = math.log(index.corpus_size / len(docs))
        # exactly scores[d] += tf * idf per posting: a term's postings name each document once,
        # and each int32 tf converts to float64 exactly before the multiply
        scores[docs] += tfs * idf
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
