"""Inverted index and tf-idf retrieval.

Scores are sums of tf * ln(N / df) over query tokens, accumulated one
query token at a time over that token's posting list.

The postings are one CSR table: row r of term t (``_term_ids[t]``) spans
``_ptr[r]:_ptr[r + 1]`` of the flat ``_docs`` (int32 doc positions in
doc_id order) and ``_tfs`` (term counts, in the narrowest unsigned type
that holds the largest) arrays, and df is the row length.
``InvertedIndex.postings(term)`` is the one way to read a row.

The entity fields are code tables built in the same pass: each field's
distinct values are numbered in name order (``_journal_names``,
``_author_names``); ``_journal_codes`` holds one int32 code per document
(-1 when it has no journal) and the authors are a CSR table (``_author_ptr``
offsets into the flat int32 ``_author_codes``). ``InvertedIndex.entity_codes``
is the one way to read them.
"""
import math
import pickle
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import DocumentRecord, EntityField, tokenize

_PICKLE_PROTOCOL = 4
# layout of a saved index; bump when the pickled attributes change
_FORMAT = "csr-2"


def ranked_entries(doc_ids, positions, scores) -> list[tuple[str, float, int]]:
    """(doc_id, score, rank) triples for documents given in rank order."""
    ids = map(doc_ids.__getitem__, positions.tolist())
    return list(zip(ids, scores.tolist(), range(1, len(positions) + 1)))


@dataclass(eq=False)
class ResultSet:
    """Scored documents for one query, ordered by (score desc, doc_id asc).

    ``positions`` are the documents' positions in the index (doc_id order)
    and ``scores`` their tf-idf scores, both in rank order.
    """

    query_id: str
    positions: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    scores: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))
    doc_id_table: list[str] = field(default_factory=list, repr=False)  # doc_id of each index position

    @property
    def set_size(self) -> int:
        return len(self.positions)

    @property
    def entries(self) -> list[tuple[str, float, int]]:
        """(doc_id, score, rank) triples, built from the arrays on each access."""
        return ranked_entries(self.doc_id_table, self.positions, self.scores)

    def doc_ids(self) -> list[str]:
        return list(map(self.doc_id_table.__getitem__, self.positions.tolist()))

    def __eq__(self, other):
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self.query_id == other.query_id and self.entries == other.entries


def _entity_codes(values):
    """The distinct values in name order, and each value's int32 code (-1 for None)."""
    names = sorted(set(values) - {None})
    code = {name: i for i, name in enumerate(names)}
    return names, np.array([code.get(value, -1) for value in values], dtype=np.int32)


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
        issns, authors, author_counts = [], [], []
        for rec in ordered:
            counts = Counter(tokenize(rec.title) + tokenize(rec.body))
            rows.extend(self._term_ids.setdefault(term, len(self._term_ids)) for term in counts)
            tfs.extend(counts.values())
            lengths.append(len(counts))
            issns.append(rec.journal_issn)
            authors.extend(rec.authors)
            author_counts.append(len(rec.authors))
        rows = np.array(rows, dtype=np.int64)
        # a stable sort by row keeps each row's postings in doc order
        order = np.argsort(rows, kind="stable")
        self._docs = np.repeat(np.arange(self.corpus_size, dtype=np.int32), lengths)[order]
        tfs = np.array(tfs, dtype=np.int64)
        # initial=0: a corpus whose texts are all empty has no postings
        self._tfs = tfs.astype(np.min_scalar_type(tfs.max(initial=0)))[order]
        self._ptr = np.zeros(len(self._term_ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(self._term_ids)), out=self._ptr[1:])

        self._journal_names, self._journal_codes = _entity_codes(issns)
        self._author_names, self._author_codes = _entity_codes(authors)
        self._author_ptr = np.zeros(self.corpus_size + 1, dtype=np.int64)
        np.cumsum(author_counts, out=self._author_ptr[1:])

    def postings(self, term: str):
        """(doc positions, tfs) of the term, sorted by doc_id; None if not indexed."""
        row = self._term_ids.get(term)
        if row is None:
            return None
        start, stop = self._ptr[row], self._ptr[row + 1]
        return self._docs[start:stop], self._tfs[start:stop]

    def entity_codes(self, field: EntityField, positions):
        """The entity codes of the documents at the given positions.

        Returns (codes, sizes, names): the codes of every document's values
        for the field, concatenated in positions order; the number of codes
        of each document (0 when it lacks the field); and the name of each code.
        """
        if field is EntityField.JOURNAL:
            codes = self._journal_codes[positions]
            has = codes >= 0
            return codes[has], has.astype(np.intp), self._journal_names
        starts = self._author_ptr[positions]
        sizes = self._author_ptr[positions + 1] - starts
        # each code's flat index: its document's start plus its offset within the document
        offsets = np.cumsum(sizes) - sizes
        flat = np.arange(sizes.sum()) + np.repeat(starts - offsets, sizes)
        return self._author_codes[flat], sizes, self._author_names

    def __eq__(self, other):
        if not isinstance(other, InvertedIndex):
            return NotImplemented
        return (
            self._term_ids == other._term_ids
            and np.array_equal(self._ptr, other._ptr)
            and np.array_equal(self._docs, other._docs)
            and np.array_equal(self._tfs, other._tfs)
            and self._journal_names == other._journal_names
            and np.array_equal(self._journal_codes, other._journal_codes)
            and self._author_names == other._author_names
            and np.array_equal(self._author_ptr, other._author_ptr)
            and np.array_equal(self._author_codes, other._author_codes)
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
        # and each (unsigned integer) tf converts to float64 exactly before the multiply
        scores[docs] += tfs * idf
    if scores is None:
        return ResultSet(query_id=query_id, doc_id_table=index._doc_ids)
    positions = np.flatnonzero(scores > 0.0)
    # stable sort on negated scores: ties stay in position order, and
    # positions follow doc_id order, so this is (score desc, doc_id asc)
    order = positions[np.argsort(-scores[positions], kind="stable")]
    return ResultSet(query_id=query_id, positions=order, scores=scores[order], doc_id_table=index._doc_ids)
