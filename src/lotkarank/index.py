"""Inverted index and tf-idf retrieval.

Scores are sums of tf * ln(N / df) over query tokens, added in query
token order by one bincount over the tokens' posting lists. ``search``
returns a ``ResultSet``: the documents' index positions and scores as two
arrays in rank order. It is the one ranked-list type; a re-rank (rerank.py)
returns one too, and the (doc_id, score, rank) view is built on access.

The postings are one CSR table: row r of term t (``_term_ids[t]``) spans
``_ptr[r]:_ptr[r + 1]`` of the flat ``_docs`` (doc positions in doc_id
order) and ``_tfs`` (term counts) arrays, and df is the row length.
Positions, row offsets and counts are each stored in the narrowest
unsigned type that holds their largest possible value.
``InvertedIndex.postings(term)`` is the one way to read a row.

The entity fields are code tables built in the same pass: each field's
distinct values are numbered in name order (``_journal_names``,
``_author_names``); ``_journal_codes`` holds one int32 code per document
(-1 when it has no journal) and the authors are a CSR table (``_author_ptr``
offsets into the flat int32 ``_author_codes``). ``InvertedIndex.entity_codes``
is the one way to read them.

The index holds no document records: a document is its position and its
doc_id (``_doc_ids``, sorted), and ``InvertedIndex.position`` maps one to
the other.

``InvertedIndex(...)`` takes these tables and is the one place that sets
them and stores each integer table in its type; ``build_index`` computes
the tables from records and ``InvertedIndex.load`` checks them from a file.

A saved index is an uncompressed zip of ``.npy`` members, as ``np.savez``
writes, but with a fixed timestamp so that equal indexes give equal bytes.
It holds arrays only: the layout tag (``format``, UTF-8 bytes), each
string list (terms in row order, doc ids, journal names, author names) as
UTF-8 text with every string ended by a line break (no saved string holds
one), and the integer arrays. ``InvertedIndex.load`` reads only 1-d
integer ``.npy`` members, each once its header's size fits in the
member's bytes, and checks every member before use.
"""
import math
import zipfile
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from operator import lt

import numpy as np

from .corpus import EntityField, tokenize
from .output import whole_file

# layout of a saved index; change it whenever the members or their meaning change
_FORMAT = "lotkarank-index/4"
_STRING_LISTS = ("terms", "doc_ids", "journal_names", "author_names")
_ARRAYS = ("ptr", "docs", "tfs", "journal_codes", "author_ptr", "author_codes")
_MEMBERS = ("format", *_STRING_LISTS, *_ARRAYS)
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)  # the earliest date a zip header holds: no build time in the file
_REBUILD = "rebuild it with `lotkarank index`"


@dataclass(eq=False)
class ResultSet:
    """Scored documents for one query, in rank order.

    ``positions`` are the documents' positions in the index (doc_id order)
    and ``scores`` their scores, both in rank order. ``search`` gives the
    tf-idf order (score desc, doc_id asc) under the tag "tfidf"; a re-rank
    gives the same set another order and score under its run tag, with the
    documents it dropped counted in ``dropped``.
    """

    query_id: str
    positions: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    scores: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))
    doc_id_table: list[str] = field(default_factory=list, repr=False)  # doc_id of each index position
    tag: str = "tfidf"
    dropped: int = 0

    @property
    def set_size(self) -> int:
        return len(self.positions)

    @property
    def entries(self) -> list[tuple[str, float, int]]:
        """(doc_id, score, rank) triples, built from the arrays on each access."""
        return list(zip(self.doc_ids(), self.scores.tolist(), range(1, self.set_size + 1)))

    def doc_ids(self, k: int | None = None) -> list[str]:
        """The doc_ids in rank order, or those of the top k only."""
        return list(map(self.doc_id_table.__getitem__, self.positions[:k].tolist()))

    def __eq__(self, other):
        if not isinstance(other, ResultSet):
            return NotImplemented
        return (self.query_id == other.query_id and self.tag == other.tag and self.dropped == other.dropped
                and self.doc_ids() == other.doc_ids() and np.array_equal(self.scores, other.scores))


def _pack_strings(strings):
    """The strings as UTF-8 text (uint8), each one ended by a line break."""
    text = "\n".join([*strings, ""])
    if text.count("\n") != len(strings):  # such a string would load as two
        bad = next(s for s in strings if "\n" in s)
        raise ValueError(f"cannot save {bad!r}: a saved string holds no line break")
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


def _unpack_strings(text) -> list[str]:
    """The strings _pack_strings packed (the text ends with a line break); UnicodeDecodeError unless UTF-8."""
    return text.tobytes().decode("utf-8").split("\n")[:-1]


def _narrow(values, largest):
    """The values in the narrowest unsigned type that holds largest."""
    return values.astype(np.min_scalar_type(largest), copy=False)


def _within(values, low, high) -> bool:
    return len(values) == 0 or (int(values.min()) >= low and int(values.max()) <= high)


def _splits(ptr, end) -> bool:
    """Starts at 0, never decreases, and ends at end."""
    if len(ptr) == 0 or ptr[0] != 0 or ptr[-1] != end:
        return False
    return bool(np.all(ptr[1:] >= ptr[:-1]))


def _strictly_sorted(strings) -> bool:
    return all(map(lt, strings, strings[1:]))


class _Invalid(Exception):
    """A saved index member that breaks the layout (the message says how)."""


def _require(ok, what):
    if not ok:
        raise _Invalid(what)


def _read_member(archive, info, file_size):
    """The member's name and 1-d integer array, read once its .npy header fits in its bytes.

    numpy would allocate an array of whatever size a header claims before
    reading any data; here the claim must fit in the member's bytes and the
    member in the file before anything is allocated, and only integer
    arrays are read, so nothing is unpickled.
    """
    name = info.filename.removesuffix(".npy")
    # a stored member's bytes lie in the file; a compressed one could claim any size
    _require(info.compress_type == zipfile.ZIP_STORED and info.compress_size == info.file_size
             and info.header_offset + info.file_size <= file_size, f"{name} is not stored whole in the file")
    with archive.open(info) as member:
        # save writes version 1.0 (numpy needs 2.0 only for a header over 64 KiB)
        version = np.lib.format.read_magic(member)  # ValueError unless .npy
        _require(version == (1, 0), f"{name} is not in .npy version 1.0")
        shape, _, dtype = np.lib.format.read_array_header_1_0(member)
        _require(len(shape) == 1 and dtype.kind in "iu", f"{name} is not a 1-d integer array")
        claimed, holds = shape[0] * dtype.itemsize, info.file_size - member.tell()
        _require(claimed <= holds, f"{name} claims {claimed} bytes of data but holds {holds}")
        return name, np.frombuffer(member.read(claimed), dtype=dtype, count=shape[0])


def _entity_codes(values):
    """The distinct values in name order, and each value's int32 code (-1 for None)."""
    names = sorted(set(values) - {None})
    code = {name: i for i, name in enumerate(names)}
    return names, np.array([code.get(value, -1) for value in values], dtype=np.int32)


class InvertedIndex:
    """Term postings and entity tables for a fixed corpus.

    Immutable after construction; concurrent reads are safe. Postings are
    sorted by doc_id so the index is identical for any input permutation.
    """

    def __init__(self, doc_ids, term_ids, ptr, docs, tfs, journal_names, journal_codes,
                 author_names, author_ptr, author_codes):
        """The index over consistent tables, as build_index makes and load checks them.

        doc_ids is sorted and term_ids maps each term to its row. The integer
        tables may come in any integer type; each is stored in the type the
        module docstring names.
        """
        self.corpus_size = len(doc_ids)
        self._doc_ids = doc_ids
        self._term_ids = term_ids
        self._ptr = _narrow(ptr, len(docs))
        self._docs = _narrow(docs, self.corpus_size - 1)
        self._tfs = _narrow(tfs, tfs.max(initial=0))  # initial=0: an index may have no postings
        self._journal_names = journal_names
        self._journal_codes = journal_codes.astype(np.int32, copy=False)
        self._author_names = author_names
        self._author_ptr = author_ptr.astype(np.int64, copy=False)
        self._author_codes = author_codes.astype(np.int32, copy=False)

    def postings(self, term: str):
        """(doc positions, tfs) of the term, sorted by doc_id; None if not indexed."""
        row = self._term_ids.get(term)
        if row is None:
            return None
        start, stop = self._ptr[row], self._ptr[row + 1]
        return self._docs[start:stop], self._tfs[start:stop]

    def position(self, doc_id: str) -> int:
        """The document's position in the index; KeyError if it is not indexed."""
        pos = bisect_left(self._doc_ids, doc_id)
        if pos == self.corpus_size or self._doc_ids[pos] != doc_id:
            raise KeyError(f"unknown doc_id {doc_id!r}")
        return pos

    def entity_codes(self, field: EntityField, positions):
        """The entity codes of the documents at the given positions.

        Returns (codes, owners, names): the codes of every document's values
        for the field, concatenated in positions order; each code's document
        as an index into positions (intp, ascending); and the names by code.
        """
        if field is EntityField.JOURNAL:
            codes = self._journal_codes[positions]
            owners = np.flatnonzero(codes >= 0)
            return codes[owners], owners, self._journal_names
        starts = self._author_ptr[positions]
        sizes = self._author_ptr[positions + 1] - starts
        owners = np.repeat(np.arange(len(positions), dtype=np.intp), sizes)
        # each code's flat index: its document's start plus its offset within the document
        offsets = np.cumsum(sizes) - sizes
        flat = np.arange(len(owners)) + (starts - offsets)[owners]
        return self._author_codes[flat], owners, self._author_names

    def __eq__(self, other):
        if not isinstance(other, InvertedIndex):
            return NotImplemented
        mine, theirs = self._members(), other._members()
        return all(np.array_equal(mine[name], theirs[name]) for name in _MEMBERS)

    def term_count(self) -> int:
        return len(self._term_ids)

    def _members(self) -> dict[str, np.ndarray]:
        """The arrays of the saved file, by member name, in file order."""
        members = {"format": np.frombuffer(_FORMAT.encode("utf-8"), dtype=np.uint8)}
        strings = (list(self._term_ids), self._doc_ids, self._journal_names, self._author_names)
        members.update(zip(_STRING_LISTS, map(_pack_strings, strings)))
        arrays = (self._ptr, self._docs, self._tfs, self._journal_codes, self._author_ptr, self._author_codes)
        members.update(zip(_ARRAYS, arrays))
        return members

    def save(self, path):
        """Write the index to path, all or nothing (see output.whole_file)."""
        with whole_file(path) as fout, zipfile.ZipFile(fout, "w", zipfile.ZIP_STORED) as archive:
            for name, array in self._members().items():
                info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_DATE)
                with archive.open(info, "w") as member:
                    np.lib.format.write_array(member, array, allow_pickle=False)

    @classmethod
    def load(cls, path) -> "InvertedIndex":
        """Read an index saved by save; ValueError naming path if it is not one.

        Nothing in the file is unpickled, no member's array is allocated
        beyond what the file holds, and every member is checked before use.
        """
        try:
            with open(path, "rb") as fin:
                magic = fin.read(4)
                if magic[:1] == b"\x80":  # a pickle: the layout before the arrays-only file
                    raise ValueError(f"{path} holds an index in an older layout; {_REBUILD}")
                if magic != b"PK\x03\x04":
                    raise ValueError(f"{path} is not an index file (no zip header); {_REBUILD}")
                file_size = fin.seek(0, 2)
                fin.seek(0)
                try:
                    members = {}
                    with zipfile.ZipFile(fin) as archive:
                        for info in archive.infolist():
                            name, values = _read_member(archive, info, file_size)
                            _require(name not in members, f"duplicate member {name}")
                            members[name] = values
                except _Invalid:
                    raise
                except Exception as exc:  # corrupt zip or npy bytes can raise many exception types
                    raise ValueError(f"{path} is not a readable index ({exc}); {_REBUILD}") from exc
            return cls._from_members(members)
        except _Invalid as exc:
            raise ValueError(f"{path} is not a valid index: {exc}; {_REBUILD}") from None

    @classmethod
    def _from_members(cls, members) -> "InvertedIndex":
        """Check the loaded members against the layout, then build the index from them."""
        tag = members.get("format")
        _require(isinstance(tag, np.ndarray) and tag.ndim == 1 and tag.dtype == np.uint8,
                 "no layout tag (a uint8 member named format)")
        _require(tag.tobytes() == _FORMAT.encode("utf-8"),
                 f"unknown layout {tag.tobytes().decode('utf-8', 'replace')!r}")
        missing = [name for name in _MEMBERS if name not in members]
        _require(not missing, f"missing member {', '.join(missing)}")
        extra = sorted(set(members) - set(_MEMBERS))
        _require(not extra, f"unexpected member {', '.join(extra)}")

        strings = {}
        for name in _STRING_LISTS:
            text = members[name]
            _require(text.dtype == np.uint8, f"{name} is not a uint8 array")
            _require(len(text) == 0 or text[-1] == ord("\n"), f"{name} does not end with a line break")
            try:
                strings[name] = _unpack_strings(text)
            except UnicodeDecodeError:
                raise _Invalid(f"{name} is not UTF-8") from None
        terms, doc_ids = strings["terms"], strings["doc_ids"]
        journal_names, author_names = strings["journal_names"], strings["author_names"]
        n = len(doc_ids)
        _require(n > 0, "no documents")
        _require(_strictly_sorted(doc_ids), "doc ids are not strictly sorted")
        joined = "".join(doc_ids)
        _require(doc_ids[0] and joined.split() == [joined], "a doc id is empty or has whitespace")
        _require(_strictly_sorted(journal_names), "journal names are not strictly sorted")
        _require(_strictly_sorted(author_names), "author names are not strictly sorted")
        term_ids = dict(zip(terms, range(len(terms))))
        _require(len(term_ids) == len(terms), "terms are not unique")

        ptr, docs, tfs = members["ptr"], members["docs"], members["tfs"]
        _require(len(ptr) == len(terms) + 1, "ptr does not have one entry per term plus one")
        # every row is nonempty, as df is its length and idf divides by it
        _require(_splits(ptr, len(docs)) and bool(np.all(ptr[1:] > ptr[:-1])),
                 "ptr does not split docs into nonempty rows")
        _require(len(tfs) == len(docs), "tfs and docs differ in length")
        _require(_within(docs, 0, n - 1), "a doc position is out of range")
        _require(_within(tfs, 1, math.inf), "a term count is below 1")
        ascending = docs[1:] > docs[:-1]
        ascending[ptr[1:-1] - 1] = True  # a row may start below where the previous one ended
        _require(bool(np.all(ascending)), "a row's doc positions do not strictly increase")

        journal_codes, author_ptr, author_codes = (members[name] for name in _ARRAYS[3:])
        _require(len(journal_codes) == n, "journal_codes does not have one code per document")
        _require(_within(journal_codes, -1, len(journal_names) - 1), "a journal code is out of range")
        _require(len(author_ptr) == n + 1 and _splits(author_ptr, len(author_codes)),
                 "author_ptr does not split author_codes into documents")
        _require(_within(author_codes, 0, len(author_names) - 1), "an author code is out of range")

        return cls(doc_ids, term_ids, ptr, docs, tfs, journal_names, journal_codes,
                   author_names, author_ptr, author_codes)


def build_index(docs) -> InvertedIndex:
    """Index a nonempty list of DocumentRecords (title + body are the indexed text)."""
    if not docs:
        raise ValueError("cannot build an index from an empty corpus")
    ordered = sorted(docs, key=lambda rec: rec.doc_id)
    doc_ids = [rec.doc_id for rec in ordered]
    duplicate = next((a for a, b in zip(doc_ids, doc_ids[1:]) if a == b), None)
    if duplicate is not None:
        raise ValueError(f"duplicate doc_id {duplicate!r}")

    # every token's term id, in doc order; a new term takes the next id, so rows are
    # numbered in order of first appearance
    term_ids = defaultdict()
    term_ids.default_factory = term_ids.__len__
    ids = array("q")
    lengths, issns, authors, author_counts = [], [], [], []
    for rec in ordered:
        # "\n" is neither a token character nor cased: the tokens of title + body
        tokens = tokenize(f"{rec.title}\n{rec.body}")
        ids.extend(map(term_ids.__getitem__, tokens))
        lengths.append(len(tokens))
        issns.append(rec.journal_issn)
        authors.extend(rec.authors)
        author_counts.append(len(rec.authors))
    n = len(ordered)
    # one key per token, sorted by (row, doc): each distinct key is a posting in CSR order
    keys = np.frombuffer(ids, dtype=np.int64) * n
    del ids
    keys += np.repeat(np.arange(n, dtype=np.int64), lengths)
    keys, tfs = np.unique(keys, return_counts=True)
    rows, docs = np.divmod(keys, n)
    del keys
    ptr = np.zeros(len(term_ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(term_ids)), out=ptr[1:])
    journal_names, journal_codes = _entity_codes(issns)
    author_names, author_codes = _entity_codes(authors)
    author_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(author_counts, out=author_ptr[1:])
    # a plain dict: looking up a missing term must not insert it
    return InvertedIndex(doc_ids, dict(term_ids), ptr, docs, tfs, journal_names, journal_codes,
                         author_names, author_ptr, author_codes)


def descending(values) -> np.ndarray:
    """The indices that sort values descending, equal values keeping their index order.

    Each value is replaced by its dense rank among the distinct values, and
    the ranks are sorted stably in the narrowest unsigned type that holds
    them: with at most 65,536 distinct values numpy sorts them by radix, in
    linear time, whatever the number of values.
    """
    distinct, rank = np.unique(-values, return_inverse=True)
    return np.argsort(_narrow(rank, len(distinct)), kind="stable")


def search(query: str, index: InvertedIndex, query_id: str = "q") -> ResultSet:
    """Retrieve every document with positive tf-idf score for the query.

    Ties are broken by doc_id ascending.
    """
    docs, weights = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]  # concatenate needs one array
    for token in tokenize(query):
        hit = index.postings(token)
        if hit is not None:
            docs.append(hit[0])
            # each (unsigned integer) tf converts to float64 exactly before the multiply
            weights.append(hit[1] * math.log(index.corpus_size / len(hit[0])))
    # bincount starts each score at 0.0 and adds its document's weights in token order,
    # the arithmetic of scores[docs] += weights one token at a time; with no postings it
    # gives int64 zeros, hence the cast
    scores = np.bincount(np.concatenate(docs), np.concatenate(weights),
                         minlength=index.corpus_size).astype(np.float64, copy=False)
    positions = np.flatnonzero(scores > 0.0)
    # score desc with ties in position order, and positions follow doc_id
    # order, so this is (score desc, doc_id asc)
    order = positions[descending(scores[positions])]
    return ResultSet(query_id=query_id, positions=order, scores=scores[order], doc_id_table=index._doc_ids)
