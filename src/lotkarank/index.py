"""Inverted index and tf-idf retrieval.

Scores are sums of tf * ln(N / df) over query tokens, added in query
token order by one bincount over the tokens' posting lists. ``search``
returns a ``ResultSet``: the documents' index positions and scores as two
arrays in rank order. It is the one ranked-list type; a re-rank (rerank.py)
returns one too, and the (doc_id, score, rank) view is built on access.

The postings are one CSR table: row r of term t (``_term_ids[t]``) spans
``_ptr[r]:_ptr[r + 1]`` of the flat ``_docs`` (doc positions in doc_id
order) and ``_tfs`` (term counts) arrays, and df is the row length.
``InvertedIndex.postings(term)`` is the one way to read a row.

The entity fields are code tables built in the same pass: each field's
distinct values are numbered in name order (``_journal_names``,
``_author_names``); ``_journal_codes`` holds one code per document
(-1 when it has no journal) and the authors are a CSR table (``_author_ptr``
offsets into the flat ``_author_codes``). ``InvertedIndex.entity_counts``
is the one way to read them: it counts them over a result set's positions.

The index holds no document records: a document is its position and its
doc_id (``_doc_ids``, sorted), and ``InvertedIndex.position`` maps one to
the other.

``InvertedIndex(...)`` takes these tables, with row lengths in place of
the two offset tables, and is the one place that sets them and types
them, by one rule: each integer table is held in the narrowest type that
holds its largest possible value, unsigned except ``_journal_codes``,
which is signed as it holds -1. A code table is saved as it is held, and
a loaded one is kept as it was read. ``build_index`` computes the tables
from records and ``InvertedIndex.load`` checks them from a file.

A saved index (layout ``lotkarank-index/6``) is an uncompressed zip of
``.npy`` members, as ``np.savez`` writes, but with a fixed timestamp so
that equal indexes give equal bytes. It holds arrays only: the layout tag
(``format``, UTF-8 bytes), each string list (terms in row order, doc ids,
journal names, author names) as UTF-8 text with every string ended by a
line break (no saved string holds one), and seven integer arrays, each in
the narrowest type that holds its values: ``df`` (each row's length),
``docs``, ``tf_gaps``, ``tf_values``, ``author_counts`` (authors per
document) and ``author_codes`` unsigned, ``journal_codes`` signed (it
holds -1). Most term counts are 1, so only the others are saved:
``tf_values`` holds each count above 1, and ``tf_gaps`` its posting's
distance from the previous such posting (the first from posting 0).
Nor are the offsets saved: load rebuilds them from the lengths, and the
term counts from the gaps, with one cumulative sum each.
``InvertedIndex.load`` reads only 1-d integer ``.npy`` members whose
header's size is exactly the member's data, and checks every member
before use (each gap or length is bounded before it is summed); a file
in an earlier layout (``/5`` and before) is refused and must be rebuilt.
"""
import io
import math
import zipfile
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from operator import lt

import numpy as np

from .corpus import EntityField, tokenize
from .output import write_files

# layout of a saved index; change it whenever the members or their meaning change
_FORMAT = "lotkarank-index/6"
_STRING_LISTS = ("terms", "doc_ids", "journal_names", "author_names")
_ARRAYS = ("df", "docs", "tf_gaps", "tf_values", "journal_codes", "author_counts", "author_codes")
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
    positions: np.ndarray
    scores: np.ndarray
    doc_id_table: list[str] = field(repr=False)  # doc_id of each index position
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


def _strictly_sorted(strings) -> bool:
    return all(map(lt, strings, strings[1:]))


class _Invalid(Exception):
    """A saved index member that breaks the layout (the message says how)."""


def _require(ok, what):
    if not ok:
        raise _Invalid(what)


def _read_member(archive, info, file_size):
    """The member's name and 1-d integer array, read once its .npy header matches its bytes.

    numpy would allocate an array of whatever size a header claims before
    reading any data; here the claim must be exactly the member's data and
    the member must lie in the file before anything is allocated, and only
    integer arrays are read, so nothing is unpickled. The member is read to
    its end, so zipfile checks its CRC.
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
        # save writes no bytes after the data, and zipfile checks a CRC only at a member's end
        _require(claimed == holds, f"{name} claims {claimed} bytes of data but holds {holds}")
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

    def __init__(self, doc_ids, term_ids, df, docs, tfs, journal_names, journal_codes,
                 author_names, author_counts, author_codes):
        """The index over consistent tables, as build_index makes and load checks them.

        doc_ids is sorted and term_ids maps each term to its row. df holds
        each row's length and author_counts each document's number of
        authors; the offsets are their cumulative sums. The integer tables
        may come in any integer type; each is held in the narrowest type
        that holds its largest possible value (a table already in it is
        kept, not copied): unsigned, except the journal codes, signed for -1.
        """
        self.corpus_size = len(doc_ids)
        self._doc_ids = doc_ids
        self._term_ids = term_ids
        self._ptr = np.zeros(len(df) + 1, dtype=np.min_scalar_type(len(docs)))
        np.cumsum(df, dtype=self._ptr.dtype, out=self._ptr[1:])
        self._docs = _narrow(docs, self.corpus_size - 1)
        self._tfs = _narrow(tfs, tfs.max(initial=0))  # initial=0: an index may have no postings
        self._journal_names = journal_names
        self._journal_codes = journal_codes.astype(np.min_scalar_type(-max(len(journal_names), 1)), copy=False)
        self._author_names = author_names
        self._author_ptr = np.zeros(len(author_counts) + 1, dtype=np.min_scalar_type(len(author_codes)))
        np.cumsum(author_counts, dtype=self._author_ptr.dtype, out=self._author_ptr[1:])
        self._author_codes = _narrow(author_codes, max(len(author_names) - 1, 0))

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

    def entity_counts(self, field: EntityField, positions):
        """The field's entity counts over the documents at the given positions.

        Returns (names, tally, doc_ef): the names by code; how many of the
        documents carry each code; and each document's entity frequency in
        positions order (int64), the largest tally among its codes, 0 if it
        has none.
        """
        if field is EntityField.JOURNAL:
            codes = self._journal_codes[positions].astype(np.intp)
            # one trailing 0 past the last code, which the code -1 reads
            tally = np.bincount(codes[codes >= 0], minlength=len(self._journal_names) + 1)
            return self._journal_names, tally[:-1], tally[codes]
        starts = self._author_ptr[positions].astype(np.intp)
        sizes = self._author_ptr[positions + 1] - starts
        ends = np.cumsum(sizes)  # each document's end in the gathered codes
        total = int(ends[-1]) if len(ends) else 0
        # each code's document: the number of documents that end at or before it (an
        # author-less document ends where the previous one does, so the count skips it)
        owners = np.cumsum(np.bincount(ends[:-1], minlength=total)[:total])
        # each code's flat index: its document's start plus its offset within the document
        codes = self._author_codes[np.arange(total) + (starts - ends + sizes)[owners]].astype(np.intp)
        tally = np.bincount(codes, minlength=len(self._author_names))
        doc_ef = np.zeros(len(positions), dtype=np.int64)
        np.maximum.at(doc_ef, owners, tally[codes])  # each code raises its document's ef to its count
        return self._author_names, tally, doc_ef

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
        df, author_counts = np.diff(self._ptr), np.diff(self._author_ptr)
        # the postings whose tf is above 1, each as its distance from the previous one
        # (the first from posting 0); the held tables are already in their saved types
        above = np.flatnonzero(self._tfs > 1)
        tf_gaps = np.diff(above, prepend=0)
        arrays = (
            _narrow(df, df.max(initial=0)), self._docs,
            _narrow(tf_gaps, tf_gaps.max(initial=0)), self._tfs[above], self._journal_codes,
            _narrow(author_counts, author_counts.max(initial=0)), self._author_codes,
        )
        members.update(zip(_ARRAYS, arrays))
        return members

    def save(self, path):
        """Write the index to path, all or nothing (see output.write_files)."""
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
            for name, array in self._members().items():
                info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_DATE)
                with archive.open(info, "w") as member:
                    np.lib.format.write_array(member, array, allow_pickle=False)
        write_files([(path, buffer.getbuffer())])  # the zip's bytes, not a copy of them

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
        """Check the loaded members against the layout and build the index from them.

        The rows' doc order is checked last, on the offsets the index rebuilds from df.
        """
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

        df, docs, tf_gaps, tf_values = (members[name] for name in _ARRAYS[:4])
        _require(len(df) == len(terms), "df does not have one entry per term")
        # every row is nonempty, as idf divides by its length; each length is bounded
        # before the sum, so the sum cannot wrap
        _require(_within(df, 1, len(docs)), "a df is out of range")
        _require(int(df.sum(dtype=np.uint64)) == len(docs), "df does not sum to the length of docs")
        _require(_within(docs, 0, n - 1), "a doc position is out of range")
        _require(len(tf_gaps) == len(tf_values), "tf_gaps and tf_values differ in length")
        _require(len(tf_values) <= len(docs), "tf_values is longer than docs")
        _require(_within(tf_values, 2, math.inf), "a stored term count is below 2")
        # later gaps are at least 1, so the positions strictly increase; each gap is
        # bounded before the sum, so the sum cannot wrap
        _require(_within(tf_gaps[:1], 0, len(docs) - 1) and _within(tf_gaps[1:], 1, len(docs) - 1),
                 "a tf gap is out of range")
        above = np.cumsum(tf_gaps, dtype=np.intp)
        _require(len(above) == 0 or above[-1] < len(docs), "tf_gaps run past the end of docs")
        tfs = np.ones(len(docs), dtype=tf_values.dtype)
        tfs[above] = tf_values

        journal_codes, author_counts, author_codes = (members[name] for name in _ARRAYS[4:])
        _require(len(journal_codes) == n, "journal_codes does not have one code per document")
        _require(_within(journal_codes, -1, len(journal_names) - 1), "a journal code is out of range")
        _require(len(author_counts) == n, "author_counts does not have one count per document")
        _require(_within(author_counts, 0, len(author_codes)), "an author count is out of range")
        _require(int(author_counts.sum(dtype=np.uint64)) == len(author_codes),
                 "author_counts does not sum to the length of author_codes")
        _require(_within(author_codes, 0, len(author_names) - 1), "an author code is out of range")

        index = cls(doc_ids, term_ids, df, docs, tfs, journal_names, journal_codes,
                    author_names, author_counts, author_codes)
        ascending = docs[1:] > docs[:-1]
        ascending[index._ptr[1:-1] - 1] = True  # a row may start below where the previous one ended
        _require(bool(np.all(ascending)), "a row's doc positions do not strictly increase")
        return index


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
    df = np.bincount(rows, minlength=len(term_ids))
    journal_names, journal_codes = _entity_codes(issns)
    author_names, author_codes = _entity_codes(authors)
    # a plain dict: looking up a missing term must not insert it
    return InvertedIndex(doc_ids, dict(term_ids), df, docs, tfs, journal_names, journal_codes,
                         author_names, author_counts, author_codes)


def descending(values) -> np.ndarray:
    """The indices that sort values descending, equal values keeping their index order.

    Positive float64 values, which search passes, take one sort of packed
    keys: a positive float64 orders as its bits do, so each key is the
    value's complemented bits with the low w bits, w = (n - 1).bit_length(),
    replaced by its index. The keys are distinct, so the order does not
    depend on the sort's stability or algorithm. Values that agree in all
    but their low w bits come out in index order, which is wrong if they
    differ; so the order is kept only if the values come out non-increasing
    (then equal values, whose keys differ only in the index, are in index
    order too).

    Other input, such as analyze's int64 tallies, and the rare positive
    set that fails that check, take a stable argsort of the negated values.
    """
    n = len(values)
    if values.dtype == np.float64 and n and values.min() > 0.0:
        # uint64 scalars and arange throughout: numpy 1.x promotes uint64 with int64 to float64
        low = np.uint64((1 << (n - 1).bit_length()) - 1)  # the bits that hold an index
        keys = np.invert(values.view(np.uint64))
        keys &= ~low
        keys |= np.arange(n, dtype=np.uint64)
        keys.sort()
        keys &= low
        order = keys.view(np.int64)  # the masked keys are below n
        ranked = values[order]
        if (ranked[1:] <= ranked[:-1]).all():
            return order
    return np.argsort(-values, kind="stable")


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
