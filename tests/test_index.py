import dataclasses
import io
import math
import os
import pickle
import random
import subprocess
import sys
import zipfile

import numpy as np
import pytest

import lotkarank
from helpers import CreatesFileOnUnpickle, index_zip, random_small_corpus, same_ranking
from oracle import naive_search, naive_tokenize
from lotkarank.corpus import DocumentRecord, EntityField
from lotkarank.index import InvertedIndex, _pack_strings, build_index, descending, search


def _doc(doc_id, title, body="", **kwargs):
    return DocumentRecord(doc_id=doc_id, title=title, body=body, **kwargs)


def _plist(index, term):
    """The term's postings as (doc_id, tf) pairs, read through index.postings(term)."""
    docs, tfs = index.postings(term)
    return [(index._doc_ids[pos], tf) for pos, tf in zip(docs.tolist(), tfs.tolist())]


def test_build_counts_term_frequencies():
    index = build_index([_doc("d", "a a b")])
    assert _plist(index, "a") == [("d", 2)]
    assert _plist(index, "b") == [("d", 1)]
    assert index.corpus_size == 1


def test_build_is_order_independent():
    docs = [_doc("d1", "alpha beta"), _doc("d2", "beta gamma"), _doc("d3", "gamma gamma")]
    index_a = build_index(docs)
    index_b = build_index(list(reversed(docs)))
    assert index_a == index_b
    assert search("beta gamma", index_a).entries == search("beta gamma", index_b).entries


def test_doc_freq_counts_documents_not_occurrences():
    index = build_index([_doc("d1", "x x x"), _doc("d2", "x y"), _doc("d3", "y")])
    assert len(index.postings("x")[0]) == 2
    assert len(index.postings("y")[0]) == 2


def test_term_counts_stored_in_narrowest_unsigned_type():
    assert build_index([_doc("d1", "")])._tfs.dtype == np.uint8  # no postings at all
    assert build_index([_doc("d1", "a " * 255)])._tfs.dtype == np.uint8
    index = build_index([_doc("d1", "a " * 256), _doc("d2", "b")])
    assert index._tfs.dtype == np.uint16
    assert _plist(index, "a") == [("d1", 256)]
    assert search("a", index).entries == [("d1", 256 * math.log(2 / 1), 1)]


def test_entity_codes_follow_name_order_and_positions():
    index = build_index([
        _doc("d1", "x", authors=["Zoë", "Ann"], journal_issn="2222-2222"),
        _doc("d2", "x"),
        _doc("d3", "x", authors=["Émile"], journal_issn="1111-111X"),
        _doc("d4", "x", authors=["Ann"], journal_issn="2222-2222"),
    ])
    assert index._journal_names == ["1111-111X", "2222-2222"]
    assert index._author_names == ["Ann", "Zoë", "Émile"]  # code point order
    positions = np.array([3, 1, 0, 2])  # d4, d2, d1, d3
    # d2 has no journal and no author: ef 0; d1's ef is its more frequent author's count
    for field, tally, doc_ef in ((EntityField.JOURNAL, [1, 2], [2, 0, 2, 1]),
                                 (EntityField.AUTHOR, [2, 1, 1], [2, 0, 2, 1])):
        names, counted, ef = index.entity_counts(field, positions)
        assert (names, counted.tolist(), ef.tolist()) == (getattr(index, f"_{field.value}_names"), tally, doc_ef)
        assert ef.dtype == np.int64
    # only the given positions count: d2, d3
    assert [x.tolist() for x in index.entity_counts(EntityField.JOURNAL, positions[[1, 3]])[1:]] == [[1, 0], [0, 1]]
    assert [x.tolist() for x in index.entity_counts(EntityField.AUTHOR, positions[[1, 3]])[1:]] == [[0, 0, 1], [0, 1]]
    for field in EntityField:
        names, tally, doc_ef = index.entity_counts(field, positions[:0])
        assert tally.tolist() == [0] * len(names) and doc_ef.tolist() == [] and doc_ef.dtype == np.int64


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_index([])


def test_duplicate_doc_ids_rejected():
    with pytest.raises(ValueError, match="d1"):
        build_index([_doc("d1", "a"), _doc("d1", "b")])


def test_title_and_body_are_one_field():
    index = build_index([_doc("d1", "alpha", body="alpha beta"), _doc("d2", "beta")])
    assert _plist(index, "alpha") == [("d1", 2)]
    assert len(index.postings("beta")[0]) == 2


def test_postings_of_an_absent_term_leave_the_terms_unchanged():
    index = build_index([_doc("d1", "alpha beta"), _doc("d2", "beta")])
    assert index.postings("absent") is None
    assert index.term_count() == 2
    assert type(index._term_ids) is dict
    assert list(index._term_ids) == ["alpha", "beta"]


def test_index_invariants_on_random_corpus():
    rng = random.Random(3)
    for _ in range(10):
        records, _ = random_small_corpus(rng)
        index = build_index(records)
        doc_ids = {rec.doc_id for rec in records}
        terms = {t for rec in records for t in naive_tokenize(rec.title) + naive_tokenize(rec.body)}
        assert index.term_count() == len(terms)
        for term in terms:
            docs, tfs = index.postings(term)
            plist = _plist(index, term)
            assert len(docs) == len(tfs) == len(plist)
            assert 1 <= len(docs) <= index.corpus_size
            assert [doc_id for doc_id, _ in plist] == sorted(doc_id for doc_id, _ in plist)
            assert all(doc_id in doc_ids for doc_id, _ in plist)


def test_tfidf_score_unknown_token_contributes_zero():
    index = build_index([_doc("d1", "a"), _doc("d2", "b")])
    assert search("nope", index).set_size == 0
    assert search("nope a", index).entries == search("a", index).entries


def test_tfidf_score_ubiquitous_token_is_zero():
    index = build_index([_doc("d1", "a"), _doc("d2", "a")])
    assert search("a", index).set_size == 0


def test_tfidf_score_hand_computed():
    # tf = 3 in d1, df = 2, corpus of 4: score = 3 * ln(4/2)
    docs = [_doc("d1", "t t t"), _doc("d2", "t"), _doc("d3", "x"), _doc("d4", "y")]
    index = build_index(docs)
    doc_id, score, rank = search("t", index).entries[0]
    assert (doc_id, rank) == ("d1", 1)
    assert score == pytest.approx(3 * math.log(2), rel=1e-12)
    assert score == pytest.approx(2.0794, abs=1e-4)


def test_tfidf_score_repeated_query_tokens_add_up():
    docs = [_doc("d1", "t t t"), _doc("d2", "u")]
    index = build_index(docs)
    once, twice = search("t", index), search("t t", index)
    assert twice.doc_ids() == once.doc_ids() == ["d1"]
    assert twice.scores.tolist() == (2 * once.scores).tolist()


def test_tfidf_score_unknown_doc_raises():
    index = build_index([_doc("d1", "a"), _doc("d0", "b")])
    assert index.position("d0") == 0
    assert index.position("d1") == 1
    with pytest.raises(KeyError):
        index.position("missing")


def test_search_no_indexed_tokens_gives_empty_set():
    index = build_index([_doc("d1", "a"), _doc("d2", "b")])
    for query in ("nothing here", ""):
        result = search(query, index)
        assert result.set_size == 0
        assert result.positions.dtype == np.intp and result.positions.shape == (0,)
        assert result.scores.dtype == np.float64 and result.scores.shape == (0,)


def test_search_breaks_ties_by_doc_id():
    index = build_index([_doc("d2", "t"), _doc("d1", "t"), _doc("d3", "other")])
    result = search("t", index)
    assert result.doc_ids() == ["d1", "d2"]
    assert [rank for _, _, rank in result.entries] == [1, 2]


_ABOVE_ONE, _BELOW_ONE = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)  # 1.0's 1-ulp neighbours


# path: "keys" when the packed-key sort's order is kept, "argsort" when the stable argsort gives it
@pytest.mark.parametrize("values, path", [
    (np.zeros(0), "argsort"),
    (np.array([0.7]), "keys"),
    (np.full(9, 2.5), "keys"),
    (np.random.default_rng(3).integers(0, 5, 1000) * 0.25, "argsort"),  # many ties, 0.0 among them
    (np.random.default_rng(3).integers(1, 5, 1000) * 0.25, "keys"),  # many ties, all positive
    ((np.random.default_rng(4).permutation(70_000) + 1) / 7.0, "keys"),  # over 2**16 indices
    (np.random.default_rng(4).permutation(70_000) / 7.0, "argsort"),  # 0.0 among them
    # 1.0 and its upper neighbour agree in all but the last bit, so their keys go by index,
    # which puts the larger one after a 1.0: the check sends them to the stable argsort
    (np.array([1.0, 3.0, 1.0, _ABOVE_ONE, 3.0, 0.5, _BELOW_ONE, 1.0]), "argsort"),
    # 2**15 + 1 values, 16 index bits; the upper neighbour comes after 1.0
    (np.concatenate([np.full(2**15, 1.0), [_ABOVE_ONE]]), "argsort"),
    # the same neighbours in index order: the key order is right and kept
    (np.array([_ABOVE_ONE, 3.0, 1.0, 1.0, _BELOW_ONE, 0.5]), "keys"),
    (np.concatenate([[_ABOVE_ONE], np.full(2**15, 1.0)]), "keys"),
    (np.array([3, 1, 3, 2, 1, 0], dtype=np.int64), "argsort"),  # analyze's tallies
    (np.array([2.0, -1.0, 0.0, -0.0, 2.0, 0.0]), "argsort"),  # not positive: 0.0 and -0.0 tie
    (np.array([2.0, np.nan, 1.0]), "argsort"),
], ids=["empty", "one", "all-equal", "many-ties", "many-positive-ties", "70k-positive", "70k-distinct",
        "neighbours", "2**15-neighbours", "neighbours-in-order", "2**15-neighbours-in-order",
        "int64-tallies", "signed-zeros", "nan"])
def test_descending_equals_stable_argsort_of_negated_values(values, path, monkeypatch):
    argsorted = []  # the key path never calls np.argsort; the spy is off before the oracle's call
    argsort = np.argsort
    with monkeypatch.context() as patch:
        patch.setattr(np, "argsort", lambda *args, **kwargs: argsorted.append(args) or argsort(*args, **kwargs))
        order = descending(values)
    assert order.dtype == np.intp
    assert np.array_equal(order, np.argsort(-values, kind="stable"))
    assert ("argsort" if argsorted else "keys") == path


def test_search_excludes_zero_scores():
    # "a" is everywhere (idf 0); only "b" separates the docs
    index = build_index([_doc("d1", "a b"), _doc("d2", "a"), _doc("d3", "a")])
    result = search("a b", index)
    assert result.doc_ids() == ["d1"]
    assert all(score > 0 for _, score, _ in result.entries)


def test_search_five_doc_corpus_matches_brute_force():
    docs = [
        _doc("d1", "apple banana", "apple"),
        _doc("d2", "banana banana"),
        _doc("d3", "cherry", "apple banana"),
        _doc("d4", "durian"),
        _doc("d5", "apple apple apple"),
    ]
    index = build_index(docs)
    result = search("apple banana", index)
    expected = naive_search(docs, "apple banana")
    assert [(d, r) for d, _, r in result.entries] == [(d, r) for d, _, r in expected]
    for (_, got, _), (_, want, _) in zip(result.entries, expected):
        assert got == pytest.approx(want, abs=1e-12)


def test_search_matches_oracle_on_random_corpora():
    rng = random.Random(99)
    for _ in range(20):
        records, query = random_small_corpus(rng)
        result = search(query, build_index(records))
        expected = naive_search(records, query)
        assert result.doc_ids() == [doc_id for doc_id, _, _ in expected]
        for (_, got, _), (_, want, _) in zip(result.entries, expected):
            assert abs(got - want) <= 1e-9


def test_search_scores_equal_per_posting_loop_exactly():
    rng = random.Random(31)
    cases = [random_small_corpus(rng) for _ in range(30)]
    records, _ = cases[0]
    token = records[0].title.split()[0]
    cases.append((records, f"{token} zzz {token} {token}"))  # repeated query token
    for records, query in cases:
        index = build_index(records)
        # reference: one multiply and one add per posting, in query-token order
        expected = {}
        for term in naive_tokenize(query):
            if index.postings(term) is None:
                continue
            plist = _plist(index, term)
            for doc_id, tf in plist:
                idf = math.log(index.corpus_size / len(plist))
                expected[doc_id] = expected.get(doc_id, 0.0) + tf * idf
        ranked = sorted((-score, doc_id) for doc_id, score in expected.items() if score > 0.0)
        assert search(query, index).entries == [
            (doc_id, -neg, rank) for rank, (neg, doc_id) in enumerate(ranked, start=1)
        ]  # exact float equality intended


def test_search_ordering_equals_tfidf_score_ordering():
    rng = random.Random(5)
    records, query = random_small_corpus(rng)
    index = build_index(records)
    scored = [(doc_id, s) for doc_id, s, _ in naive_search(records, query) if s > 0]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    assert search(query, index).doc_ids() == [doc_id for doc_id, _ in scored]


def test_rank_order_invariant_under_log_base():
    # compare orderings pairwise on clearly-distinct scores: rounding can
    # merge mathematically equal scores into exact ties under one base but
    # not another, so demanding identical tie resolution would be too strict
    rng = random.Random(17)
    for _ in range(10):
        records, query = random_small_corpus(rng)
        index = build_index(records)
        ln_scores = {doc_id: score for doc_id, score, _ in search(query, index).entries}
        tokens = naive_tokenize(query)
        doc_tokens = {r.doc_id: naive_tokenize(r.title) + naive_tokenize(r.body) for r in records}
        for base in (2.0, 10.0):
            rebased = {}
            for rec in records:
                score = 0.0
                for token in tokens:
                    tf = doc_tokens[rec.doc_id].count(token)
                    df = sum(1 for toks in doc_tokens.values() if token in toks)
                    if tf and df:
                        score += tf * math.log(len(records) / df, base)
                rebased[rec.doc_id] = score
            doc_ids = sorted(ln_scores)
            for i, a in enumerate(doc_ids):
                for b in doc_ids[i + 1 :]:
                    if abs(ln_scores[a] - ln_scores[b]) > 1e-9:
                        # distinct under ln: strictly the same direction rebased
                        assert (ln_scores[a] > ln_scores[b]) == (rebased[a] > rebased[b])
                    else:
                        assert abs(rebased[a] - rebased[b]) <= 1e-9


def test_adding_unrelated_doc_keeps_oracle_equivalence():
    docs = [_doc("d1", "apple banana"), _doc("d2", "banana"), _doc("d3", "apple")]
    extended = docs + [_doc("d9", "unrelated words only")]
    result = search("apple banana", build_index(extended))
    expected = naive_search(extended, "apple banana")
    assert result.doc_ids() == [doc_id for doc_id, _, _ in expected]


def test_save_load_round_trip(tmp_path):
    rng = random.Random(23)
    records, query = random_small_corpus(rng)
    index = build_index(records)
    path = tmp_path / "corpus.idx"
    index.save(path)
    loaded = InvertedIndex.load(path)
    assert loaded == index
    # an index compares unequal to any other type, as Python's fallback decides
    assert index.__eq__(object()) is NotImplemented
    assert index != object()
    assert search(query, loaded).entries == search(query, index).entries
    assert same_ranking(search(query, loaded), search(query, index))
    assert not same_ranking(search(query, loaded, query_id="other"), search(query, index))
    # equal entries under another run tag or drop count are another list
    result = search(query, loaded)
    assert not same_ranking(dataclasses.replace(result, tag="brad"), result)
    assert not same_ranking(dataclasses.replace(result, dropped=1), result)
    # the same documents with other scores, or the same scores on other documents
    assert not same_ranking(dataclasses.replace(result, scores=result.scores * 2), result)
    assert not same_ranking(dataclasses.replace(result, positions=result.positions[::-1]), result)
    n = result.set_size
    for k in (0, 1, n, n + 5, None):
        assert result.doc_ids(k) == result.doc_ids()[:k]


def test_load_rejects_non_index(tmp_path):
    # a numpy array file and a zip of arrays that are not an index
    for name, write in (("junk.npy", np.save), ("junk.npz", np.savez)):
        path = tmp_path / name
        with open(path, "wb") as fout:  # a file object, so numpy keeps the name as given
            write(fout, np.arange(3))
        with pytest.raises(ValueError) as info:
            InvertedIndex.load(path)
        assert str(info.value).startswith(f"{path} is not ")


def test_load_never_unpickles(tmp_path):
    marker = tmp_path / "marker"
    path = tmp_path / "evil.idx"
    path.write_bytes(pickle.dumps(CreatesFileOnUnpickle(str(marker))))
    with pytest.raises(ValueError, match="older layout"):
        InvertedIndex.load(path)
    assert not marker.exists()


def _layout_index():
    return build_index([
        _doc("d1", "alpha beta", authors=["Ann", "Émile"], journal_issn="1111-1111"),
        _doc("d2", "beta gamma", authors=["Émile"]),
        _doc("d3", "gamma gamma alpha", journal_issn="2222-2222"),
    ])


def _npy(array, version=None):
    """The array's whole .npy file."""
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, np.asanyarray(array), version=version)
    return buffer.getvalue()


def test_layout_index_members():
    # the arrays the corruption cases below start from
    members = _layout_index()._members()
    assert list(members) == [
        "format", "terms", "doc_ids", "journal_names", "author_names",
        "df", "docs", "tf_gaps", "tf_values", "journal_codes", "author_counts", "author_codes",
    ]
    assert bytes(members["format"]) == b"lotkarank-index/6"
    assert bytes(members["terms"]) == b"alpha\nbeta\ngamma\n"
    assert bytes(members["doc_ids"]) == b"d1\nd2\nd3\n"
    assert bytes(members["journal_names"]) == b"1111-1111\n2222-2222\n"
    assert bytes(members["author_names"]).decode("utf-8") == "Ann\nÉmile\n"
    assert [m.dtype for m in members.values()][:5] == [np.uint8] * 5
    assert members["df"].tolist() == [2, 2, 2]
    assert members["docs"].tolist() == [0, 2, 0, 1, 1, 2]
    # the term counts are [1, 1, 1, 1, 1, 2]: only posting 5's is above 1
    assert members["tf_gaps"].tolist() == [5]
    assert members["tf_values"].tolist() == [2]
    assert members["journal_codes"].tolist() == [0, -1, 1]
    assert members["author_counts"].tolist() == [2, 1, 0]
    assert members["author_codes"].tolist() == [0, 1, 1]
    # each in the narrowest type that holds its values; journal codes also hold -1
    assert [m.dtype for m in members.values()][5:] == [
        np.uint8, np.uint8, np.uint8, np.uint8, np.int8, np.uint8, np.uint8,
    ]


def _strings(name, values):
    return {name: _pack_strings(values)}


def _text(name, data):
    return {name: np.frombuffer(data, dtype=np.uint8)}


def _array(**values):
    return {name: np.array(value, dtype=np.int64) for name, value in values.items()}


# (changed members, None to drop a member; the reason the loader gives)
CORRUPTIONS = {
    "no format": ({"format": None}, "no layout tag (a uint8 member named format)"),
    "format not uint8": (_array(format=list(b"lotkarank-index/6")), "no layout tag"),
    "wrong version": ({"format": np.frombuffer(b"lotkarank-index/99", dtype=np.uint8)},
                      "unknown layout 'lotkarank-index/99'"),
    # the layout with every term count in one tfs member
    "previous layout": ({"format": np.frombuffer(b"lotkarank-index/5", dtype=np.uint8)},
                        "unknown layout 'lotkarank-index/5'"),
    # the layout with offset tables (ptr, author_ptr) and int32 entity codes
    "layout 4": ({"format": np.frombuffer(b"lotkarank-index/4", dtype=np.uint8)},
                 "unknown layout 'lotkarank-index/4'"),
    # the layout before the line-ended string lists, with a blob and an offsets member per list
    "layout 3": ({"format": np.frombuffer(b"lotkarank-index/3", dtype=np.uint8)},
                 "unknown layout 'lotkarank-index/3'"),
    "npy version 2.0": ({"df": _npy(np.array([2, 2, 2]), version=(2, 0))}, "df is not in .npy version 1.0"),
    "missing member": ({"tf_gaps": None}, "missing member tf_gaps"),
    "missing tf_values": ({"tf_values": None}, "missing member tf_values"),
    "extra member": (_array(notes=[1]), "unexpected member notes"),
    "float member": ({"tf_values": np.full(1, 2.0)}, "tf_values is not a 1-d integer array"),
    "float tf_gaps": ({"tf_gaps": np.full(1, 5.0)}, "tf_gaps is not a 1-d integer array"),
    "2-d member": ({"docs": np.zeros((2, 3), dtype=np.uint8)}, "docs is not a 1-d integer array"),
    "wide blob": ({"terms": _pack_strings(["alpha", "beta", "gamma"]).astype(np.uint16)},
                  "terms is not a uint8 array"),
    "blob not utf-8": (_text("doc_ids", b"d1\nd\xff\nd3\n"), "doc_ids is not UTF-8"),
    "text cut inside a character": (_text("author_names", "Ann\nÉmile\n".encode("utf-8")[:5] + b"\n"),
                                    "author_names is not UTF-8"),
    "no final line break": (_text("terms", b"alpha\nbeta\ngamma"), "terms does not end with a line break"),
    "no documents": ({**_strings("doc_ids", []), **_array(journal_codes=[], author_counts=[])}, "no documents"),
    "doc ids unsorted": (_strings("doc_ids", ["d2", "d1", "d3"]), "doc ids are not strictly sorted"),
    "doc ids repeated": (_strings("doc_ids", ["d1", "d1", "d3"]), "doc ids are not strictly sorted"),
    "doc id with whitespace": (_strings("doc_ids", ["d 1", "d2", "d3"]), "a doc id is empty or has whitespace"),
    "empty doc id": (_strings("doc_ids", ["", "d2", "d3"]), "a doc id is empty or has whitespace"),
    "journal names unsorted": (_strings("journal_names", ["2222-2222", "1111-1111"]),
                               "journal names are not strictly sorted"),
    "author names unsorted": (_strings("author_names", ["Émile", "Ann"]), "author names are not strictly sorted"),
    "terms repeated": (_strings("terms", ["alpha", "beta", "alpha"]), "terms are not unique"),
    "df too short": (_array(df=[2, 4]), "df does not have one entry per term"),
    "df sums past docs": (_array(df=[3, 2, 2]), "df does not sum to the length of docs"),
    "negative df": (_array(df=[4, -2, 4]), "a df is out of range"),
    "empty row": (_array(df=[2, 0, 4]), "a df is out of range"),
    "df sums short of docs": (_array(df=[2, 2, 1]), "df does not sum to the length of docs"),
    "df past docs": (_array(df=[2, 2, 7]), "a df is out of range"),
    # sums to 6 modulo 2**64: each value is bounded before the sum is taken
    "df wraps its sum": ({"df": np.array([2**64 - 2, 4, 4], dtype=np.uint64)}, "a df is out of range"),
    # the term counts and docs disagree in length: seven counts above 1 for six postings
    "tfs shorter than docs": (_array(tf_gaps=[0, 1, 1, 1, 1, 1, 1], tf_values=[2] * 7),
                              "tf_values is longer than docs"),
    "tf lengths differ": (_array(tf_gaps=[5], tf_values=[2, 3]), "tf_gaps and tf_values differ in length"),
    "position past corpus": (_array(docs=[0, 3, 0, 1, 1, 2]), "a doc position is out of range"),
    "negative position": (_array(docs=[-1, 2, 0, 1, 1, 2]), "a doc position is out of range"),
    "zero term count": (_array(tf_gaps=[1, 4], tf_values=[0, 2]), "a stored term count is below 2"),
    "stored term count of 1": (_array(tf_values=[1]), "a stored term count is below 2"),
    "first gap past docs": (_array(tf_gaps=[6]), "a tf gap is out of range"),
    "negative gap": (_array(tf_gaps=[-1]), "a tf gap is out of range"),
    "later gap of 0": (_array(tf_gaps=[5, 0], tf_values=[2, 2]), "a tf gap is out of range"),
    "gaps run past docs": (_array(tf_gaps=[3, 3], tf_values=[2, 2]), "tf_gaps run past the end of docs"),
    # sums to 2 modulo 2**64: each gap is bounded before the sum is taken
    "gaps wrap their sum": ({"tf_gaps": np.array([3, 2**64 - 1], dtype=np.uint64), **_array(tf_values=[2, 2])},
                            "a tf gap is out of range"),
    "row out of order": (_array(docs=[2, 0, 0, 1, 1, 2]), "a row's doc positions do not strictly increase"),
    "row repeats a position": (_array(docs=[0, 0, 0, 1, 1, 2]), "a row's doc positions do not strictly increase"),
    "journal codes short": (_array(journal_codes=[0, -1]), "journal_codes does not have one code per document"),
    "journal code below -1": (_array(journal_codes=[0, -2, 1]), "a journal code is out of range"),
    "journal code past names": (_array(journal_codes=[0, -1, 2]), "a journal code is out of range"),
    "author counts short": (_array(author_counts=[2, 1]), "author_counts does not have one count per document"),
    "negative author count": (_array(author_counts=[3, -1, 1]), "an author count is out of range"),
    "author counts sum short of codes": (_array(author_counts=[2, 0, 0]),
                                         "author_counts does not sum to the length of author_codes"),
    "author count past codes": (_array(author_counts=[4, 0, 0]), "an author count is out of range"),
    "author counts wrap their sum": ({"author_counts": np.array([2**64 - 1, 2, 2], dtype=np.uint64)},
                                     "an author count is out of range"),
    "author code past names": (_array(author_codes=[0, 1, 2]), "an author code is out of range"),
    "negative author code": (_array(author_codes=[0, -1, 1]), "an author code is out of range"),
}


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_load_rejects_inconsistent_member(tmp_path, case):
    changes, reason = CORRUPTIONS[case]
    members = _layout_index()._members()
    for name, value in changes.items():
        if value is None:
            del members[name]
        else:
            members[name] = value
    path = tmp_path / "bad.idx"
    path.write_bytes(index_zip(members))
    with pytest.raises(ValueError) as info:
        InvertedIndex.load(path)
    message = str(info.value)
    assert message.startswith(f"{path} is not a valid index: {reason}")
    assert message.endswith("; rebuild it with `lotkarank index`")
    assert "\n" not in message


# loads an index under a 2 GiB address-space cap, so an allocation of what a
# header claims fails at once instead of depending on the host's overcommit
_CAPPED_LOAD = """
import resource, sys
from lotkarank.index import InvertedIndex
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
try:
    InvertedIndex.load(sys.argv[1])
except ValueError as exc:
    print(exc)
"""


def _load_capped(path):
    src = os.path.dirname(os.path.dirname(lotkarank.__file__))
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _CAPPED_LOAD, str(path)], env=env,
                          capture_output=True, text=True, encoding="utf-8", timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("shape, reason", [
    ((2**31,), f"df claims {2**34} bytes of data but holds 0"),
    ((2**16, 2**15), "df is not a 1-d integer array"),
])
def test_load_checks_npy_header_before_allocating(tmp_path, shape, reason):
    # df's header claims 2**31 int64 values (16 GiB), but the member holds only the header
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {"descr": "<i8", "fortran_order": False, "shape": shape})
    path = tmp_path / "hostile.idx"
    path.write_bytes(index_zip({**_layout_index()._members(), "df": header.getvalue()}))
    assert path.stat().st_size < 4096
    message = _load_capped(path)
    assert message == f"{path} is not a valid index: {reason}; rebuild it with `lotkarank index`"
    assert "Unable to allocate" not in message


@pytest.mark.parametrize("trailing", [0, 8192])
def test_load_checks_every_members_crc(tmp_path, trailing):
    # zipfile checks a member's CRC only once it is read to its end; a member with bytes
    # after its array's data (4 KiB or more, past zipfile's read-ahead) would not be, and
    # a term count of 9 in place of 2 passes every other check
    index = build_index([_doc("d1", " ".join(f"t{i} t{i}" for i in range(6000)))])
    tf_values = index._members()["tf_values"]
    assert tf_values.tolist() == [2] * 6000
    members = {**index._members(), "tf_values": _npy(tf_values) + bytes(trailing)}
    path = tmp_path / "flipped.idx"
    path.write_bytes(index_zip(members))
    with zipfile.ZipFile(path) as archive:
        start = archive.getinfo("tf_values.npy").header_offset
    raw = bytearray(path.read_bytes())
    data = raw.index(_npy(tf_values), start) + len(_npy(tf_values)) - len(tf_values)  # tf_values[0]
    assert raw[data] == 2
    raw[data] = 9
    path.write_bytes(raw)
    with pytest.raises(ValueError) as info:
        InvertedIndex.load(path)
    reason = (f"is not a valid index: tf_values claims 6000 bytes of data but holds {6000 + trailing}"
              if trailing else "is not a readable index (Bad CRC-32 for file 'tf_values.npy')")
    assert str(info.value) == f"{path} {reason}; rebuild it with `lotkarank index`"


@pytest.mark.parametrize("member, size, dtype", [
    ("author_counts", 255, np.uint8), ("author_counts", 256, np.uint16),  # authors on one document
    ("journal_codes", 128, np.int8), ("journal_codes", 129, np.int16),  # journals
    ("author_codes", 256, np.uint8), ("author_codes", 257, np.uint16),  # author names
    ("df", 255, np.uint8), ("df", 256, np.uint16),  # documents in one row
    # the first posting's term count: 1 leaves both tf members empty, 2 gives a first gap of 0
    ("tf_values", 1, np.uint8), ("tf_values", 2, np.uint8),
    ("tf_values", 255, np.uint8), ("tf_values", 256, np.uint16),
    ("tf_gaps", 255, np.uint8), ("tf_gaps", 256, np.uint16),  # postings between two counts above 1
    # author codes in all, so the last author offset: the held _author_ptr, which is not saved
    ("author_ptr", 65_535, np.uint16), ("author_ptr", 65_536, np.uint32),
])
def test_layout_round_trips_at_type_edges(tmp_path, member, size, dtype):
    names = [f"n{i:03d}" for i in range(size)]
    if member == "tf_values":
        records = [_doc("d0", "shared " * size), _doc("d1", "other")]
        tf_members = {"tf_gaps": [0], "tf_values": [size]} if size > 1 else {"tf_gaps": [], "tf_values": []}
    elif member == "tf_gaps":
        # the first and the last document of the row hold the term twice
        records = [_doc(f"d{i:03d}", "shared shared" if i in (0, size) else "shared") for i in range(size + 1)]
        records.append(_doc("zz", "other"))
        tf_members = {"tf_gaps": [0, size], "tf_values": [2, 2]}
    elif member == "author_counts":
        records = [_doc("d0", "shared", authors=names), _doc("d1", "other")]
    elif member == "journal_codes":
        records = [_doc(f"d{i:03d}", "shared", journal_issn=name) for i, name in enumerate(names)]
        records.append(_doc("zz", "other"))  # and one document without a journal
    elif member == "author_codes":
        records = [_doc(f"d{i:03d}", "shared", authors=[name]) for i, name in enumerate(names)]
    elif member == "author_ptr":
        records = None  # 65,536 authors through build_index would be slow: the tables directly
    else:
        records = [_doc(f"d{i:03d}", "shared") for i in range(size)] + [_doc("zz", "other")]
    index = _authors_index(size) if records is None else build_index(records)
    held = index._author_ptr if member == "author_ptr" else index._members()[member]
    assert held.dtype == dtype
    if member in ("tf_gaps", "tf_values"):
        assert {name: index._members()[name].tolist() for name in tf_members} == tf_members
    path = tmp_path / "edge.idx"
    index.save(path)
    loaded = InvertedIndex.load(path)
    assert loaded == index
    for idx in (index, loaded):
        # each code table is held in the type it is saved in, and saved as held, not copied
        members = idx._members()
        for name in ("journal_codes", "author_codes"):
            assert members[name] is getattr(idx, f"_{name}")
        assert idx._author_ptr.dtype == np.min_scalar_type(len(idx._author_codes))
    # each document's authors in turn, read from the saved counts and codes
    codes_left = iter(index._members()["author_codes"].tolist())
    by_doc = [[next(codes_left) for _ in range(count)] for count in index._members()["author_counts"].tolist()]
    rng = np.random.default_rng(size)
    for positions in (np.arange(index.corpus_size)[::-1], rng.permutation(index.corpus_size)[:index.corpus_size // 2]):
        for field in EntityField:
            (names, tally, doc_ef), (want_names, want_tally, want_doc_ef) = (
                idx.entity_counts(field, positions) for idx in (loaded, index)
            )
            assert (names, tally.tolist(), doc_ef.tolist()) == (want_names, want_tally.tolist(), want_doc_ef.tolist())
            assert doc_ef.dtype == want_doc_ef.dtype == np.int64
        # each code counted once per occurrence, and each document's ef the largest count of its codes
        _, tally, doc_ef = loaded.entity_counts(EntityField.AUTHOR, positions)
        want_tally = np.bincount([code for pos in positions.tolist() for code in by_doc[pos]],
                                 minlength=len(index._author_names))
        assert tally.tolist() == want_tally.tolist()
        assert doc_ef.tolist() == [max(want_tally[by_doc[pos]], default=0) for pos in positions.tolist()]
    assert same_ranking(search("shared", loaded), search("shared", index))


def _authors_index(size):
    """An index over 300 documents holding size author codes in all; the first document has none."""
    n, rng = 300, np.random.default_rng(7)
    author_counts = np.bincount(rng.integers(1, n, size=size), minlength=n)
    author_names = [f"a{i:03d}" for i in range(n)]
    # "shared" in every document but the last, "other" in the last
    return InvertedIndex([f"d{i:03d}" for i in range(n)], {"shared": 0, "other": 1}, np.array([n - 1, 1]),
                         np.arange(n), np.ones(n, dtype=np.int64), [], np.full(n, -1), author_names,
                         author_counts, rng.integers(0, n, size=size))


def test_load_rejects_compressed_member(tmp_path):
    # a deflated member may claim any uncompressed size, so the layout is stored only
    path = tmp_path / "compressed.idx"
    with open(path, "wb") as fout:
        np.savez_compressed(fout, **_layout_index()._members())
    with pytest.raises(ValueError) as info:
        InvertedIndex.load(path)
    assert str(info.value) == (f"{path} is not a valid index: format is not stored whole in the file; "
                               "rebuild it with `lotkarank index`")


def test_load_rejects_a_duplicated_member(tmp_path):
    # a zip may hold two entries of one name; loading must not let the last one win
    index = _layout_index()
    path = tmp_path / "dup.idx"
    index.save(path)
    with pytest.warns(UserWarning, match="Duplicate name"), zipfile.ZipFile(path, "a") as archive:
        archive.writestr("tf_values.npy", _npy(np.array([3], dtype=np.uint8)))
    with pytest.raises(ValueError) as info:
        InvertedIndex.load(path)
    assert str(info.value) == (f"{path} is not a valid index: duplicate member tf_values; "
                               "rebuild it with `lotkarank index`")


def test_load_accepts_members_in_wider_integer_types(tmp_path):
    index = _layout_index()
    texts = ("format", "terms", "doc_ids", "journal_names", "author_names")
    members = {
        name: value if name in texts else value.astype(np.int64) for name, value in index._members().items()
    }
    members["docs"] = members["docs"].astype(np.uint64)
    path = tmp_path / "wide.idx"
    path.write_bytes(index_zip(members))
    loaded = InvertedIndex.load(path)
    assert loaded == index
    for name in ("_ptr", "_docs", "_tfs", "_journal_codes", "_author_ptr", "_author_codes"):
        assert getattr(loaded, name).dtype == getattr(index, name).dtype
    positions = np.array([2, 0, 1])  # d3 (no author), d1, d2 (no journal)
    want = {EntityField.JOURNAL: ([1, 1], [1, 1, 0]), EntityField.AUTHOR: ([1, 2], [0, 2, 2])}
    for field in EntityField:
        assert [x.tolist() for x in loaded.entity_counts(field, positions)[1:]] == list(want[field])
        (names, tally, doc_ef), (want_names, want_tally, want_doc_ef) = (
            idx.entity_counts(field, positions) for idx in (loaded, index)
        )
        assert (names, tally.tolist(), doc_ef.tolist()) == (want_names, want_tally.tolist(), want_doc_ef.tolist())
        assert doc_ef.dtype == want_doc_ef.dtype == np.int64


def test_positions_and_row_offsets_stored_narrow():
    index = _layout_index()
    assert (index._docs.dtype, index._ptr.dtype) == (np.uint8, np.uint8)
    records = [_doc(f"d{i:03d}", "shared") for i in range(257)]
    index = build_index(records)
    assert (index._docs.dtype, index._ptr.dtype) == (np.uint16, np.uint16)
    assert index._docs.tolist() == list(range(257))
    assert search("shared", build_index(records + [_doc("zz", "other")])).doc_ids() == [
        rec.doc_id for rec in records
    ]


def test_saved_file_is_a_deterministic_npz(tmp_path):
    docs = [
        _doc("d1", "alpha beta", authors=["Zoë"], journal_issn="2222-2222"),
        _doc("d2", "beta", authors=["Ann", "Zoë"]),
        _doc("日本", "gamma alpha", journal_issn="1111-111X"),
    ]
    paths = [tmp_path / f"{name}.idx" for name in ("a", "b", "permuted")]
    build_index(docs).save(paths[0])
    build_index(docs).save(paths[1])
    build_index(docs[::-1]).save(paths[2])
    contents = {path.read_bytes() for path in paths}
    assert len(contents) == 1
    assert contents.pop().startswith(b"PK\x03\x04")
    with np.load(paths[0], allow_pickle=False) as archive:
        assert archive.files == list(build_index(docs)._members())
    with zipfile.ZipFile(paths[0]) as archive:  # no build time in the file
        assert {(info.date_time, info.compress_type) for info in archive.infolist()} == {
            ((1980, 1, 1, 0, 0, 0), zipfile.ZIP_STORED)
        }
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.idx", "b.idx", "permuted.idx"]


def test_save_load_round_trip_without_postings(tmp_path):
    index = build_index([_doc("ü", ""), _doc("d1", "", authors=["Ann"])])
    assert index.term_count() == 0
    path = tmp_path / "empty.idx"
    index.save(path)
    loaded = InvertedIndex.load(path)
    assert loaded == index
    assert search("anything", loaded).set_size == 0


def _saved_index_bytes(tmp_path):
    path = tmp_path / "good.idx"
    build_index([_doc("d1", "alpha beta"), _doc("d2", "beta")]).save(path)
    return path.read_bytes()


@pytest.mark.parametrize("kind", ["empty", "truncated", "half", "text"])
def test_load_names_path_of_unreadable_file(tmp_path, kind):
    content = {
        "empty": b"",
        "truncated": _saved_index_bytes(tmp_path)[:-40],
        "half": _saved_index_bytes(tmp_path)[: len(_saved_index_bytes(tmp_path)) // 2],
        "text": "id\ttitle\nd1\talpha\n".encode("utf-8"),
    }[kind]
    path = tmp_path / f"{kind}.idx"
    path.write_bytes(content)
    with pytest.raises(ValueError) as info:
        InvertedIndex.load(path)
    message = str(info.value)
    assert str(path) in message
    assert "rebuild it with `lotkarank index`" in message
    assert "\n" not in message


def test_load_rejects_stale_layout(tmp_path):
    # the four-dict layout written before the CSR table: loads as an InvertedIndex
    stale = object.__new__(InvertedIndex)
    stale.__dict__.update(
        doc_table={"d1": _doc("d1", "a")},
        corpus_size=1,
        _doc_ids=["d1"],
        postings={"a": [("d1", 1)]},
        doc_freq={"a": 1},
        _term_docs={"a": np.array([0], dtype=np.int32)},
        _term_tfs={"a": np.array([1.0])},
        _doc_pos={"d1": 0},
    )
    path = tmp_path / "stale.idx"
    with open(path, "wb") as fout:
        pickle.dump(stale, fout, protocol=4)
    with pytest.raises(ValueError, match="older layout") as info:
        InvertedIndex.load(path)
    assert str(path) in str(info.value)
    assert "rebuild it with `lotkarank index`" in str(info.value)


def test_load_rejects_previous_csr_layout(tmp_path):
    # the CSR layout written before the entity tables and the narrow term counts
    previous = build_index([_doc("d1", "alpha beta"), _doc("d2", "beta")])
    previous._format = "csr-1"
    path = tmp_path / "previous.idx"
    with open(path, "wb") as fout:
        pickle.dump(previous, fout, protocol=4)
    with pytest.raises(ValueError) as info:
        InvertedIndex.load(path)
    assert str(info.value) == (
        f"{path} holds an index in an older layout; rebuild it with `lotkarank index`"
    )
