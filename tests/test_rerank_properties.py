"""Property-based differential tests of re-ranking and run files against the naive oracle."""
import itertools
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import naive_doc_ef, naive_entity_counts, naive_rerank, naive_run_lines, naive_search
from lotkarank.corpus import DocumentRecord
from lotkarank.index import ResultSet, build_index, search
from lotkarank.informetrics import EntityField, entity_frequencies
from lotkarank.rerank import MissingPolicy, Mode, RankingConfig, rerank, write_run_file

_NAMES = st.text(st.characters(categories=("Lu", "Ll", "Lo", "Nd", "Pd")), min_size=1, max_size=5)
_WORDS = ["alpha", "béta", "γάμμα", "δ", "日本"]
# few distinct texts, so many documents share a tf-idf score
_TEXTS = st.lists(st.sampled_from(_WORDS[:3]), max_size=3).map(" ".join)


_MODERATE_K = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
# ks at and around the edges of float range for result sets of up to 10 docs
_EXTREME_K = st.floats(-1100, 1100) | st.sampled_from([-700.0, -645.0, -640.0, 640.0, 645.0, 670.0,
                                                       678.0, 700.0])


@st.composite
def ranked_corpus(draw, ks=_MODERATE_K):
    n_docs = draw(st.integers(min_value=2, max_value=10))  # in one document every idf is ln 1 = 0
    doc_ids = draw(st.lists(_NAMES, min_size=n_docs, max_size=n_docs, unique=True))
    issns = draw(st.lists(_NAMES, min_size=1, max_size=4, unique_by=str.upper))
    authors = draw(st.lists(_NAMES, min_size=1, max_size=6, unique=True))
    records = [
        DocumentRecord(
            doc_id=doc_id,
            title=draw(_TEXTS),
            body=draw(_TEXTS),
            authors=draw(st.lists(st.sampled_from(authors), max_size=3, unique=True)),
            journal_issn=draw(st.none() | st.sampled_from(issns)),
        )
        for doc_id in doc_ids
    ]
    # a word some documents hold and others do not has idf > 0, so the result set is empty
    # only when every document holds the same words; words no text holds may join it
    held = [set(f"{rec.title} {rec.body}".split()) for rec in records]
    scoring = sorted(set.union(*held) - set.intersection(*held)) or _WORDS[:3]
    words = [draw(st.sampled_from(scoring)), *draw(st.lists(st.sampled_from(_WORDS), max_size=2))]
    query = " ".join(draw(st.permutations(words)))
    return records, query, draw(ks)


@settings(derandomize=True, deadline=None)
@given(ranked_corpus())
def test_rerank_matches_naive_oracle(case):
    records, query, k = case
    index = build_index(records)
    rs = search(query, index)
    entries = naive_search(records, query)
    cases = [
        (RankingConfig(mode=Mode.TFIDF), ("tfidf", None, k, "drop")),
        (RankingConfig(mode=Mode.BRADFORD), ("brad", None, k, "drop")),
        (RankingConfig(mode=Mode.LOTKA), ("lotka", None, k, "drop")),
    ]
    for field in EntityField:
        for policy in MissingPolicy:
            config = RankingConfig(mode=Mode.COMBINED, field=field, k=k, missing_policy=policy)
            cases.append((config, ("combined", field.value, k, policy.value)))
    for config, naive_args in cases:
        ranked = rerank(rs, config, index)
        expected, expected_dropped = naive_rerank(records, entries, *naive_args)
        assert ranked.doc_ids() == [doc_id for doc_id, _, _ in expected]
        assert [rank for _, _, rank in ranked.entries] == list(range(1, len(expected) + 1))
        assert ranked.dropped == expected_dropped
        for (_, got, _), (_, want, _) in zip(ranked.entries, expected):
            assert abs(got - want) <= 1e-9
        for top in (0, 1, len(expected), len(expected) + 5, None):
            assert ranked.doc_ids(top) == ranked.doc_ids()[:top]


def _out_of_float_range(records, entries, field, k):
    """How some field-bearing doc's tfidf * (ef / n) ** k leaves float range, or None."""
    counts = naive_entity_counts(records, [doc_id for doc_id, _, _ in entries], field.value)
    by_id = {rec.doc_id: rec for rec in records}
    for doc_id, tfidf, _ in entries:
        ef = naive_doc_ef(by_id[doc_id], counts, field.value)
        if ef is None:
            continue
        try:
            score = tfidf * (ef / len(entries)) ** k
        except OverflowError:
            return "overflow"
        if math.isinf(score):
            return "overflow"
        if score == 0.0:
            return "underflow to 0"
    return None


@settings(derandomize=True, deadline=None)
@given(ranked_corpus(_MODERATE_K | _EXTREME_K))
def test_rerank_errors_exactly_when_a_combined_score_leaves_float_range(case):
    records, query, drawn_k = case
    index = build_index(records)
    rs = search(query, index)
    # a power-of-two scale keeps every score exact and the search order; at 2 ** 1000 and
    # 2 ** -1000, k = -100 and k = 100 leave the factor in range but not its product with
    # the score, in every corpus with a doc whose ef is at most N / 2
    for scale, k in itertools.product((1.0, 2.0 ** -1000, 2.0 ** 1000), (drawn_k, -100.0, 100.0)):
        scaled = replace(rs, scores=rs.scores * scale)
        for field in EntityField:
            what = _out_of_float_range(records, scaled.entries, field, k)
            for policy in MissingPolicy:
                config = RankingConfig(mode=Mode.COMBINED, field=field, k=k, missing_policy=policy)
                if what is None:
                    expected = naive_rerank(records, scaled.entries, "combined", field.value, k, policy.value)
                    ranked = rerank(scaled, config, index)
                    assert (ranked.entries, ranked.dropped) == expected
                else:
                    with pytest.raises(ValueError) as info:
                        rerank(scaled, config, index)
                    assert str(info.value) == f"k={config.k} makes a combined score {what}; " \
                                              "use a k of smaller magnitude"


# (entity frequency as a multiple of e, tf): tf 2 at ef e and tf 1 at ef 2e give equal
# combined scores at k = 1 from different tf-idf scores, 2 idf (e/N) = idf (2e/N)
_GROUPS = st.lists(st.sampled_from([(1, 2), (2, 1), (1, 1), (2, 2)]), min_size=1, max_size=5)


@st.composite
def tied_corpus(draw):
    """Documents matching the query "q" in groups that share one journal and one author.

    A group's documents tie on entity frequency and tf-idf; groups of sizes
    e and 2e tie on combined score. Documents with neither field pass
    through; some carry a second author of their own, whose count is 1.
    """
    e = draw(st.integers(min_value=1, max_value=3))
    groups = draw(_GROUPS)
    specs = []  # (group or None, tf)
    for g, (multiple, tf) in enumerate(groups):
        specs += [(g, tf)] * (multiple * e)
    specs += [(None, tf) for tf in draw(st.lists(st.sampled_from([1, 2]), max_size=4))]
    # doc_id order is not group order, so ties have to be broken by doc_id
    order = draw(st.permutations(range(len(specs))))
    records = [DocumentRecord(doc_id="zfill", title="padding")]  # so that q's idf is > 0
    for i, (g, tf) in zip(order, specs):
        authors = [] if g is None else [f"A{g}"] + ([f"solo{i}"] if draw(st.booleans()) else [])
        records.append(DocumentRecord(doc_id=f"d{i:02d}", title=" ".join(["q"] * tf), authors=authors,
                                      journal_issn=None if g is None else f"J{g}"))
    k = draw(st.sampled_from([1.0, 1.0, -1.0, 0.5, 0.0]))
    return records, k


def _configs(k):
    yield RankingConfig(mode=Mode.BRADFORD), ("brad", None, k, "drop")
    yield RankingConfig(mode=Mode.LOTKA), ("lotka", None, k, "drop")
    for field in EntityField:
        for policy in MissingPolicy:
            config = RankingConfig(mode=Mode.COMBINED, field=field, k=k, missing_policy=policy)
            yield config, ("combined", field.value, k, policy.value)


@settings(derandomize=True, deadline=None)
@given(tied_corpus())
def test_rerank_matches_naive_oracle_on_ties(case):
    records, k = case
    index = build_index(records)
    rs = search("q", index)
    entries = naive_search(records, "q")
    for config, naive_args in _configs(k):
        ranked = rerank(rs, config, index)
        expected, expected_dropped = naive_rerank(records, entries, *naive_args)
        assert ranked.entries == expected
        assert ranked.dropped == expected_dropped


def test_rerank_matches_naive_oracle_past_16_bit_keys():
    # more than 65535 documents in the result set and in the index, so neither the
    # entity-frequency key N - ef nor a position fits in 16 bits; one large journal
    # and one prolific author put N - ef on both sides of 65536
    n = 70_000
    records = [DocumentRecord(doc_id="zfill", title="padding")]
    for i in range(n):
        group = (i * 7919) % 301  # about 230 documents per group, in no doc_id order
        author = "A-big" if i % 3 == 0 else f"A{group % 97}"
        records.append(DocumentRecord(
            doc_id=f"d{i:05d}", title="q q" if i % 7 else "q",
            authors=[] if i % 11 == 0 else [author] + ([f"B{i % 5}"] if i % 4 == 0 else []),
            journal_issn=None if i % 13 == 0 else ("J-big" if i % 2 == 0 else f"J{group}")))
    index = build_index(records)
    rs = search("q", index)
    assert rs.set_size == n
    k0_combined = [(config, args) for config, args in _configs(0.0) if config.mode is Mode.COMBINED]
    for config, naive_args in [*_configs(1.0), *k0_combined]:
        ranked = rerank(rs, config, index)
        expected, expected_dropped = naive_rerank(records, rs.entries, *naive_args)
        assert ranked.entries == expected
        assert ranked.dropped == expected_dropped
        if config.k == 0.0:
            # every (ef, tf-idf) pair of one tf-idf score has the same combined score, so
            # the pairs merge and the documents keep their search order
            assert np.array_equal(ranked.positions, rs.positions[np.isin(rs.positions, ranked.positions)])


@settings(derandomize=True, deadline=None)
@given(ranked_corpus())
def test_entity_frequencies_match_naive_counts(case):
    records, query, _ = case
    index = build_index(records)
    rs = search(query, index)
    by_id = {rec.doc_id: rec for rec in records}
    for field in EntityField:
        table = entity_frequencies(rs, field, index)
        counts = naive_entity_counts(records, rs.doc_ids(), field.value)
        assert table.counts == counts
        assert table.covered_docs <= rs.set_size
        doc_ef = [naive_doc_ef(by_id[doc_id], counts, field.value) for doc_id in rs.doc_ids()]
        assert table.covered_docs == sum(ef is not None for ef in doc_ef)
        assert table.doc_ef.tolist() == [ef or 0 for ef in doc_ef]


# ids as run files carry them: any printable characters but whitespace
_IDS = st.text(st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")), min_size=1, max_size=4)
_BOTH_WIDTHS = [0.0, -0.0, 1.0, 0.1234565, float("inf"), float("-inf"), float("nan")]
_SCORES = {
    # any float64 bit pattern: NaNs with any payload and sign, subnormals, both zeros, infinities
    "float64": st.one_of(st.sampled_from(_BOTH_WIDTHS + [5e-324, -5e-324, 2.2250738585072014e-308, 1e300]),
                         st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))),
    "float32": st.one_of(st.sampled_from(_BOTH_WIDTHS + [1e-45, -1e-45, 3e38]), st.floats(width=32)),
    "int64": st.integers(-(2**63), 2**63 - 1),
}


@st.composite
def run_lists(draw):
    dtype = draw(st.sampled_from(sorted(_SCORES)))
    # a few values drawn once and reused, so many entries share a score
    pool = draw(st.lists(_SCORES[dtype], min_size=1, max_size=4))
    lists = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        table = draw(st.lists(_IDS, max_size=12, unique=True))
        positions = draw(st.permutations(range(len(table))))[:draw(st.integers(0, len(table)))]
        scores = draw(st.lists(st.sampled_from(pool) | _SCORES[dtype],
                               min_size=len(positions), max_size=len(positions)))
        lists.append(ResultSet(query_id=draw(_IDS), positions=np.array(positions, dtype=np.intp),
                               scores=np.array(scores, dtype=dtype), doc_id_table=table, tag=draw(_IDS)))
    return lists


@settings(derandomize=True, deadline=None)
@given(run_lists())
def test_run_file_matches_naive_lines(lists):
    expected = "".join(
        naive_run_lines(rs.query_id, [rs.doc_id_table[p] for p in rs.positions.tolist()], rs.scores.tolist(), rs.tag)
        for rs in lists
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.run"
        write_run_file(lists, path)
        assert path.read_bytes() == expected.encode("utf-8")
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["x.run"]
