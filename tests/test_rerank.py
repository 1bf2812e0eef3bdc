import dataclasses
import itertools
import math
import random
import re
import warnings

import numpy as np
import pytest

from helpers import random_small_corpus, ranked_list, same_ranking
from oracle import naive_rerank, naive_run_lines, naive_search
from lotkarank.corpus import DocumentRecord
from lotkarank.index import build_index, search
from lotkarank.informetrics import EntityField
from lotkarank.rerank import (
    MissingPolicy,
    Mode,
    RankingConfig,
    rerank,
    write_run_file,
)


def test_config_fills_implied_field():
    assert RankingConfig(mode=Mode.BRADFORD).field is EntityField.JOURNAL
    assert RankingConfig(mode=Mode.LOTKA).field is EntityField.AUTHOR


def test_config_rejects_contradictory_field():
    with pytest.raises(ValueError):
        RankingConfig(mode=Mode.BRADFORD, field=EntityField.AUTHOR)
    with pytest.raises(ValueError):
        RankingConfig(mode=Mode.LOTKA, field=EntityField.JOURNAL)


def test_config_combined_requires_field():
    with pytest.raises(ValueError):
        RankingConfig(mode=Mode.COMBINED)


def test_config_rejects_non_finite_k():
    with pytest.raises(ValueError):
        RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=float("inf"))
    with pytest.raises(ValueError):
        RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=float("nan"))


def test_run_tags():
    assert RankingConfig(mode=Mode.TFIDF).run_tag == "tfidf"
    assert RankingConfig(mode=Mode.BRADFORD).run_tag == "brad"
    assert RankingConfig(mode=Mode.LOTKA).run_tag == "lotka"
    assert RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=1).run_tag == "combined_k1.0"
    assert RankingConfig(mode=Mode.COMBINED, field=EntityField.JOURNAL, k=-0.5).run_tag == "combined_k-0.5"


def _indexed(docs_spec, query="shared"):
    """docs_spec: (doc_id, extra_tf, authors, issn); tfidf grows with extra_tf."""
    records = []
    for doc_id, extra_tf, authors, issn in docs_spec:
        body = " ".join(["shared"] * extra_tf)
        records.append(
            DocumentRecord(doc_id=doc_id, title="shared", body=body, authors=authors, journal_issn=issn)
        )
    records.append(DocumentRecord(doc_id="zfill", title="padding"))
    index = build_index(records)
    return index, search(query, index)


def test_pure_rerank_single_journal_falls_back_to_tfidf_order():
    index, rs = _indexed(
        [("d1", 0, [], "1111-1111"), ("d2", 2, [], "1111-1111"), ("d3", 1, [], "1111-1111")]
    )
    ranked = rerank(rs, RankingConfig(mode=Mode.BRADFORD), index)
    assert ranked.doc_ids() == ["d2", "d3", "d1"]  # inner ranking = tfidf descending
    assert [score for _, score, _ in ranked.entries] == [3.0, 3.0, 3.0]
    assert ranked.dropped == 0
    assert ranked.tag == "brad"


def test_pure_rerank_groups_by_frequency_then_tfidf():
    # ef: AAAA -> 3 (d1, d2, d5), BBBB -> 1; d3 has the top tfidf but a rare journal
    index, rs = _indexed(
        [
            ("d1", 3, [], "AAAA-AAAA"),
            ("d2", 1, [], "AAAA-AAAA"),
            ("d3", 9, [], "BBBB-BBBB"),
            ("d5", 5, [], "AAAA-AAAA"),
        ]
    )
    ranked = rerank(rs, RankingConfig(mode=Mode.BRADFORD), index)
    assert ranked.doc_ids() == ["d5", "d1", "d2", "d3"]
    assert [score for _, score, _ in ranked.entries] == [3.0, 3.0, 3.0, 1.0]
    assert ranked.tag == "brad"


def test_pure_rerank_drops_docs_without_field():
    index, rs = _indexed([("d1", 0, [], "1111-1111"), ("d2", 0, [], None), ("d3", 0, [], None)])
    ranked = rerank(rs, RankingConfig(mode=Mode.BRADFORD), index)
    assert ranked.doc_ids() == ["d1"]
    assert ranked.dropped == 2


def test_pure_rerank_author_tag_is_lotka():
    index, rs = _indexed([("d1", 0, ["A"], None)])
    assert rerank(rs, RankingConfig(mode=Mode.LOTKA), index).tag == "lotka"


def test_rerank_tfidf_is_identity():
    index, rs = _indexed([("d1", 2, ["A"], None), ("d2", 0, [], None)])
    ranked = rerank(rs, RankingConfig(mode=Mode.TFIDF), index)
    assert ranked.entries == rs.entries
    assert ranked.dropped == 0
    assert same_ranking(ranked, rs)
    assert not same_ranking(rerank(rs, RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=0.0,
                                                     missing_policy=MissingPolicy.PASSTHROUGH), index),
                            rs)  # tag differs


def test_rerank_combined_k_zero_equals_tfidf_on_field_bearing_docs():
    spec = [("d1", 2, ["A"], None), ("d2", 1, [], None), ("d3", 0, ["B"], None), ("d4", 3, ["A"], None)]
    index, rs = _indexed(spec)
    authors = {doc_id: names for doc_id, _, names, _ in spec}
    config = RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=0.0)
    ranked = rerank(rs, config, index)
    expected = [(d, s, None) for d, s, _ in rs.entries if authors[d]]
    assert ranked.doc_ids() == [d for d, _, _ in expected]
    assert [s for _, s, _ in ranked.entries] == [s for _, s, _ in expected]
    assert ranked.dropped == 1


def test_rerank_combined_k_sign_flips_order():
    # equal tfidf, author frequency 3 vs 1
    index, rs = _indexed(
        [
            ("d1", 1, ["Ann"], None),
            ("d2", 1, ["Ann"], None),
            ("d3", 1, ["Ann"], None),
            ("d4", 1, ["Rare"], None),
        ]
    )
    pro = rerank(rs, RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=1.0), index)
    contra = rerank(rs, RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=-1.0), index)
    assert pro.doc_ids() == ["d1", "d2", "d3", "d4"]
    assert contra.doc_ids() == ["d4", "d1", "d2", "d3"]


def test_rerank_no_missing_fields_drops_nothing():
    index, rs = _indexed([("d1", 0, ["A"], "1111-1111"), ("d2", 1, ["B"], "2222-2222")])
    for config in (
        RankingConfig(mode=Mode.TFIDF),
        RankingConfig(mode=Mode.BRADFORD),
        RankingConfig(mode=Mode.LOTKA),
        RankingConfig(mode=Mode.COMBINED, field=EntityField.JOURNAL),
    ):
        assert rerank(rs, config, index).dropped == 0


def test_rerank_passthrough_keeps_missing_docs_at_tfidf_score():
    index, rs = _indexed([("d1", 0, ["A"], None), ("d2", 5, [], None)])
    config = RankingConfig(
        mode=Mode.COMBINED, field=EntityField.AUTHOR, k=1.0, missing_policy=MissingPolicy.PASSTHROUGH
    )
    ranked = rerank(rs, config, index)
    assert ranked.dropped == 0
    scores = dict((d, s) for d, s, _ in ranked.entries)
    tfidf = dict((d, s) for d, s, _ in rs.entries)
    assert scores["d2"] == tfidf["d2"]  # untouched
    assert scores["d1"] == tfidf["d1"] * (1 / 2)  # ef=1, N=2


def _combined_scores(rs, index, k, policy=MissingPolicy.DROP):
    """doc_id -> combined score of rerank at k over the author field."""
    config = RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=k, missing_policy=policy)
    return {d: s for d, s, _ in rerank(rs, config, index).entries}


def test_combined_score_k_zero_is_identity():
    # ef 2 of N 9 and ef 1 of N 9: a factor of 1.0 at k = 0 whatever the frequency
    spec = [(f"d{i}", i % 3, [f"a{i}"], None) for i in range(7)] + [
        ("e1", 4, ["Ann"], None), ("e2", 0, ["Ann"], None)]
    index, rs = _indexed(spec)
    tfidf = {d: s for d, s, _ in rs.entries}
    assert _combined_scores(rs, index, 0.0) == tfidf
    ranked = rerank(rs, RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=0.0), index)
    assert ranked.scores.tobytes() == rs.scores.tobytes()


def test_combined_score_full_frequency_is_identity():
    # every retrieved doc shares one author, so ef = N and the factor is 1.0 for any k
    index, rs = _indexed([("d1", 2, ["A"], None), ("d2", 0, ["A", "B"], None), ("d3", 1, ["A"], None)])
    for k in (-2.0, -0.5, 0.0, 1.0, 3.0):
        ranked = rerank(rs, RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=k), index)
        assert ranked.entries == rs.entries
        assert ranked.scores.tobytes() == rs.scores.tobytes()


def test_combined_score_hand_computed():
    # Ann writes 4 of the 16 retrieved docs: ef 4 of N 16, a factor of 1/4 at k = 1, 4 at k = -1
    spec = [(f"d{i}", 0, ["Ann"] if i < 4 else [f"a{i}"], None) for i in range(16)]
    index, rs = _indexed(spec)
    assert rs.set_size == 16
    tfidf = {d: s for d, s, _ in rs.entries}
    for k, factor in ((1.0, 0.25), (-1.0, 4.0)):
        scores = _combined_scores(rs, index, k)
        for i in range(4):
            assert scores[f"d{i}"] == pytest.approx(tfidf[f"d{i}"] * factor, rel=1e-15)


def test_rerank_monotone_in_ef_for_positive_k():
    # author a<e> writes e docs with equal tf-idf: the combined score rises with e for k > 0
    # and falls with e for k < 0
    spec = [(f"a{e}-{i}", 0, [f"a{e}"], None) for e in range(1, 8) for i in range(e)]
    index, rs = _indexed(spec)
    assert len(set(rs.scores.tolist())) == 1
    for k, sign in ((1.5, 1), (-1.5, -1)):
        scores = _combined_scores(rs, index, k)
        by_ef = [scores[f"a{e}-0"] for e in range(1, 8)]
        assert all(sign * (b - a) > 0 for a, b in zip(by_ef, by_ef[1:]))


# the factor overflows; the factor times tf-idf does; the factor underflows; the factor
# times tf-idf does; the largest score stays finite; the smallest stays above 0
@pytest.mark.parametrize("k", [-700.0, -645.0, 700.0, 678.0, -640.0, 670.0])
@pytest.mark.parametrize("policy", list(MissingPolicy))
def test_rerank_combined_overflow_names_k(k, policy):
    # three retrieved docs, two with one author each: ef 1 of N 3, a factor of 3 ** -k;
    # d1's tf-idf is 21 ln(4/3) and d2's ln(4/3)
    index, rs = _indexed([("d1", 20, ["A"], None), ("d2", 0, ["B"], None), ("d3", 0, [], None)])
    assert math.isfinite(3.0 ** 645) and math.isinf(float(rs.scores[0]) * 3.0 ** 645)
    assert 3.0 ** -678 > 0.0 and float(rs.scores[1]) * 3.0 ** -678 == 0.0
    config = RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=k, missing_policy=policy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning on the way
        if k in (-640.0, 670.0):
            ranked = rerank(rs, config, index)
            tfidf = dict((d, s) for d, s, _ in rs.entries)
            expected = [tfidf["d1"] * (1 / 3) ** k, tfidf["d2"] * (1 / 3) ** k]
            if policy is MissingPolicy.PASSTHROUGH:
                expected.append(tfidf["d3"])
            assert ranked.scores.tolist() == sorted(expected, reverse=True)
            assert math.isfinite(ranked.scores[0]) and ranked.scores[-1] > 0.0
        else:
            what = "overflow" if k < 0 else "underflow to 0"
            with pytest.raises(ValueError, match=f"^k={k} makes a combined score {what}; "
                                                 "use a k of smaller magnitude$"):
                rerank(rs, config, index)


@pytest.mark.parametrize("k", [-341.0, 358.0])
@pytest.mark.parametrize("policy", list(MissingPolicy))
def test_rerank_combined_out_of_range_only_in_a_later_pair_names_k(k, policy):
    # of N 8 retrieved docs, four share author A (ef 4) and come first in ef order; three
    # with one author each (ef 1) and equal tf-idf form the second pair, the one out of
    # range: at k -341 their factor 8 ** 341 is finite but their score overflows, at k 358
    # their factor 8 ** -358 is above 0 but their score underflows; one doc has no author
    extra_tf = 20 if k < 0 else 0
    spec = [(f"a{i}", 0, ["A"], None) for i in range(4)]
    spec += [(f"b{i}", extra_tf, [f"B{i}"], None) for i in range(3)] + [("c0", 0, [], None)]
    index, rs = _indexed(spec)
    tfidf = dict((d, s) for d, s, _ in rs.entries)
    assert rs.set_size == 8 and len({tfidf[f"b{i}"] for i in range(3)}) == 1
    first, later = tfidf["a0"] * (4 / 8) ** k, tfidf["b0"] * (1 / 8) ** k
    assert math.isfinite(first) and first > 0.0 and (1 / 8) ** k > 0.0
    assert math.isinf(later) if k < 0 else later == 0.0
    config = RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=k, missing_policy=policy)
    what = "overflow" if k < 0 else "underflow to 0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning on the way
        with pytest.raises(ValueError, match=f"^k={k} makes a combined score {what}; "
                                             "use a k of smaller magnitude$"):
            rerank(rs, config, index)


_ORDER_DEPENDENT = [
    RankingConfig(mode=Mode.BRADFORD),
    RankingConfig(mode=Mode.LOTKA),
    RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=1.0),
    RankingConfig(mode=Mode.COMBINED, field=EntityField.JOURNAL, k=-0.5,
                  missing_policy=MissingPolicy.PASSTHROUGH),
]


def _reordered(rs, order):
    return dataclasses.replace(rs, positions=rs.positions[order], scores=rs.scores[order])


@pytest.mark.parametrize("config", _ORDER_DEPENDENT, ids=lambda config: config.run_tag)
def test_rerank_rejects_a_result_set_out_of_search_order(config):
    # d3 has the top tf-idf; d1 and d2 tie below it
    index, rs = _indexed([("d1", 0, ["A"], "1111-1111"), ("d2", 0, ["B"], "1111-1111"),
                          ("d3", 2, ["A"], "2222-2222")])
    assert rs.doc_ids() == ["d3", "d1", "d2"] and rs.scores[1] == rs.scores[2]
    for order in ([1, 0, 2], [2, 1, 0], [0, 2, 1]):  # shuffled, ascending, a tie in descending doc_id
        with pytest.raises(ValueError, match=r"^rerank needs a result set in search order "):
            rerank(_reordered(rs, order), config, index)
    # what search returns, and the tf-idf pass-through of it, are in search order
    passed = rerank(rs, RankingConfig(mode=Mode.TFIDF), index)
    assert same_ranking(rerank(passed, config, index), rerank(rs, config, index))
    # the pass-through itself takes any order
    backwards = rerank(_reordered(rs, [2, 1, 0]), RankingConfig(mode=Mode.TFIDF), index)
    assert backwards.doc_ids() == ["d2", "d1", "d3"]


def test_combined_ties_from_different_tfidf_scores_go_by_doc_id():
    # 8 result docs; with k=1 the factors ef/8 are powers of two, so tf 4 at ef 1,
    # tf 2 at ef 2 and tf 1 at ef 4 give the same combined score exactly
    spec = [("d1", 0, ["A"], None), ("d2", 0, ["A"], None), ("d3", 0, ["A"], None),
            ("d4", 0, ["D"], None), ("d5", 1, ["B"], None), ("d6", 1, ["B"], None),
            ("d7", 3, ["C"], None), ("d8", 0, ["A"], None)]
    index, rs = _indexed(spec)
    # search order: positions fall from tf 4 to tf 2 to tf 1
    assert rs.doc_ids() == ["d7", "d5", "d6", "d1", "d2", "d3", "d4", "d8"]
    config = RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=1.0)
    ranked = rerank(rs, config, index)
    assert ranked.doc_ids() == ["d1", "d2", "d3", "d5", "d6", "d7", "d8", "d4"]
    assert len(set(ranked.scores[:7].tolist())) == 1 and ranked.scores[7] < ranked.scores[0]
    scores = rs.scores * (np.array([1, 2, 2, 4, 4, 4, 1, 4]) / 8)
    assert np.array_equal(ranked.positions, rs.positions[np.lexsort((rs.positions, -scores))])
    assert np.array_equal(ranked.scores, np.sort(scores)[::-1])


def test_rerank_ordering_invariant_under_tfidf_scaling():
    rng = random.Random(77)
    for _ in range(10):
        records, query = random_small_corpus(rng)
        index = build_index(records)
        rs = search(query, index)
        if rs.set_size == 0:
            continue
        m = rng.choice([0.001, 0.5, 3.0, 1e6])
        scaled = dataclasses.replace(rs, scores=rs.scores * m)
        for config in (
            RankingConfig(mode=Mode.TFIDF),
            RankingConfig(mode=Mode.BRADFORD),
            RankingConfig(mode=Mode.LOTKA),
            RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=1.0),
            RankingConfig(mode=Mode.COMBINED, field=EntityField.JOURNAL, k=-0.5),
        ):
            assert rerank(rs, config, index).doc_ids() == rerank(scaled, config, index).doc_ids()


def test_combined_breaks_equal_ef_ties_by_tfidf():
    # same journal (equal ef) but different tfidf: scores must differ
    index, rs = _indexed([("d1", 4, [], "1111-1111"), ("d2", 1, [], "1111-1111")])
    ranked = rerank(rs, RankingConfig(mode=Mode.COMBINED, field=EntityField.JOURNAL, k=2.0), index)
    scores = [score for _, score, _ in ranked.entries]
    assert scores[0] != scores[1]
    assert ranked.doc_ids() == ["d1", "d2"]


def test_rerank_matches_brute_force_oracle():
    rng = random.Random(2024)
    for _ in range(10):
        records, query = random_small_corpus(rng)
        index = build_index(records)
        rs = search(query, index)
        k = rng.choice([-1.5, -1.0, 0.0, 0.5, 1.0, 2.0])
        cases = [
            (RankingConfig(mode=Mode.TFIDF), "tfidf", None),
            (RankingConfig(mode=Mode.BRADFORD), "brad", None),
            (RankingConfig(mode=Mode.LOTKA), "lotka", None),
            (RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=k), "combined", "author"),
            (RankingConfig(mode=Mode.COMBINED, field=EntityField.JOURNAL, k=k), "combined", "journal"),
        ]
        naive_entries = naive_search(records, query)
        for config, mode_name, field_name in cases:
            ranked = rerank(rs, config, index)
            expected, expected_dropped = naive_rerank(records, naive_entries, mode_name, field_name, k)
            assert ranked.doc_ids() == [doc_id for doc_id, _, _ in expected]
            assert ranked.dropped == expected_dropped
            for (_, got, _), (_, want, _) in zip(ranked.entries, expected):
                assert abs(got - want) <= 1e-9


def test_rerank_of_an_empty_result_set(tmp_path):
    # every mode, field and missing policy: nothing to rank, nothing dropped, typed arrays
    index, rs = _indexed([("d1", 0, ["Ada"], "1111-1111"), ("d2", 1, [], None)], query="absent")
    assert rs.set_size == 0
    for mode, field, policy in itertools.product(Mode, EntityField, MissingPolicy):
        if (mode, field) in ((Mode.BRADFORD, EntityField.AUTHOR), (Mode.LOTKA, EntityField.JOURNAL)):
            continue
        ranked = rerank(rs, RankingConfig(mode=mode, field=field, k=2.0, missing_policy=policy), index)
        assert ranked.set_size == 0 and ranked.dropped == 0
        assert ranked.positions.dtype == np.intp and ranked.scores.dtype == np.float64
        path = tmp_path / f"{mode.value}-{field.value}-{policy.value}.run"
        write_run_file([ranked], path)
        assert path.read_bytes() == b""


def test_run_lines_format(tmp_path):
    ranked = ranked_list("126", ["doc9", "doc2"], scores=[2.5, 0.125], tag="brad", dropped=3)
    path = tmp_path / "brad.run"
    write_run_file([ranked], path)
    assert path.read_text(encoding="utf-8").splitlines() == [
        "126 Q0 doc9 1 2.500000 brad",
        "126 Q0 doc2 2 0.125000 brad",
    ]


def test_write_run_file_concatenates_topics(tmp_path):
    lists = [
        ranked_list("t1", ["a"], scores=[1.0], tag="lotka"),
        ranked_list("t2", ["b", "c"], scores=[2.0, 1.0], tag="lotka"),
    ]
    path = tmp_path / "lotka.run"
    write_run_file(lists, path)
    assert path.read_text(encoding="utf-8") == (
        "t1 Q0 a 1 1.000000 lotka\nt2 Q0 b 1 2.000000 lotka\nt2 Q0 c 2 1.000000 lotka\n"
    )


_RUN_LISTS = {
    "empty": [[]],
    "one-entry": [[0.5]],
    "search-order": [[3.25, 3.25, 2.0, 1.5, 1.5, 1.5]],
    "any-order": [[1.0, 2.0, 1.0, 2.0, 2.0, 0.1, 1.0]],  # equal scores apart: one tail each time
    "signed-zeros": [[0.0, -0.0, -0.0, 0.0, 1e-9, -1e-9]],  # equal, but printed apart
    "several-lists": [[2.0, 2.0, 1.0], [], [1.0], [5.0, 1.0, 1.0, 1.0]],
}


@pytest.mark.parametrize("score_lists", _RUN_LISTS.values(), ids=_RUN_LISTS)
def test_write_run_file_matches_naive_lines(tmp_path, score_lists):
    lists, expected = [], []
    for i, scores in enumerate(score_lists):
        doc_ids = [f"doc{i}.{j}" for j in range(len(scores))]
        lists.append(ranked_list(f"t{i}", doc_ids, scores=scores, tag=f"tag{i}"))
        expected.append(naive_run_lines(f"t{i}", doc_ids, scores, f"tag{i}"))
    path = tmp_path / "x.run"
    write_run_file(lists, path)
    assert path.read_bytes() == "".join(expected).encode("utf-8")


@pytest.mark.parametrize("query_id, tag, named", [
    ("", "lotka", "''"),
    ("a b", "lotka", "'a b'"),
    ("t\n1", "lotka", r"'t\n1'"),
    ("t1", "combined k1", "'combined k1'"),
], ids=["empty-id", "id-with-space", "id-with-newline", "tag-with-space"])
def test_write_run_file_rejects_a_column_that_is_not_one_word(tmp_path, query_id, tag, named):
    # a split id or tag would give lines of other than 6 columns; nothing is written
    lists = [ranked_list("t0", ["a"], scores=[1.0], tag="lotka"), ranked_list(query_id, ["b"], scores=[1.0], tag=tag)]
    with pytest.raises(ValueError, match=f"must be one word without whitespace, got {re.escape(named)}$"):
        write_run_file(lists, tmp_path / "x.run")
    assert list(tmp_path.iterdir()) == []
