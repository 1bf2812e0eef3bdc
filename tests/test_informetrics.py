import csv
import math
import random

import numpy as np
import pytest

from helpers import random_small_corpus, ranked_list
from oracle import naive_doc_ef, naive_entity_counts
from lotkarank.corpus import DocumentRecord
from lotkarank.index import build_index, search
from lotkarank.informetrics import (
    EntityField,
    EntityFrequencyTable,
    entity_frequencies,
    export_series_csv,
    fit_power_law,
    rank_frequency_series,
)


def _corpus_with(docs_spec):
    """docs_spec: list of (doc_id, authors, issn); every doc matches query 'shared'."""
    records = [
        DocumentRecord(doc_id=doc_id, title="shared", authors=authors, journal_issn=issn)
        for doc_id, authors, issn in docs_spec
    ]
    # one extra doc without the term keeps idf positive
    records.append(DocumentRecord(doc_id="zfill", title="padding"))
    index = build_index(records)
    return index, search("shared", index)


def test_empty_result_set_gives_empty_table():
    index, _ = _corpus_with([("d1", ["A"], None)])
    table = entity_frequencies(ranked_list("q", []), EntityField.AUTHOR, index)
    assert table.counts == {}
    assert table.covered_docs == 0


def test_single_journal_counted_once_per_doc():
    index, rs = _corpus_with([(f"d{i}", [], "1234-5678") for i in range(4)])
    table = entity_frequencies(rs, EntityField.JOURNAL, index)
    assert table.counts == {"1234-5678": 4}
    assert table.covered_docs == 4
    assert sum(table.counts.values()) == table.covered_docs


def test_author_counts_enumerated_by_hand():
    index, rs = _corpus_with([("d1", ["A"], None), ("d2", ["A", "B"], None), ("d3", ["C"], None)])
    table = entity_frequencies(rs, EntityField.AUTHOR, index)
    assert table.counts == {"A": 2, "B": 1, "C": 1}
    assert table.covered_docs == 3
    assert sum(table.counts.values()) == 4


def test_docs_without_field_contribute_nothing():
    index, rs = _corpus_with([("d1", [], None), ("d2", ["A"], None)])
    table = entity_frequencies(rs, EntityField.AUTHOR, index)
    assert table.counts == {"A": 1}
    assert table.covered_docs == 1


def test_entity_frequencies_match_brute_force_recount(tmp_path):
    rng = random.Random(31)
    for _ in range(15):
        records, query = random_small_corpus(rng)
        index = build_index(records)
        rs = search(query, index)
        for field, name in ((EntityField.JOURNAL, "journal"), (EntityField.AUTHOR, "author")):
            table = entity_frequencies(rs, field, index)
            counts = naive_entity_counts(records, rs.doc_ids(), name)
            assert table.counts == counts
            assert table.covered_docs <= rs.set_size
            # ranked by count desc, then by name
            ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
            assert rank_frequency_series(table) == [(rank, count) for rank, (_, count) in enumerate(ranked, 1)]
            linear = tmp_path / f"{name}.csv"
            export_series_csv(table, linear, tmp_path / f"{name}.loglog.csv")
            with open(linear, encoding="utf-8", newline="") as fin:
                assert list(csv.reader(fin))[1:] == [[str(rank), str(count), entity]
                                                      for rank, (entity, count) in enumerate(ranked, 1)]


def _doc_ef(doc_id, table, rs):
    """The document's entity frequency, read from table.doc_ef at its rank in rs."""
    return table.doc_ef[rs.doc_ids().index(doc_id)]


def test_doc_entity_frequency_missing_field_is_none():
    index, rs = _corpus_with([("d1", [], None), ("d2", ["A"], "1111-1111")])
    journal_table = entity_frequencies(rs, EntityField.JOURNAL, index)
    author_table = entity_frequencies(rs, EntityField.AUTHOR, index)
    assert _doc_ef("d1", journal_table, rs) == 0
    assert _doc_ef("d1", author_table, rs) == 0
    assert _doc_ef("d2", journal_table, rs) == _doc_ef("d2", author_table, rs) == 1


def test_doc_entity_frequency_single_journal_lookup():
    index, rs = _corpus_with([(f"d{i}", [], "0000-111X") for i in range(7)])
    table = entity_frequencies(rs, EntityField.JOURNAL, index)
    assert _doc_ef("d3", table, rs) == 7


def test_doc_entity_frequency_takes_max_over_authors():
    # A appears in 5 result docs, B in 2 -> doc with both gets 5
    spec = [(f"a{i}", ["A"], None) for i in range(4)]
    spec += [("both", ["A", "B"], None), ("b1", ["B"], None)]
    index, rs = _corpus_with(spec)
    table = entity_frequencies(rs, EntityField.AUTHOR, index)
    assert table.counts["A"] == 5
    assert table.counts["B"] == 2
    assert _doc_ef("both", table, rs) == 5
    assert _doc_ef("b1", table, rs) == 2


def test_author_doc_ef_matches_oracle_for_0_1_and_many_authors():
    # "Top" is the most frequent author: first, in the middle and last of a
    # document's authors; documents with 0, 1, 3 and 4 authors interleave
    spec = [("d01", []), ("d02", ["Top", "x1", "x2"]), ("d03", ["y1"]), ("d04", ["x1", "Top", "x3"]),
            ("d05", []), ("d06", ["x2", "x3", "x4", "Top"]), ("d07", ["Top"]), ("d08", ["x1", "x4", "y2"]),
            ("d09", ["y2"]), ("d10", [])]
    records = [DocumentRecord(doc_id=doc_id, title=" ".join(["shared"] * (1 + i % 3)), authors=authors)
               for i, (doc_id, authors) in enumerate(spec)]
    records.append(DocumentRecord(doc_id="zfill", title="padding"))
    index = build_index(records)
    rs = search("shared", index)
    assert rs.doc_ids()[:3] == ["d03", "d06", "d09"]  # rank order is not doc order
    table = entity_frequencies(rs, EntityField.AUTHOR, index)
    counts = naive_entity_counts(records, rs.doc_ids(), "author")
    by_id = {rec.doc_id: rec for rec in records}
    expected = [naive_doc_ef(by_id[doc_id], counts, "author") or 0 for doc_id in rs.doc_ids()]
    assert table.doc_ef.tolist() == expected
    assert table.covered_docs == 7
    # the counts dict, read after doc_ef, is the same count
    assert table.counts == counts and table.counts["Top"] == 4


def _ranked_corpus(spec, seed):
    """An index over spec, (authors, issn) per document in rank order, and its 'shared' result set.

    Each document holds 'shared' once more than the next, so the result set keeps spec's
    order; the doc ids are shuffled, so rank order is not position order.
    """
    labels = [f"d{i:03d}" for i in range(len(spec))]
    random.Random(seed).shuffle(labels)
    records = [DocumentRecord(doc_id=label, title="shared", body=" ".join(["shared"] * (len(spec) - rank)),
                              authors=authors, journal_issn=issn)
               for rank, (label, (authors, issn)) in enumerate(zip(labels, spec))]
    records.append(DocumentRecord(doc_id="zfill", title="padding"))
    index = build_index(records)
    rs = search("shared", index)
    assert rs.doc_ids() == labels
    return records, index, rs


def _assert_matches_oracle(records, index, rs, field):
    table = entity_frequencies(rs, field, index)
    counts = naive_entity_counts(records, rs.doc_ids(), field.value)
    by_id = {rec.doc_id: rec for rec in records}
    expected = [naive_doc_ef(by_id[doc_id], counts, field.value) or 0 for doc_id in rs.doc_ids()]
    assert table.counts == counts
    assert table.doc_ef.tolist() == expected and table.doc_ef.dtype == np.int64
    assert table.covered_docs == sum(ef > 0 for ef in expected)
    return table


@pytest.mark.parametrize("journals, dtype", [(127, np.int8), (128, np.int8), (129, np.int16)])
def test_journal_doc_ef_matches_oracle_where_the_code_type_widens(journals, dtype):
    # every journal once, the last three journals more often, and no journal at the first,
    # a middle and the last rank: the code -1 must read a count of 0 in every code type
    issns = [f"{i:04d}-0000" for i in range(journals)]
    issns += issns[-3:] * 2 + issns[-1:]
    half, none = len(issns) // 2, ([], None)
    spec = [none, *[([], issn) for issn in issns[:half]], none, *[([], issn) for issn in issns[half:]], none]
    records, index, rs = _ranked_corpus(spec, journals)
    assert index._journal_codes.dtype == dtype and len(index._journal_names) == journals
    table = _assert_matches_oracle(records, index, rs, EntityField.JOURNAL)
    assert [i for i, ef in enumerate(table.doc_ef.tolist()) if ef == 0] == [0, half + 1, len(spec) - 1]
    assert max(table.doc_ef.tolist()) == 4


@pytest.mark.parametrize("spec", [
    # two author-less documents in a row, and two at the end of the set
    [["A"], [], [], ["B", "A"], ["C"], [], []],
    # three in a row at the start, in the middle and at the end
    [[], [], [], ["A", "B"], [], [], [], ["B"], ["A"], [], [], []],
    # one document with 300 authors (more than a uint8 count), two of them shared
    [["A"], [], [f"p{i:03d}" for i in range(298)] + ["A", "B"], [], [], ["B"], [], [], []],
], ids=["two", "three", "300-authors"])
def test_author_doc_ef_matches_oracle_around_author_less_runs(spec):
    records, index, rs = _ranked_corpus([(authors, None) for authors in spec], len(spec))
    table = _assert_matches_oracle(records, index, rs, EntityField.AUTHOR)
    assert [ef == 0 for ef in table.doc_ef.tolist()] == [not authors for authors in spec]


def test_table_built_from_a_dict_equals_the_counted_table():
    index, rs = _corpus_with([("d1", ["A"], None), ("d2", ["A", "B"], None), ("d3", [], None)])
    counted = entity_frequencies(rs, EntityField.AUTHOR, index)
    given = _table({"A": 2, "B": 1})
    assert given.counts == counted.counts == {"A": 2, "B": 1}
    assert rank_frequency_series(given) == rank_frequency_series(counted) == [(1, 2), (2, 1)]


def test_doc_entity_frequency_unknown_doc_raises():
    index, rs = _corpus_with([("d1", ["A"], None)])
    table = entity_frequencies(rs, EntityField.AUTHOR, index)
    assert len(table.doc_ef) == rs.set_size
    assert "ghost" not in rs.doc_ids()
    with pytest.raises(KeyError):
        index.position("ghost")


def _table(counts):
    """A table holding the given counts, its codes numbered in name order."""
    names = sorted(counts)
    tally = np.array([counts[name] for name in names], dtype=np.int64)
    return EntityFrequencyTable(EntityField.AUTHOR, names, tally, 0, np.zeros(0, dtype=np.int64))


def test_series_empty_table():
    assert rank_frequency_series(_table({})) == []


def test_series_sorts_by_frequency_then_entity():
    assert rank_frequency_series(_table({"B": 1, "A": 2, "C": 1})) == [(1, 2), (2, 1), (3, 1)]


def test_series_monotone_on_rounded_power_law():
    counts = {f"e{x:02d}": round(10 * x**-1.0) for x in range(1, 11)}
    counts = {k: v for k, v in counts.items() if v >= 1}
    series = rank_frequency_series(_table(counts))
    freqs = [freq for _, freq in series]
    assert freqs == sorted(freqs, reverse=True)
    assert sorted(freqs) == sorted(counts.values())


def test_fit_exact_power_law():
    series = [(x, 100.0 * x**-2.0) for x in range(1, 21)]
    fit = fit_power_law(series)
    assert fit.alpha == pytest.approx(2.0, abs=1e-9)
    assert fit.c == pytest.approx(100.0, rel=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_fit_constant_series_has_zero_slope():
    fit = fit_power_law([(x, 5.0) for x in range(1, 11)])
    assert fit.alpha == pytest.approx(0.0, abs=1e-9)
    assert fit.c == pytest.approx(5.0, rel=1e-9)
    assert 0.0 <= fit.r_squared <= 1.0


def test_fit_constant_series_is_flat_and_exact():
    # every frequency equal: alpha = 0, c = the frequency, r_squared = 1 exactly,
    # at every length (the mean of ln f rounds differently from length to length)
    for n in range(2, 300):
        for value in (1, 2, 3, 5.0, 7, 0.1, 2.5, 13, 1e6):
            fit = fit_power_law([(x, value) for x in range(1, n + 1)])
            assert fit.alpha == 0.0
            assert math.copysign(1.0, fit.alpha) == 1.0
            assert fit.c == value
            assert fit.r_squared == 1.0


def test_fit_two_points_solved_by_hand():
    # slope through (ln1, ln8), (ln2, ln2) is -2, intercept ln8
    fit = fit_power_law([(1, 8), (2, 2)])
    assert fit.alpha == pytest.approx(2.0, abs=1e-12)
    assert fit.c == pytest.approx(8.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_needs_two_points():
    with pytest.raises(ValueError):
        fit_power_law([(1, 10)])


def test_fit_needs_two_distinct_ranks():
    with pytest.raises(ValueError):
        fit_power_law([(3, 10), (3, 4)])


def test_fit_rejects_nonpositive_frequencies():
    with pytest.raises(ValueError):
        fit_power_law([(1, 4), (2, 0)])
    with pytest.raises(ValueError):
        fit_power_law([(1, 4), (2, -1)])


def test_fit_recovers_noiseless_parameters():
    rng = np.random.default_rng(12)
    for _ in range(20):
        alpha = float(rng.uniform(0.5, 3.0))
        c = float(rng.uniform(1.0, 1e4))
        series = [(x, c * x**-alpha) for x in range(1, 51)]
        fit = fit_power_law(series)
        assert abs(fit.alpha - alpha) <= 1e-6 * alpha
        assert abs(fit.c - c) <= 1e-6 * c
        assert fit.r_squared >= 1.0 - 1e-9


def test_fit_scaling_moves_c_not_alpha():
    rng = np.random.default_rng(4)
    base = [(x, 50.0 * x**-1.3) for x in range(1, 31)]
    fit_base = fit_power_law(base)
    for _ in range(10):
        m = float(rng.uniform(0.1, 100.0))
        fit_scaled = fit_power_law([(x, m * f) for x, f in base])
        assert fit_scaled.alpha == pytest.approx(fit_base.alpha, abs=1e-9)
        assert fit_scaled.c == pytest.approx(m * fit_base.c, rel=1e-9)


def test_export_series_csv(tmp_path):
    table = _table({"Smith, J.": 3, "Lee": 1})
    linear, loglog = tmp_path / "series.csv", tmp_path / "series.loglog.csv"
    export_series_csv(table, linear, loglog)
    assert sorted(tmp_path.iterdir()) == [linear, loglog]
    with open(linear, encoding="utf-8") as fin:
        lines = fin.read().splitlines()
    assert lines[0] == "rank,frequency,entity"
    assert lines[1] == '1,3,"Smith, J."'
    assert lines[2] == "2,1,Lee"
    with open(loglog, encoding="utf-8") as fin:
        log_lines = fin.read().splitlines()
    assert log_lines[0] == "log_rank,log_frequency"
    assert log_lines[1] == f"0.0,{math.log(3)}"
    assert log_lines[2] == f"{math.log(2)},0.0"
