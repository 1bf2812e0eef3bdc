"""Acceptance suite: one test per release criterion.

Each test prints a `[acceptance] <name>: PASS|FAIL` line (visible with
pytest -s or -rA) in addition to the usual pytest outcome.
"""
import functools
import random
import time

from helpers import make_power_law_corpus, make_topic_suite, random_small_corpus, ranked_list
from oracle import naive_rerank, naive_search, overlap_at_k, precision_at_k
from lotkarank.corpus import DocumentRecord
from lotkarank.evaluation import (
    report_csv,
    run_evaluation,
)
from lotkarank.index import build_index, search
from lotkarank.informetrics import EntityField, fit_power_law
from lotkarank.rerank import (
    MissingPolicy,
    Mode,
    RankingConfig,
    rerank,
)


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {name}: FAIL")
                raise
            print(f"[acceptance] {name}: PASS")
            return result

        return run

    return decorate


def _has_field(record, field):
    return bool(record.journal_issn if field is EntityField.JOURNAL else record.authors)


@criterion("k0-identity on 1000-doc power-law corpus")
def test_k0_identity_on_generated_corpus():
    started = time.perf_counter()
    records, queries = make_power_law_corpus(n_docs=1000, seed=7, alpha=2.0)
    index = build_index(records)
    by_id = {rec.doc_id: rec for rec in records}
    checked = 0
    for query in queries:
        rs = search(query, index)
        assert rs.set_size > 0
        tfidf_ids = rerank(rs, RankingConfig(mode=Mode.TFIDF), index).doc_ids()
        for field in (EntityField.AUTHOR, EntityField.JOURNAL):
            config = RankingConfig(
                mode=Mode.COMBINED, field=field, k=0.0, missing_policy=MissingPolicy.DROP
            )
            combined_ids = rerank(rs, config, index).doc_ids()
            restricted = [doc_id for doc_id in tfidf_ids if _has_field(by_id[doc_id], field)]
            assert combined_ids == restricted
            checked += 1
    assert checked == 20  # 10 queries x 2 fields
    assert time.perf_counter() - started < 10.0


@criterion("brute-force oracle equivalence, 50 random corpora")
def test_all_modes_match_naive_oracle():
    rng = random.Random(1234)
    k_values = [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    for trial in range(50):
        records, query = random_small_corpus(rng)
        index = build_index(records)
        rs = search(query, index)
        naive_entries = naive_search(records, query)
        assert rs.doc_ids() == [doc_id for doc_id, _, _ in naive_entries]
        k = k_values[trial % len(k_values)]
        cases = [
            (RankingConfig(mode=Mode.TFIDF), "tfidf", None),
            (RankingConfig(mode=Mode.BRADFORD), "brad", None),
            (RankingConfig(mode=Mode.LOTKA), "lotka", None),
            (RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=k), "combined", "author"),
            (RankingConfig(mode=Mode.COMBINED, field=EntityField.JOURNAL, k=k), "combined", "journal"),
        ]
        for config, mode_name, field_name in cases:
            ranked = rerank(rs, config, index)
            expected, expected_dropped = naive_rerank(records, naive_entries, mode_name, field_name, k)
            assert ranked.doc_ids() == [doc_id for doc_id, _, _ in expected]
            assert ranked.dropped == expected_dropped
            for (_, got, _), (_, want, _) in zip(ranked.entries, expected):
                assert abs(got - want) <= 1e-9


@criterion("power-law parameter recovery to 1e-6")
def test_power_law_recovery_grid():
    for alpha in (0.8, 1.5, 2.0, 3.0):
        for c in (10.0, 1000.0):
            series = [(x, c * x**-alpha) for x in range(1, 51)]
            fit = fit_power_law(series)
            assert abs(fit.alpha - alpha) <= 1e-6 * alpha
            assert abs(fit.c - c) <= 1e-6 * c
            assert fit.r_squared >= 1.0 - 1e-9


def _ranked(doc_ids, query_id="t"):
    return ranked_list(query_id, doc_ids, tag="fixture")


@criterion("metric fixtures exact + byte-identical report")
def test_metric_fixtures_and_report_determinism():
    precision_cases = [
        ([], {"x"}, 5, 0.0),
        (["a", "b", "c", "d", "e"], {"a", "b", "c", "d", "e"}, 5, 1.0),
        (["a", "b", "c"], {"a", "c"}, 5, 0.4),
        (["a", "b", "c"], {"a", "c"}, 3, 2 / 3),
        (list("abcdefghij"), {"a", "d", "j"}, 10, 0.3),
        (list("abcdefghij"), {"a", "d", "j"}, 5, 0.4),
        (["a", "b"], {"a"}, 1, 1.0),
        (["b", "a"], {"a"}, 1, 0.0),
        (["a", "b", "c", "d"], {"a", "b", "c", "d"}, 3, 1.0),
        (["a", "b", "c", "d", "e", "f"], {"f"}, 5, 0.0),
        (list("abcdefg"), {"a", "c", "f"}, 100, 0.03),
        (["a", "b"], set(), 2, 0.0),
    ]
    for doc_ids, relevant, k, expected in precision_cases:
        qrels = {("t", doc_id): 1 for doc_id in relevant}
        assert precision_at_k(_ranked(doc_ids), qrels, k) == expected

    overlap_cases = [
        (list("abc"), list("abc"), 10, 3),
        ([f"d{i}" for i in range(12)], [f"d{i}" for i in range(12)], 10, 10),
        (["a", "b"], ["c", "d"], 10, 0),
        (["d1", "d2", "d3"], ["d3", "d4", "d5"], 3, 1),
        (["d1", "d2", "d3"], ["d3", "d4", "d5"], 2, 0),
        ([], ["a"], 5, 0),
        ([], [], 5, 0),
        (["a", "b"], ["a", "c"], 1, 1),
        (["a", "b"], ["b", "a"], 1, 0),
        (list("abc"), list("cba"), 10, 3),
        (list("abc"), ["z", "a", "b", "c", "y"], 5, 3),
        (list("abcd"), list("cdef"), 4, 2),
    ]
    for ids_a, ids_b, k, expected in overlap_cases:
        assert overlap_at_k(_ranked(ids_a), _ranked(ids_b), k) == expected

    suite = make_topic_suite(n_topics=5, docs_per_topic=20, star_docs=8, seed=61)
    index = build_index(suite.records)
    configs = [RankingConfig(mode=Mode.TFIDF), RankingConfig(mode=Mode.BRADFORD),
               RankingConfig(mode=Mode.LOTKA)]
    first = report_csv(run_evaluation(index, suite.topics, suite.judgments, configs))
    second = report_csv(run_evaluation(index, suite.topics, suite.judgments, configs))
    assert first.encode("utf-8") == second.encode("utf-8")


def _directional_suite():
    return make_topic_suite(n_topics=25, docs_per_topic=40, star_docs=15, seed=20)


@criterion("author re-rank beats tf-idf at p@5..p@30 on planted corpus")
def test_directional_author_rerank_improvement():
    suite = _directional_suite()
    index = build_index(suite.records)
    report = run_evaluation(
        index,
        suite.topics,
        suite.judgments,
        [RankingConfig(mode=Mode.TFIDF), RankingConfig(mode=Mode.LOTKA)],
    )
    tfidf_run, lotka_run = report.runs
    assert len(report.topic_ids) == 25
    assert lotka_run.total.precision[5] > tfidf_run.total.precision[5]
    assert lotka_run.total.precision[10] > tfidf_run.total.precision[10]
    assert lotka_run.total.precision[20] >= tfidf_run.total.precision[20]
    assert lotka_run.total.precision[30] >= tfidf_run.total.precision[30]


@criterion("tf-idf and author-rerank top-10 sets are not identical")
def test_top10_disjointness():
    suite = _directional_suite()
    index = build_index(suite.records)
    report = run_evaluation(
        index,
        suite.topics,
        suite.judgments,
        [RankingConfig(mode=Mode.TFIDF), RankingConfig(mode=Mode.LOTKA)],
    )
    (tag_a, tag_b, mean), = report.mean_overlap
    assert (tag_a, tag_b) == ("tfidf", "lotka")
    assert mean < 10.0


@criterion("dropped counts equal planted field-missing totals")
def test_drop_accounting():
    suite = make_topic_suite(
        n_topics=25, docs_per_topic=40, star_docs=15,
        missing_authors_per_topic=3, missing_issn_per_topic=5, seed=21,
    )
    index = build_index(suite.records)
    for config, planted in (
        (RankingConfig(mode=Mode.LOTKA), suite.missing_authors),
        (RankingConfig(mode=Mode.BRADFORD), suite.missing_issn),
        (RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=1.0), suite.missing_authors),
        (RankingConfig(mode=Mode.COMBINED, field=EntityField.JOURNAL, k=1.0), suite.missing_issn),
    ):
        total_dropped = 0
        for topic_id, query_text in suite.topics.items():
            rs = search(query_text, index, query_id=topic_id)
            assert rs.set_size == 40  # every planted doc is retrieved
            total_dropped += rerank(rs, config, index).dropped
        assert total_dropped == planted


@criterion("combined score strictly monotone in entity frequency")
def test_monotonicity_sweep():
    # author a<e> writes e docs, each holding the query term once: every retrieved doc
    # has the same tf-idf score, and its author's frequency is e
    records = [DocumentRecord(doc_id="zfill", title="padding")]
    ef = {}
    for e in range(1, 13):
        for i in range(e):
            records.append(DocumentRecord(doc_id=f"a{e}-{i}", title="term", authors=[f"a{e}"]))
            ef[f"a{e}-{i}"] = e
    index = build_index(records)
    rs = search("term", index)
    assert rs.set_size == len(ef) and len(set(rs.scores.tolist())) == 1
    for k in (0.5, 1.0, 2.0, -0.5, -1.0):
        ranked = rerank(rs, RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=k), index)
        score_of_ef = {}
        for doc_id, score, _ in ranked.entries:
            assert score_of_ef.setdefault(ef[doc_id], score) == score
        scores = [score_of_ef[e] for e in range(1, 13)]
        if k > 0:
            assert all(a < b for a, b in zip(scores, scores[1:]))
        else:
            assert all(a > b for a, b in zip(scores, scores[1:]))
