import random

import pytest

from helpers import make_topic_suite, qrels_lines, random_small_corpus, ranked_list, topics_lines
from oracle import is_relevant, naive_rerank, naive_search, overlap_at_k, precision_at_k
from lotkarank import evaluation
from lotkarank.evaluation import (
    PRECISION_CUTOFFS,
    EvalReport,
    TopicMetrics,
    parse_qrels,
    parse_topics,
    report_csv,
    report_table,
    run_evaluation,
)
from lotkarank.index import build_index, search
from lotkarank.informetrics import EntityField
from lotkarank.rerank import MissingPolicy, Mode, RankingConfig


def _qrels(topic_id, relevant, judged_irrelevant=()):
    judgments = {(topic_id, doc_id): 1 for doc_id in relevant}
    judgments.update({(topic_id, doc_id): 0 for doc_id in judged_irrelevant})
    return judgments


def test_parse_topics_basic():
    topics = parse_topics(["126\tviolence and family", "", "127\tyouth unemployment"])
    assert list(topics.items()) == [("126", "violence and family"), ("127", "youth unemployment")]


def test_parse_topics_requires_tab():
    with pytest.raises(ValueError, match="line 1"):
        parse_topics(["126 violence"])


def test_parse_topics_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        parse_topics(["126\ta", "126\tb"])


@pytest.mark.parametrize("topic_id", ["t 1", "t\u00a01", " a  b "])
def test_parse_topics_rejects_whitespace_in_id(topic_id):
    # qrels split on whitespace, so no judgment could ever name such a topic
    with pytest.raises(ValueError, match="line 2: topic_id .* contains whitespace"):
        parse_topics(["t0\tfine", f"{topic_id}\tquery"])


def test_parse_qrels_basic():
    qrels = parse_qrels(["126 0 doc1 1", "126 0 doc2 0", "127 0 doc1 2"])
    assert is_relevant(qrels, "126", "doc1")
    assert not is_relevant(qrels, "126", "doc2")  # grade 0 is not relevant
    assert is_relevant(qrels, "127", "doc1")  # graded relevance is binary at > 0
    assert not is_relevant(qrels, "128", "doc1")  # unjudged


def test_parse_qrels_rejects_bad_lines():
    with pytest.raises(ValueError, match="4 columns"):
        parse_qrels(["126 0 doc1"])
    with pytest.raises(ValueError, match="integer"):
        parse_qrels(["126 0 doc1 high"])
    with pytest.raises(ValueError, match="negative"):
        parse_qrels(["126 0 doc1 -1"])
    with pytest.raises(ValueError, match="duplicate"):
        parse_qrels(["126 0 doc1 1", "126 0 doc1 0"])


@pytest.mark.parametrize("grade", ["1_0", "٣", "+", "-", "1.0", "0x1", "１", "+-1"])
def test_parse_qrels_takes_only_ascii_digit_grades(grade):
    # int() reads "1_0" as 10 and the Arabic-Indic digit three as 3
    with pytest.raises(ValueError) as info:
        parse_qrels(["t1 0 d000000 0", f"t1 0 d000001 {grade}"])
    assert str(info.value) == f"qrels line 2: grade {grade!r} is not an integer"


def test_parse_qrels_takes_a_signed_grade():
    assert parse_qrels(["t1 0 d1 +2", "t1 0 d2 007", "t1 0 d3 -0"]) == {
        ("t1", "d1"): 2, ("t1", "d2"): 7, ("t1", "d3"): 0,
    }


# --- precision fixtures, hand-computed -----------------------------------

PRECISION_CASES = [
    # (doc_ids, relevant, k, expected)
    ([], {"x"}, 5, 0.0),  # empty list
    (["a", "b", "c", "d", "e"], {"a", "b", "c", "d", "e"}, 5, 1.0),  # all relevant
    (["a", "b", "c"], {"a", "c"}, 5, 0.4),  # fixed denominator: 2/5
    (["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"], {"a", "d", "j"}, 10, 0.3),
    (["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"], {"a", "d", "j"}, 5, 0.4),
    (["a", "b"], {"a"}, 1, 1.0),
    (["b", "a"], {"a"}, 1, 0.0),
    (["a", "b", "c", "d"], {"a", "b", "c", "d"}, 3, 1.0),
    (["a", "b", "c", "d", "e", "f"], {"f"}, 5, 0.0),  # relevant only below k
    (["a", "b", "c", "d", "e", "f", "g"], {"a", "c", "f"}, 100, 0.03),
    (["a", "b"], set(), 2, 0.0),  # nothing judged relevant
    (["a", "b", "c", "d"], {"b", "c"}, 4, 0.5),
]


@pytest.mark.parametrize("doc_ids,relevant,k,expected", PRECISION_CASES)
def test_precision_fixtures(doc_ids, relevant, k, expected):
    assert precision_at_k(ranked_list("t", doc_ids), _qrels("t", relevant), k) == expected


def test_precision_ignores_other_topics_judgments():
    qrels = {("other", "a"): 1}
    assert precision_at_k(ranked_list("t", ["a"]), qrels, 1) == 0.0


def test_precision_rejects_k_below_one():
    with pytest.raises(ValueError):
        precision_at_k(ranked_list("t", ["a"]), _qrels("t", {"a"}), 0)


def test_precision_invariant_under_permutation_below_k():
    rng = random.Random(41)
    doc_ids = [f"d{i}" for i in range(20)]
    relevant = set(rng.sample(doc_ids, 8))
    qrels = _qrels("t", relevant)
    k = 10
    base = precision_at_k(ranked_list("t", doc_ids), qrels, k)
    for _ in range(10):
        tail = doc_ids[k:]
        rng.shuffle(tail)
        assert precision_at_k(ranked_list("t", doc_ids[:k] + tail), qrels, k) == base


def test_precision_times_k_recovers_relevant_count():
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randint(0, 12)
        doc_ids = [f"d{i}" for i in range(n)]
        relevant = set(rng.sample(doc_ids, rng.randint(0, n))) if n else set()
        qrels = _qrels("t", relevant)
        ranked = ranked_list("t", doc_ids)
        for k in (n + 1, n + 5, 16, 32):  # k >= list length
            assert precision_at_k(ranked, qrels, k) == len(relevant) / k
        # exact integer identity at power-of-two cutoffs
        assert precision_at_k(ranked, qrels, 16) * 16 == len(relevant)
        assert precision_at_k(ranked, qrels, 32) * 32 == len(relevant)


# --- overlap fixtures ------------------------------------------------------

OVERLAP_CASES = [
    (["a", "b", "c"], ["a", "b", "c"], 10, 3),  # self overlap, short list
    ([f"d{i}" for i in range(12)], [f"d{i}" for i in range(12)], 10, 10),  # self overlap
    (["a", "b"], ["c", "d"], 10, 0),  # disjoint
    (["d1", "d2", "d3"], ["d3", "d4", "d5"], 3, 1),
    (["d1", "d2", "d3"], ["d3", "d4", "d5"], 2, 0),
    ([], ["a"], 5, 0),  # one empty
    ([], [], 5, 0),  # both empty
    (["a", "b"], ["a", "c"], 1, 1),
    (["a", "b"], ["b", "a"], 1, 0),  # different tops
    (["a", "b", "c"], ["c", "b", "a"], 10, 3),  # reversed membership
    (["a", "b", "c"], ["z", "a", "b", "c", "y"], 5, 3),
    (["a", "b", "c", "d"], ["c", "d", "e", "f"], 4, 2),
    (["d1", "d2", "d3"], ["d3", "d9", "d1", "d7", "d5"], 100, 2),  # k beyond both lists
]


@pytest.mark.parametrize("ids_a,ids_b,k,expected", OVERLAP_CASES)
def test_overlap_fixtures(ids_a, ids_b, k, expected):
    assert overlap_at_k(ranked_list("t", ids_a), ranked_list("t", ids_b), k) == expected


def test_overlap_symmetric_and_monotone_in_k():
    rng = random.Random(4)
    universe = [f"d{i}" for i in range(30)]
    for _ in range(20):
        a = ranked_list("t", rng.sample(universe, rng.randint(0, 20)))
        b = ranked_list("t", rng.sample(universe, rng.randint(0, 20)))
        previous = 0
        for k in (1, 2, 5, 10, 20):
            got = overlap_at_k(a, b, k)
            assert got == overlap_at_k(b, a, k)
            assert got >= previous
            previous = got


def test_overlap_rejects_k_below_one():
    with pytest.raises(ValueError):
        overlap_at_k(ranked_list("t", []), ranked_list("t", []), 0)


# --- run_evaluation --------------------------------------------------------


def test_run_evaluation_single_topic_single_mode():
    suite = make_topic_suite(n_topics=1, docs_per_topic=12, star_docs=5, seed=5)
    index = build_index(suite.records)
    report = run_evaluation(index, suite.topics, suite.judgments, [RankingConfig(mode=Mode.TFIDF)])
    assert type(report) is EvalReport
    assert [run.tag for run in report.runs] == ["tfidf"]
    assert report.topic_ids == ["t001"]
    metrics = report.runs[0].per_topic["t001"]
    assert metrics.retrieved == 12
    assert report.mean_overlap == []


def test_run_evaluation_requires_configs():
    suite = make_topic_suite(n_topics=1, docs_per_topic=5, star_docs=2, seed=5)
    index = build_index(suite.records)
    with pytest.raises(ValueError):
        run_evaluation(index, suite.topics, suite.judgments, [])


def test_run_evaluation_rejects_a_topic_named_all(monkeypatch):
    # its rows could not be told from the summary rows; refused before any search
    suite = make_topic_suite(n_topics=1, docs_per_topic=5, star_docs=2, seed=5)
    index = build_index(suite.records)
    monkeypatch.setattr(evaluation, "search", None)
    topics = {**suite.topics, "ALL": "topic01"}
    with pytest.raises(ValueError) as info:
        run_evaluation(index, topics, suite.judgments, [RankingConfig(mode=Mode.TFIDF)])
    assert str(info.value) == "topic_id 'ALL' names the report's summary rows"


def test_run_evaluation_identical_configs_have_full_overlap():
    suite = make_topic_suite(n_topics=3, docs_per_topic=15, star_docs=5, seed=6)
    index = build_index(suite.records)
    # combined with k = 0 keeping field-missing docs ranks exactly as tfidf
    identical = RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=0.0,
                              missing_policy=MissingPolicy.PASSTHROUGH)
    configs = [RankingConfig(mode=Mode.TFIDF), identical]
    report = run_evaluation(index, suite.topics, suite.judgments, configs)
    (tag_a, tag_b, mean), = report.mean_overlap
    assert (tag_a, tag_b) == ("tfidf", "combined_k0.0")
    assert mean == 10.0  # every list is 15 long, so min(10, length) per topic


def test_run_evaluation_rejects_duplicate_run_tags():
    suite = make_topic_suite(n_topics=1, docs_per_topic=5, star_docs=2, seed=5)
    index = build_index(suite.records)
    combined = [RankingConfig(mode=Mode.COMBINED, field=field, k=1.0)
                for field in (EntityField.AUTHOR, EntityField.JOURNAL)]
    for configs, tag in (([RankingConfig(mode=Mode.TFIDF)] * 2, "tfidf"), (combined, "combined_k1.0")):
        with pytest.raises(ValueError, match=f"duplicate run tag '{tag}'"):
            run_evaluation(index, suite.topics, suite.judgments, configs)


@pytest.mark.parametrize("topic_id,doc_id", [("t001", "d0101"), ("ghost-topic", "d0101"), ("t001", "nowhere")])
def test_run_evaluation_rejects_a_negative_grade(topic_id, doc_id):
    # on a topic that is evaluated or not, and on a document that is indexed or not
    suite = make_topic_suite(n_topics=2, docs_per_topic=8, star_docs=3, seed=9)
    judgments = {**suite.judgments, (topic_id, doc_id): -1}
    index = build_index(suite.records)
    with pytest.raises(ValueError) as info:
        run_evaluation(index, suite.topics, judgments, [RankingConfig(mode=Mode.TFIDF)])
    assert str(info.value) == f"negative grade for ({topic_id}, {doc_id})"


def test_run_evaluation_counts_unknown_qrel_topics():
    suite = make_topic_suite(n_topics=2, docs_per_topic=8, star_docs=3, seed=9)
    judgments = dict(suite.judgments)
    judgments[("ghost-topic", "d0101")] = 1
    index = build_index(suite.records)
    report = run_evaluation(index, suite.topics, judgments, [RankingConfig(mode=Mode.TFIDF)])
    assert report.unknown_qrel_topics == 1


def test_run_evaluation_empty_result_topic_contributes_zero():
    suite = make_topic_suite(n_topics=2, docs_per_topic=10, star_docs=4, seed=8)
    topics = {**suite.topics, "t999": "unmatchable-term"}
    index = build_index(suite.records)
    report = run_evaluation(index, topics, suite.judgments, [RankingConfig(mode=Mode.TFIDF)])
    run = report.runs[0]
    assert run.per_topic["t999"].retrieved == 0
    assert all(run.per_topic["t999"].precision[k] == 0.0 for k in PRECISION_CUTOFFS)
    # the ALL row's mean still divides by all three topics
    for k in PRECISION_CUTOFFS:
        assert run.total.precision[k] == sum(run.per_topic[t].precision[k] for t in report.topic_ids) / 3


def test_run_evaluation_without_topics_reports_zeros():
    suite = make_topic_suite(n_topics=2, docs_per_topic=5, star_docs=2, seed=5)
    index = build_index(suite.records)
    configs = [RankingConfig(mode=Mode.TFIDF), RankingConfig(mode=Mode.LOTKA), RankingConfig(mode=Mode.BRADFORD)]
    report = run_evaluation(index, {}, suite.judgments, configs)
    assert report.topic_ids == []
    assert report.unknown_qrel_topics == 2
    zero = TopicMetrics(retrieved=0, relevant_retrieved=0, dropped=0, precision=dict.fromkeys(PRECISION_CUTOFFS, 0.0))
    for run in report.runs:
        assert run.per_topic == {} and run.ranked == [] and run.total == zero
        assert all(type(p) is float for p in run.total.precision.values())
    assert report.mean_overlap == [("tfidf", "lotka", 0.0), ("tfidf", "brad", 0.0), ("lotka", "brad", 0.0)]
    assert all(type(mean) is float for _, _, mean in report.mean_overlap)
    assert report_csv(report).splitlines() == [
        "topic_id,run,retrieved,relevant_retrieved,dropped,p5,p10,p20,p30,p100",
        *(f"ALL,{tag},0,0,0" + ",0.000000" * len(PRECISION_CUTOFFS) for tag in ("tfidf", "lotka", "brad")),
    ]


def test_run_evaluation_matches_independent_metric_computation():
    suite = make_topic_suite(n_topics=4, docs_per_topic=20, star_docs=8, seed=33)
    index = build_index(suite.records)
    qrels = suite.judgments
    configs = [
        RankingConfig(mode=Mode.TFIDF),
        RankingConfig(mode=Mode.LOTKA),
        RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=1.0),
    ]
    report = run_evaluation(index, suite.topics, qrels, configs)

    mode_names = ["tfidf", "lotka", "combined"]
    naive_lists = {}
    for i, (topic_id, query_text) in enumerate(suite.topics.items()):
        base = naive_search(suite.records, query_text)
        for run, mode_name in zip(report.runs, mode_names):
            entries, dropped = naive_rerank(suite.records, base, mode_name, "author", 1.0)
            expected = ranked_list(topic_id, [doc_id for doc_id, _, _ in entries])
            naive_lists[(topic_id, run.tag)] = expected
            ranked = run.ranked[i]
            assert ranked.query_id == topic_id
            assert [(d, r) for d, _, r in ranked.entries] == [(d, r) for d, _, r in entries]
            metrics = run.per_topic[topic_id]
            assert metrics.retrieved == len(entries)
            assert metrics.dropped == dropped
            assert metrics.relevant_retrieved == sum(is_relevant(qrels, topic_id, d) for d in expected.doc_ids())
            for k in PRECISION_CUTOFFS:
                assert metrics.precision[k] == precision_at_k(expected, qrels, k)

    for tag_a, tag_b, mean in report.mean_overlap:
        manual = sum(
            overlap_at_k(naive_lists[(t, tag_a)], naive_lists[(t, tag_b)], 10)
            for t in report.topic_ids
        ) / len(report.topic_ids)
        assert mean == manual


def test_run_evaluation_searches_each_topic_once(monkeypatch):
    suite = make_topic_suite(n_topics=3, docs_per_topic=10, star_docs=4, seed=12)
    index = build_index(suite.records)
    searched = []

    def counting_search(query, idx, query_id="q"):
        searched.append(query_id)
        return search(query, idx, query_id=query_id)

    monkeypatch.setattr(evaluation, "search", counting_search)
    configs = [RankingConfig(mode=Mode.TFIDF), RankingConfig(mode=Mode.LOTKA), RankingConfig(mode=Mode.BRADFORD)]
    report = run_evaluation(index, suite.topics, suite.judgments, configs)
    topic_ids = list(suite.topics)
    assert searched == topic_ids
    for run in report.runs:
        assert [ranked.query_id for ranked in run.ranked] == topic_ids


def test_report_csv_shape_and_determinism():
    suite = make_topic_suite(n_topics=3, docs_per_topic=10, star_docs=4, seed=10)
    index = build_index(suite.records)
    qrels = suite.judgments
    configs = [RankingConfig(mode=Mode.TFIDF), RankingConfig(mode=Mode.LOTKA)]
    report_a = run_evaluation(index, suite.topics, qrels, configs)
    report_b = run_evaluation(index, suite.topics, qrels, configs)
    assert report_csv(report_a) == report_csv(report_b)
    assert report_table(report_a) == report_table(report_b)

    lines = report_csv(report_a).splitlines()
    assert lines[0] == "topic_id,run,retrieved,relevant_retrieved,dropped,p5,p10,p20,p30,p100"
    assert len(lines) == 1 + 3 * 2 + 2  # header + topic rows + ALL rows
    assert sum(1 for line in lines if line.startswith("ALL,")) == 2


def test_report_table_lists_all_runs():
    suite = make_topic_suite(n_topics=2, docs_per_topic=10, star_docs=4, seed=12)
    index = build_index(suite.records)
    report = run_evaluation(
        index,
        suite.topics,
        suite.judgments,
        [RankingConfig(mode=Mode.TFIDF), RankingConfig(mode=Mode.BRADFORD)],
    )
    table = report_table(report)
    assert "tfidf" in table and "brad" in table
    assert "p@100" in table
    assert "tfidf vs brad" in table


def test_helpers_round_trip_through_parsers():
    suite = make_topic_suite(n_topics=2, docs_per_topic=6, star_docs=2, seed=3)
    topics = parse_topics(topics_lines(suite.topics))
    assert list(topics.items()) == list(suite.topics.items())
    assert parse_qrels(qrels_lines(suite.judgments)) == suite.judgments
