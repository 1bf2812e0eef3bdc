"""Property-based differential tests of run_evaluation against per-document metrics."""
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import is_relevant, overlap_at_k, precision_at_k
from lotkarank.corpus import DocumentRecord
from lotkarank.evaluation import OVERLAP_K, PRECISION_CUTOFFS, TopicMetrics, run_evaluation
from lotkarank.index import build_index
from lotkarank.informetrics import EntityField
from lotkarank.rerank import MissingPolicy, Mode, RankingConfig

_WORDS = ["alpha", "beta", "gamma"]
_AUTHORS = ["Ann", "Bo", "Cy"]
_CONFIGS = [
    RankingConfig(mode=Mode.TFIDF),
    RankingConfig(mode=Mode.BRADFORD),
    RankingConfig(mode=Mode.LOTKA),
    RankingConfig(mode=Mode.COMBINED, field=EntityField.AUTHOR, k=-0.5, missing_policy=MissingPolicy.PASSTHROUGH),
]


@st.composite
def evaluation_case(draw):
    # up to 250 documents, so that some result sets pass the largest cutoff (100)
    n_docs = draw(st.integers(min_value=1, max_value=250))
    # each document's title words, authors and journal, as bit sets and choices
    words = draw(st.lists(st.integers(0, 7), min_size=n_docs, max_size=n_docs))
    authors = draw(st.lists(st.integers(0, 7), min_size=n_docs, max_size=n_docs))
    journals = draw(st.lists(st.sampled_from([None, "1111-1111", "2222-2222"]), min_size=n_docs, max_size=n_docs))
    records = [
        DocumentRecord(doc_id=f"d{i}", title=" ".join(w for b, w in enumerate(_WORDS) if word_bits >> b & 1),
                       authors=[a for b, a in enumerate(_AUTHORS) if author_bits >> b & 1], journal_issn=journal)
        for i, (word_bits, author_bits, journal) in enumerate(zip(words, authors, journals))
    ]
    topic_ids = draw(st.lists(st.sampled_from(["t1", "t2", "t3", "t4"]), min_size=1, max_size=4, unique=True))
    topics = {topic_id: " ".join(draw(st.lists(st.sampled_from(_WORDS + ["unindexed"]), min_size=1, max_size=2)))
              for topic_id in topic_ids}
    # grades 0 to 2 for every indexed doc of some listed topics (the others have no
    # judgments), plus judged doc ids that are not indexed and a topic with no entry
    judgments = {}
    for topic_id in draw(st.lists(st.sampled_from(topic_ids), unique=True)):
        grades = draw(st.lists(st.integers(0, 2), min_size=n_docs, max_size=n_docs))
        judgments.update(((topic_id, f"d{i}"), grade) for i, grade in enumerate(grades))
    extra = st.tuples(st.sampled_from(topic_ids + ["t9"]), st.sampled_from(["d0", "missing", f"d{n_docs}"]))
    judgments.update(draw(st.dictionaries(extra, st.integers(0, 2), max_size=4)))
    return records, topics, judgments


@settings(derandomize=True, deadline=None)
@given(evaluation_case())
def test_run_evaluation_matches_per_document_metrics(case):
    records, topics, qrels = case
    report = run_evaluation(build_index(records), topics, qrels, _CONFIGS)
    assert report.topic_ids == list(topics)
    assert report.unknown_qrel_topics == len({topic_id for topic_id, _ in qrels} - set(report.topic_ids))
    for run in report.runs:
        assert [ranked.query_id for ranked in run.ranked] == report.topic_ids
        for ranked in run.ranked:
            metrics = run.per_topic[ranked.query_id]
            assert metrics.retrieved == len(ranked.doc_ids())
            assert metrics.relevant_retrieved == sum(is_relevant(qrels, ranked.query_id, d) for d in ranked.doc_ids())
            assert metrics.dropped == ranked.dropped
            assert metrics.precision == {k: precision_at_k(ranked, qrels, k) for k in PRECISION_CUTOFFS}
        # the ALL row: the topics' counts summed, and each precision their mean over all topics
        assert run.total == TopicMetrics(
            retrieved=sum(len(ranked.doc_ids()) for ranked in run.ranked),
            relevant_retrieved=sum(is_relevant(qrels, r.query_id, d) for r in run.ranked for d in r.doc_ids()),
            dropped=sum(ranked.dropped for ranked in run.ranked),
            precision={k: sum(precision_at_k(ranked, qrels, k) for ranked in run.ranked) / len(topics)
                       for k in PRECISION_CUTOFFS},
        )
    by_tag = {run.tag: run.ranked for run in report.runs}
    for tag_a, tag_b, mean in report.mean_overlap:
        pairs = list(zip(by_tag[tag_a], by_tag[tag_b]))
        assert mean == sum(overlap_at_k(a, b, OVERLAP_K) for a, b in pairs) / len(pairs)
