"""Property-based differential tests of re-ranking against the naive oracle."""
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import naive_doc_ef, naive_entity_counts, naive_rerank, naive_search
from lotkarank.corpus import DocumentRecord
from lotkarank.index import build_index, search
from lotkarank.informetrics import EntityField, entity_frequencies
from lotkarank.rerank import MissingPolicy, Mode, RankingConfig, rerank

_NAMES = st.text(st.characters(categories=("Lu", "Ll", "Lo", "Nd", "Pd")), min_size=1, max_size=5)
_WORDS = ["alpha", "béta", "γάμμα", "δ", "日本"]
# few distinct texts, so many documents share a tf-idf score
_TEXTS = st.lists(st.sampled_from(_WORDS[:3]), max_size=3).map(" ".join)


@st.composite
def ranked_corpus(draw):
    n_docs = draw(st.integers(min_value=1, max_value=10))
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
    query = " ".join(draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3)))
    k = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]))
    return records, query, k


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
        assert table.result_size == rs.set_size
        doc_ef = [naive_doc_ef(by_id[doc_id], counts, field.value) for doc_id in rs.doc_ids()]
        assert table.covered_docs == sum(ef is not None for ef in doc_ef)
        assert table.doc_ef.tolist() == [ef or 0 for ef in doc_ef]
