"""Property-based differential tests of the index against the naive oracle."""
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import naive_search, naive_tokenize
from lotkarank.corpus import _TOKEN_RE, DocumentRecord, tokenize
from lotkarank.index import InvertedIndex, _pack_strings, _unpack_strings, build_index, search

# letters and digits from any script, including ones whose lowercase form
# differs (e.g. "İ"), so the indexed terms are what tokenize makes of them
_WORDS = st.text(st.characters(categories=("Lu", "Ll", "Lo", "Nd")), min_size=1, max_size=4)
_SEPARATORS = st.sampled_from([" ", "  ", ", ", "-", "_", "\n", "!?"])


@st.composite
def corpus_and_query(draw):
    vocab = draw(st.lists(_WORDS, min_size=1, max_size=8, unique=True))

    def text(max_words):
        words = draw(st.lists(st.sampled_from(vocab), max_size=max_words))
        return "".join(word + draw(_SEPARATORS) for word in words)

    n_docs = draw(st.integers(min_value=1, max_value=8))
    # ids from any script, in no particular order
    doc_ids = draw(st.lists(_WORDS, min_size=n_docs, max_size=n_docs, unique=True))
    records = [DocumentRecord(doc_id=doc_id, title=text(4), body=text(10)) for doc_id in doc_ids]
    words = draw(st.lists(st.sampled_from(vocab + ["unindexed"]), max_size=5))
    repeats = draw(st.integers(min_value=0, max_value=len(words)))
    query = " ".join(words + words[:repeats])  # repeated query tokens count once per occurrence
    return records, query


@settings(derandomize=True, deadline=None)
@given(corpus_and_query())
def test_search_matches_naive_oracle(case):
    records, query = case
    result = search(query, build_index(records))
    expected = naive_search(records, query)
    assert result.doc_ids() == [doc_id for doc_id, _, _ in expected]
    for (_, got, _), (_, want, _) in zip(result.entries, expected):
        assert abs(got - want) <= 1e-9
    for k in (0, 1, len(expected), len(expected) + 5, None):
        assert result.doc_ids(k) == result.doc_ids()[:k]


@settings(derandomize=True, deadline=None)
@given(corpus_and_query())
def test_postings_equal_per_document_counts(case):
    records, _ = case
    index = build_index(records)
    counts = {rec.doc_id: Counter(tokenize(rec.title) + tokenize(rec.body)) for rec in records}
    terms = set().union(*counts.values())
    assert index.term_count() == len(terms)
    for term in terms:
        docs, tfs = index.postings(term)
        got = [(index._doc_ids[pos], tf) for pos, tf in zip(docs.tolist(), tfs.tolist())]
        assert got == sorted((doc_id, c[term]) for doc_id, c in counts.items() if c[term])


# any text, with the characters str.lower and the token pattern treat specially drawn
# often: Greek capital sigma (lowercased to final ς or σ by what is around it), cased
# letters, case-ignorable marks (combining acute, ypogegrammeni, soft hyphen, apostrophe),
# "İ" (two characters in lowercase), astral characters and lone surrogates
_SPECIAL = "Σσςa1_ \n\u0301\u0345\u00ad'.İ\U0001d400\U0001d7ce\U00010400\ud800\udfff"
_ANY_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from(_SPECIAL), max_size=12)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_ANY_TEXT, _ANY_TEXT)
def test_tokenize_of_lines_is_tokenize_of_each(a, b):
    # build_index tokenizes title and body as one text joined by "\n"
    assert tokenize(f"{a}\n{b}") == tokenize(a) + tokenize(b)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_ANY_TEXT)
def test_tokenize_matches_naive_oracle(text):
    assert tokenize(text) == naive_tokenize(text)


# ASCII text takes tokenize's translate-table branch, which _ANY_TEXT seldom reaches
@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.text(st.characters(max_codepoint=127)))
def test_tokenize_of_ascii_matches_the_pattern_and_naive_oracle(text):
    assert tokenize(text) == _TOKEN_RE.findall(text.lower()) == naive_tokenize(text)


def test_tokenize_of_each_ascii_character():
    # every code point between letters, at both ends and alone
    for ch in map(chr, range(128)):
        for text in (f"a{ch}b", f"A{ch}B", f"{ch}ab", f"ab{ch}", ch):
            assert tokenize(text) == _TOKEN_RE.findall(text.lower()) == naive_tokenize(text), repr(text)


@settings(derandomize=True, deadline=None)
@given(corpus_and_query())
def test_rows_follow_first_appearance_in_doc_id_order(case):
    records, _ = case
    index = build_index(records)
    first = {}
    for rec in sorted(records, key=lambda rec: rec.doc_id):
        for term in tokenize(rec.title) + tokenize(rec.body):
            first.setdefault(term, len(first))
    assert list(index._term_ids) == list(first)
    assert index._term_ids == first


@settings(derandomize=True, deadline=None)
@given(corpus_and_query())
def test_save_load_round_trip(case):
    records, query = case
    index = build_index(records)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.idx"
        index.save(path)
        loaded = InvertedIndex.load(path)
    assert loaded == index
    assert loaded._doc_ids == sorted(rec.doc_id for rec in records)
    assert search(query, loaded).entries == search(query, index).entries


@settings(derandomize=True, deadline=None)
@given(st.lists(st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"))), st.data())
def test_unpack_strings_inverts_pack_strings(strings, data):
    assert _unpack_strings(_pack_strings(strings)) == strings
    # a string holding a line break would load as two, so it is never saved
    at = data.draw(st.integers(0, len(strings)))
    with pytest.raises(ValueError, match="holds no line break"):
        _pack_strings([*strings[:at], "a\nb", *strings[at:]])
