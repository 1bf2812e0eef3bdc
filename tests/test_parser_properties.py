"""Property-based tests of the input parsers on arbitrary input.

Each parser either returns a value or raises ValueError (CorpusError is
one) naming what is wrong; no other exception type escapes. What
parse_corpus returns can be written back out as UTF-8 and parses to
the same records, and topics written as lines parse to the same dict.
"""
import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import serialize_corpus, topics_lines
from lotkarank.corpus import OPTIONAL_KEYS, REQUIRED_KEYS, CorpusError, DocumentRecord, parse_corpus
from lotkarank.evaluation import parse_qrels, parse_topics

# any character, lone surrogates (what a JSON \ud800 escape decodes to) included
_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from("𐀀\udfff \t"), max_size=8)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)
# mostly without whitespace, so that records get past the doc_id check to the other fields
_ID = st.text(st.characters(exclude_categories=("Zs", "Zl", "Zp", "Cc")) | st.just("\udfff"),
              min_size=1, max_size=4)
# the required keys of their documented types, the optional keys of theirs or of any JSON type
_RECORD = st.fixed_dictionaries(
    {"id": _ID, "title": _TEXT, "body": _TEXT, "authors": st.lists(_TEXT, max_size=3)},
    optional={"issn": _TEXT | _JSON, "journal": _TEXT | _JSON, "publisher": _TEXT | _JSON,
              "year": st.integers() | _JSON},
)
# every key, an unknown one included, of any JSON type
_ANY_RECORD = st.fixed_dictionaries(
    {key: _JSON for key in REQUIRED_KEYS}, optional={key: _JSON for key in (*OPTIONAL_KEYS, "extra")}
)
_CORPUS_LINE = (_RECORD | _ANY_RECORD | _JSON).map(json.dumps) | _TEXT
_LINE = _TEXT | st.lists(_TEXT, max_size=5).map(" ".join) | st.lists(_TEXT, max_size=3).map("\t".join)


@settings(derandomize=True, deadline=None)
@given(st.lists(_CORPUS_LINE, max_size=4))
def test_parse_corpus_returns_or_raises_value_error(lines):
    try:
        records = parse_corpus(lines)
    except ValueError:
        return
    text = serialize_corpus(records)
    text.encode("utf-8")  # what the index file and run files hold
    assert parse_corpus(text.splitlines()) == records


@settings(derandomize=True, deadline=None)
@given(st.lists(_LINE, max_size=4))
def test_parse_topics_returns_or_raises_value_error(lines):
    try:
        parse_topics(lines)
    except ValueError:
        pass


# one word, and not the id of the report's summary rows; queries are stripped and one line
_TOPIC_ID = st.text(st.characters(exclude_categories=("Zs", "Zl", "Zp", "Cc")), min_size=1, max_size=4).filter(
    lambda topic_id: topic_id.split() == [topic_id] and topic_id != "ALL")
_QUERY = _TEXT.map(str.strip).filter(lambda query: query.splitlines() in ([], [query]))


@settings(derandomize=True, deadline=None)
@given(st.dictionaries(_TOPIC_ID, _QUERY, max_size=4))
def test_parse_topics_round_trips_topics_lines(topics):
    # file order is the dict's order
    assert list(parse_topics(topics_lines(topics)).items()) == list(topics.items())


@settings(derandomize=True, deadline=None)
@given(st.lists(_LINE, max_size=4))
def test_parse_qrels_returns_or_raises_value_error(lines):
    try:
        parse_qrels(lines)
    except ValueError:
        pass


# whitespace of several kinds (ASCII, C1, Unicode separators), and two characters that
# are not whitespace (zero-width space, byte order mark)
_SPACES = st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2000\u2028\u2029\u202f\u3000\u200b\ufeff")


@settings(derandomize=True, deadline=None)
@given(st.lists(st.text(st.characters() | _SPACES, max_size=10), max_size=3))
def test_author_names_are_stripped_and_collapsed_on_regex_whitespace(authors):
    # trim, then replace each run of \s by one space
    expected = [re.sub(r"\s+", " ", name.strip()) for name in authors]
    try:
        record = DocumentRecord(doc_id="d1", title="", authors=authors)
    except CorpusError:
        assert "" in expected or len(set(expected)) < len(expected)
        return
    assert record.authors == expected
