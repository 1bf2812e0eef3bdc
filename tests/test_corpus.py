import json
import random

import pytest

from helpers import make_power_law_corpus, serialize_corpus
from lotkarank.corpus import (
    CorpusError,
    DocumentRecord,
    parse_corpus,
    tokenize,
)
from lotkarank.index import build_index


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_lowercases_and_splits_on_spaces():
    assert tokenize("Violence AND family") == ["violence", "and", "family"]


def test_tokenize_splits_on_punctuation():
    assert tokenize("tf-idf, ranking!") == ["tf", "idf", "ranking"]


def test_tokenize_drops_underscore_and_keeps_digits():
    assert tokenize("a_b 2021 x9") == ["a", "b", "2021", "x9"]


def test_tokenize_handles_unicode():
    assert tokenize("Müller-Straße") == ["müller", "straße"]


def test_tokenize_idempotent_on_joined_output():
    rng = random.Random(7)
    alphabet = "abcXYZ 123-_,.!?/äÖü\t\n"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens
        for token in tokens:
            assert token and token == token.lower()
            assert not any(ch.isspace() for ch in token)


def test_parse_empty_input():
    assert parse_corpus([]) == []
    assert parse_corpus(["", "   "]) == []


def test_parse_single_record():
    records = parse_corpus(['{"id": "d1", "title": "A title", "body": "", "authors": []}'])
    assert len(records) == 1
    assert records[0].doc_id == "d1"
    assert records[0].title == "A title"


def test_parse_duplicate_id_names_the_id():
    lines = [
        '{"id": "d1", "title": "x", "body": "", "authors": []}',
        '{"id": "d1", "title": "y", "body": "", "authors": []}',
    ]
    with pytest.raises(CorpusError, match="d1"):
        parse_corpus(lines)


def test_parse_malformed_json_names_the_line():
    lines = ['{"id": "d1", "title": "x", "body": "", "authors": []}', "{not json"]
    with pytest.raises(CorpusError, match="line 2"):
        parse_corpus(lines)


def test_parse_rejects_unknown_keys():
    with pytest.raises(CorpusError, match="surprise"):
        parse_corpus(['{"id": "d1", "title": "x", "body": "", "authors": [], "surprise": 1}'])


def test_parse_rejects_missing_required_keys():
    with pytest.raises(CorpusError, match="authors"):
        parse_corpus(['{"id": "d1", "title": "x", "body": ""}'])


def test_parse_rejects_non_list_authors():
    with pytest.raises(CorpusError, match="line 1"):
        parse_corpus(['{"id": "d1", "title": "x", "body": "", "authors": "A"}'])


@pytest.mark.parametrize("fields,message", [
    ({"title": None}, "title and body must be strings"),
    ({"body": 5}, "title and body must be strings"),
    ({"authors": "Ada"}, "authors must be a list of strings"),
    ({"authors": {"Ada": 1}}, "authors must be a list of strings"),
    # the type checks come before the doc_id checks, in a file as in Python
    ({"id": "", "title": ["t"]}, "title and body must be strings"),
    ({"id": "a b", "authors": None}, "authors must be a list of strings"),
])
def test_record_built_in_python_gets_the_corpus_type_checks(fields, message):
    obj = {"id": "d1", "title": "t", "body": "", "authors": [], **fields}
    with pytest.raises(CorpusError) as info:
        parse_corpus([json.dumps(obj)])
    assert str(info.value) == f"line 1: {message}"
    with pytest.raises(CorpusError) as info:
        DocumentRecord(doc_id=obj["id"], title=obj["title"], body=obj["body"], authors=obj["authors"])
    assert str(info.value) == message


def test_parse_rejects_non_integer_year():
    with pytest.raises(CorpusError, match="year"):
        parse_corpus(['{"id": "d1", "title": "x", "body": "", "authors": [], "year": "2001"}'])


def test_author_names_are_trimmed_and_collapsed():
    rec = DocumentRecord(doc_id="d1", title="t", authors=["  Ada   B.  Lovelace "])
    assert rec.authors == ["Ada B. Lovelace"]


def test_empty_author_rejected():
    with pytest.raises(CorpusError, match="empty author"):
        DocumentRecord(doc_id="d1", title="t", authors=["   "])


def test_duplicate_author_rejected_after_normalization():
    with pytest.raises(CorpusError, match="duplicate author"):
        DocumentRecord(doc_id="d1", title="t", authors=["A  B", "A B"])


def test_issn_uppercased_hyphens_kept():
    rec = DocumentRecord(doc_id="d1", title="t", journal_issn=" 1234-567x ")
    assert rec.journal_issn == "1234-567X"


def test_optional_strings_are_trimmed_and_collapsed_as_author_names():
    # the index saves each ISSN on a line of its own, so none may hold a line break
    rec = DocumentRecord(doc_id="d1", title="t", journal_issn="\n1234-\n\t567x ")
    assert rec.journal_issn == "1234- 567X"


def test_blank_optional_strings_become_none():
    rec = DocumentRecord(doc_id="d1", title="t", journal_issn="  ")
    assert rec.journal_issn is None


@pytest.mark.parametrize("key,attr", [("issn", "journal_issn"), ("journal", "journal_title"),
                                      ("publisher", "publisher")])
@pytest.mark.parametrize("value", [5, 1.5, True, ["x"], {"a": "b"}])
def test_non_string_optional_field_rejected(key, attr, value):
    if key == "issn":
        with pytest.raises(CorpusError) as info:
            DocumentRecord(doc_id="d1", title="t", **{attr: value})
        assert str(info.value) == f"doc_id 'd1': {key} must be a string"
    else:  # checked by the parser, then dropped: a record has no field for it
        with pytest.raises(TypeError):
            DocumentRecord(doc_id="d1", title="t", **{attr: value})
        with pytest.raises(CorpusError) as info:
            parse_corpus([json.dumps({"id": "d1", "title": "t", "body": "", "authors": [], key: value})])
        assert str(info.value) == f"line 1: doc_id 'd1': {key} must be a string"


@pytest.mark.parametrize("key,kwargs", [
    ("doc_id", {"doc_id": "d\ud800"}),
    ("title", {"title": "a \udfff b"}),
    ("body", {"body": "\ud800"}),
    ("author", {"authors": ["Ada", "B\udc00b"]}),
    ("issn", {"journal_issn": "1234-\ud800"}),
    # keys of a corpus line, checked by the parser and then dropped
    ("journal", {"journal": "\udbff"}),
    ("publisher", {"publisher": "P\ud800"}),
])
def test_lone_surrogate_rejected(key, kwargs):
    # json.loads turns a \ud800 escape into a lone surrogate, which UTF-8 cannot encode
    fields = {"doc_id": "d1", "title": "t", **kwargs}
    message = f"doc_id {fields['doc_id']!r}: {key} is not encodable as UTF-8 (surrogates not allowed)"
    if key in ("journal", "publisher"):
        with pytest.raises(CorpusError) as info:
            parse_corpus([json.dumps({"id": "d1", "title": "t", "body": "", "authors": [], **kwargs})])
        message = f"line 1: {message}"
    else:
        with pytest.raises(CorpusError) as info:
            DocumentRecord(**fields)
    assert str(info.value) == message


def test_paired_surrogate_escape_accepted():
    # a surrogate pair escape is one ordinary character once parsed
    (rec,) = parse_corpus(['{"id": "d\\ud83d\\ude00", "title": "t", "body": "", "authors": []}'])
    assert rec.doc_id == "d\U0001f600"


@pytest.mark.parametrize("line,message", [
    ('{"id": "d2", "title": "y", "body": "", "authors": [], "issn": 5}',
     "line 2: doc_id 'd2': issn must be a string"),
    ('{"id": "d2", "title": "y", "body": "", "authors": [], "journal": ["J"]}',
     "line 2: doc_id 'd2': journal must be a string"),
    ('{"id": "d2\\ud800", "title": "y", "body": "", "authors": []}',
     "line 2: doc_id 'd2\\ud800': doc_id is not encodable as UTF-8 (surrogates not allowed)"),
    ('{"id": "d2", "title": "y", "body": "", "authors": ["\\udfff"]}',
     "line 2: doc_id 'd2': author is not encodable as UTF-8 (surrogates not allowed)"),
])
def test_parse_bad_field_names_the_line(line, message):
    lines = ['{"id": "d1", "title": "x", "body": "", "authors": []}', line]
    with pytest.raises(CorpusError) as info:
        parse_corpus(lines)
    assert str(info.value) == message


def test_empty_doc_id_rejected():
    with pytest.raises(CorpusError):
        DocumentRecord(doc_id="", title="t")


@pytest.mark.parametrize("doc_id", ["a b", " d1", "d1\t", "d\n1", "d\u00a01", "d\u30001"])
def test_doc_id_with_whitespace_rejected(doc_id):
    # run files split their columns on whitespace, so such an id could not be judged
    with pytest.raises(CorpusError) as info:
        DocumentRecord(doc_id=doc_id, title="t")
    assert str(info.value) == f"doc_id {doc_id!r} contains whitespace"


def test_parse_whitespace_doc_id_names_the_line():
    lines = [
        '{"id": "d1", "title": "x", "body": "", "authors": []}',
        '{"id": "a b", "title": "y", "body": "", "authors": []}',
    ]
    with pytest.raises(CorpusError) as info:
        parse_corpus(lines)
    assert str(info.value) == "line 2: doc_id 'a b' contains whitespace"


def test_round_trip():
    records = [
        DocumentRecord(
            doc_id="d1",
            title="Gewalt in der Familie",
            body="eine Studie",
            authors=["A. Müller", "B. Schmidt"],
            journal_issn="0012-1207",
        ),
        DocumentRecord(doc_id="d2", title="untitled?", body="", authors=[]),
    ]
    assert parse_corpus(serialize_corpus(records).splitlines()) == records


def test_round_trip_randomized():
    rng = random.Random(11)
    names = ["A One", "B Two", "C Three", "D Vier", "E Fünf"]
    records = []
    for i in range(40):
        authors = rng.sample(names, rng.randrange(0, 4))
        records.append(
            DocumentRecord(
                doc_id=f"doc{i:03d}",
                title=" ".join(rng.choice("abc defg hij".split()) for _ in range(3)),
                body="word " * rng.randrange(0, 5),
                authors=authors,
                journal_issn=rng.choice([None, "1111-2222", "3333-444X"]),
            )
        )
    assert parse_corpus(serialize_corpus(records).splitlines()) == records


def test_dropped_keys_change_no_record_and_no_index_byte(tmp_path):
    records, _ = make_power_law_corpus(n_docs=60, seed=3)
    plain = [json.loads(line) for line in serialize_corpus(records).splitlines()]
    for obj in plain:
        del obj["year"]
    # two lines in three carry the keys, each of them null on some lines
    extended = [
        {**obj, "journal": f"Journal {i % 7}" if i % 4 else None, "publisher": " A\tPress " if i % 5 else None,
         "year": 1950 + i if i % 6 else None} if i % 3 else obj
        for i, obj in enumerate(plain)
    ]
    parsed_plain = parse_corpus([json.dumps(obj) for obj in plain])
    parsed_extended = parse_corpus([json.dumps(obj) for obj in extended])
    assert parsed_extended == parsed_plain
    build_index(parsed_plain).save(tmp_path / "plain.idx")
    build_index(parsed_extended).save(tmp_path / "extended.idx")
    assert (tmp_path / "extended.idx").read_bytes() == (tmp_path / "plain.idx").read_bytes()
