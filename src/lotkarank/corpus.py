"""Bibliographic corpus parsing and tokenization.

A corpus file is UTF-8 JSON-lines: one flat object per line with keys
id, title, body, authors plus optional issn, journal, publisher, year.
Every string must encode as UTF-8, so a lone surrogate from a JSON escape
is rejected. A DocumentRecord keeps id, title, body, authors and issn:
journal, publisher and year are checked (type, and UTF-8 for the two
strings) and not kept, since no command reads them.
"""
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum

REQUIRED_KEYS = ("id", "title", "body", "authors")
OPTIONAL_KEYS = ("issn", "journal", "publisher", "year")
_KEYS = frozenset(REQUIRED_KEYS + OPTIONAL_KEYS)

# alphanumeric runs (unicode-aware, underscore excluded)
_TOKEN_RE = re.compile(r"[^\W_]+")
# the same rule on ASCII text as one table: A-Z to lowercase, every character that is
# not a letter or digit (underscore included) to a space
_ASCII_TABLE = str.maketrans({c: chr(c).lower() if chr(c).isalnum() else " " for c in range(128)})


class EntityField(Enum):
    """A metadata field whose values are counted over result sets."""

    JOURNAL = "journal"  # single-valued: journal_issn
    AUTHOR = "author"  # multi-valued: authors


class CorpusError(ValueError):
    """Raised for malformed corpus input (message names the offending line or id)."""


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character.

    No stemming, no stopword removal; empty fragments are dropped.
    """
    if text.isascii():  # O(1) in CPython; on ASCII text the table is over twice as fast as the regex
        return text.translate(_ASCII_TABLE).split()
    return _TOKEN_RE.findall(text.lower())


def _optional_string(doc_id: str, key: str, value) -> str:
    """value, or "" for None; CorpusError for any other type."""
    if value is None:
        return ""
    if not isinstance(value, str):
        raise CorpusError(f"doc_id {doc_id!r}: {key} must be a string")
    return value


def _check_utf8(doc_id: str, key: str, text: str):
    # a JSON escape such as \ud800 gives a lone surrogate, which no UTF-8 file can hold
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CorpusError(f"doc_id {doc_id!r}: {key} is not encodable as UTF-8 ({exc.reason})") from None


@dataclass
class DocumentRecord:
    """One bibliographic metadata entry: the fields that the index reads."""

    doc_id: str
    title: str
    body: str = ""
    authors: list[str] = field(default_factory=list)
    journal_issn: str | None = None

    def __post_init__(self):
        if not isinstance(self.title, str) or not isinstance(self.body, str):
            raise CorpusError("title and body must be strings")
        if not isinstance(self.authors, list):
            raise CorpusError("authors must be a list of strings")
        if not isinstance(self.doc_id, str) or not self.doc_id:
            raise CorpusError("doc_id must be a non-empty string")
        if self.doc_id.split() != [self.doc_id]:  # run files split their columns on whitespace
            raise CorpusError(f"doc_id {self.doc_id!r} contains whitespace")
        normalized = []
        for name in self.authors:
            if not isinstance(name, str):
                raise CorpusError(f"doc_id {self.doc_id!r}: author names must be strings")
            name = " ".join(name.split())  # strip, and collapse each whitespace run to one space
            if not name:
                raise CorpusError(f"doc_id {self.doc_id!r}: empty author name")
            if name in normalized:
                raise CorpusError(f"doc_id {self.doc_id!r}: duplicate author {name!r}")
            normalized.append(name)
        self.authors = normalized
        issn = _optional_string(self.doc_id, "issn", self.journal_issn)
        self.journal_issn = " ".join(issn.split()).upper() or None  # as author names; blank is absent
        # one encode of all the text; only a record that fails it is searched for the field
        texts = [self.doc_id, self.title, self.body, *self.authors, self.journal_issn or ""]
        try:
            "".join(texts).encode("utf-8")
        except UnicodeEncodeError:
            for key, text in zip(["doc_id", "title", "body", *["author"] * len(self.authors), "issn"], texts):
                _check_utf8(self.doc_id, key, text)


def _record_from_obj(obj: dict) -> DocumentRecord:
    unknown = obj.keys() - _KEYS
    if unknown:
        raise CorpusError(f"unknown keys: {', '.join(sorted(unknown))}")
    missing = [k for k in REQUIRED_KEYS if k not in obj]
    if missing:
        raise CorpusError(f"missing keys: {', '.join(missing)}")
    record = DocumentRecord(obj["id"], obj["title"], obj["body"], obj["authors"], obj.get("issn"))
    # journal, publisher and year are checked, then dropped: no command reads them
    for key in ("journal", "publisher"):
        _check_utf8(record.doc_id, key, _optional_string(record.doc_id, key, obj.get(key)))
    if obj.get("year") is not None and type(obj["year"]) is not int:  # a bool is not a year, though an int
        raise CorpusError(f"doc_id {record.doc_id!r}: year must be an integer")
    return record


def parse_corpus(lines) -> list[DocumentRecord]:
    """Parse a line-delimited record stream into DocumentRecords.

    Records come back in input order. Raises CorpusError naming the line
    number for malformed lines and the id for duplicate doc_ids.
    """
    import json  # only index reads a corpus, so no other command loads the module

    records = []
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise CorpusError(f"line {lineno}: record must be an object")
        try:
            record = _record_from_obj(obj)
        except CorpusError as exc:
            raise CorpusError(f"line {lineno}: {exc}") from exc
        if record.doc_id in seen:
            raise CorpusError(f"duplicate doc_id {record.doc_id!r} (line {lineno})")
        seen.add(record.doc_id)
        records.append(record)
    return records


@contextmanager
def open_text(path):
    """open(path) for reading UTF-8, a leading byte order mark skipped; ValueError naming path if not UTF-8."""
    with open(path, encoding="utf-8-sig") as fin:
        try:
            yield fin
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} is not UTF-8 text ({exc.reason})") from None


def load_corpus(path) -> list[DocumentRecord]:
    with open_text(path) as fin:
        return parse_corpus(fin)

