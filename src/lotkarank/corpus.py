"""Bibliographic corpus parsing and tokenization.

A corpus file is UTF-8 JSON-lines: one flat object per line with keys
id, title, body, authors plus optional issn, journal, publisher, year.
Every string must encode as UTF-8, so a lone surrogate from a JSON escape
is rejected.
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


def _clean_optional(doc_id: str, key: str, value):
    if value is None:
        return None
    if not isinstance(value, str):
        raise CorpusError(f"doc_id {doc_id!r}: {key} must be a string")
    return " ".join(value.split()) or None  # strip, and collapse each whitespace run to one space


@dataclass
class DocumentRecord:
    """One bibliographic metadata entry."""

    doc_id: str
    title: str
    body: str = ""
    authors: list[str] = field(default_factory=list)
    journal_issn: str | None = None
    journal_title: str | None = None
    publisher: str | None = None
    year: int | None = None

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
        issn = _clean_optional(self.doc_id, "issn", self.journal_issn)
        self.journal_issn = issn.upper() if issn else None
        self.journal_title = _clean_optional(self.doc_id, "journal", self.journal_title)
        self.publisher = _clean_optional(self.doc_id, "publisher", self.publisher)
        # a JSON escape such as \ud800 gives a lone surrogate, which no UTF-8 file can hold;
        # one encode of all the text, and the error's offset names the field
        texts = [self.doc_id, self.title, self.body, *self.authors,
                 self.journal_issn or "", self.journal_title or "", self.publisher or ""]
        try:
            "".join(texts).encode("utf-8")
        except UnicodeEncodeError as exc:
            offset = exc.start
            keys = ["doc_id", "title", "body", *["author"] * len(self.authors),
                    "issn", "journal", "publisher"]
            for key, text in zip(keys, texts):
                if offset < len(text):
                    break
                offset -= len(text)
            raise CorpusError(
                f"doc_id {self.doc_id!r}: {key} is not encodable as UTF-8 ({exc.reason})"
            ) from None
        if self.year is not None and (isinstance(self.year, bool) or not isinstance(self.year, int)):
            raise CorpusError(f"doc_id {self.doc_id!r}: year must be an integer")


def _record_from_obj(obj: dict) -> DocumentRecord:
    unknown = obj.keys() - _KEYS
    if unknown:
        raise CorpusError(f"unknown keys: {', '.join(sorted(unknown))}")
    missing = [k for k in REQUIRED_KEYS if k not in obj]
    if missing:
        raise CorpusError(f"missing keys: {', '.join(missing)}")
    return DocumentRecord(
        doc_id=obj["id"],
        title=obj["title"],
        body=obj["body"],
        authors=obj["authors"],
        journal_issn=obj.get("issn"),
        journal_title=obj.get("journal"),
        publisher=obj.get("publisher"),
        year=obj.get("year"),
    )


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

