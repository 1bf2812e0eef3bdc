"""Golden outputs: a fixed matrix of CLI commands gives the same bytes as when golden.json was made.

Every command runs through ``cli.main`` in process, with relative paths
in one working directory, on a 2,000-doc power-law corpus and a 10-doc
corpus of non-ASCII text, and on one bad input or argument per check
that refuses it (exit 1, no file). For each command, golden.json holds
the exit code and the SHA-256 of its stdout, its stderr and every file it
created, keyed by the command line. The oracle tests say the outputs are
right; this test says they did not move.

After a change that moves an output on purpose, regenerate the file from
the repository root with ``PYTHONPATH=src python tests/test_golden.py``
and commit it with the change.
"""
import contextlib
import hashlib
import io
import json
import os
import pickle
import random
import tempfile
from pathlib import Path

import numpy as np

from helpers import index_zip, make_power_law_corpus, qrels_lines, save_corpus
from lotkarank.cli import main
from lotkarank.corpus import DocumentRecord, tokenize
from lotkarank.index import build_index

GOLDEN = Path(__file__).resolve().with_name("golden.json")
_FIELDS = ("journal", "author")

# The non-ASCII corpus: accented Latin, Greek, Cyrillic, CJK ideographs, full-width and
# Arabic-Indic digits, "_", mixed case, a dotted capital I (its lower case ends in a
# combining dot, which splits the token), ß, a titlecase digraph, a ligature and a
# superscript digit. These words give the same 22 tokens under the Unicode tables of
# Python 3.10 to 3.13 (Unicode 13.0 to 15.1). ISSNs stay ASCII, as index upper-cases them.
_UNICODE_TEXT = ("Ångström Café naïve ΑΒΓ δέλτα Ωμέγα Москва ДАННЫЕ 東京 数据 ＡＢＣ１２３ ٣٤٥ ۱۲۳ "
                 "snake_case MiXeD İstanbul straße ǅemal ﬁne x²")
_UNICODE_DOCS = [  # (doc_id, title, body, authors, issn)
    ("u01", "Ångström Café", "naïve ΑΒΓ δέλτα x²", ["Ωμέγα Москва", "ǅemal"], "1111-1111"),
    ("u02", "ΑΒΓ δέλτα Ωμέγα", "Москва ДАННЫЕ Ångström 東京", ["Ωμέγα Москва"], "1111-1111"),
    ("u03", "東京 数据", "ＡＢＣ１２３ ٣٤٥ Ångström ΑΒΓ", ["東京 数据", "ǅemal"], "2222-2222"),
    ("u04", "snake_case MiXeD", "İstanbul straße straße ﬁne", ["straße"], "3333-333X"),
    ("u05", "۱۲۳ ٣٤٥", "ﬁne x² ΑΒΓ ΑΒΓ 東京", ["Ωμέγα Москва"], "2222-2222"),
    ("u06", "ДАННЫЕ Москва", "Café naïve 東京", [], "1111-1111"),
    ("u07", "ǅemal İstanbul", "straße straße MiXeD", ["Café naïve"], None),
    ("u08", "ＡＢＣ１２３ x²", "数据 Ωμέγα snake_case", ["İstanbul", "Ångström"], "1111-1111"),
    ("u09", "Café ﬁne", "δέλτα ۱۲۳ naïve", ["ДАННЫЕ"], "3333-333X"),
    ("u10", "x² MiXeD", "Ωμέγα Café", ["ǅemal", "東京 数据"], None),
]
_UNICODE_QUERY = "ångström ΑΒΓ ＡＢＣ１２３ İstanbul"  # 7 documents
_FLAT_QUERY = "東京"  # 4 documents, two in each of two journals: the flat fit
_COMBINED_QUERY = "straße"  # 2 documents with one author each, so every ef / N is 1/2

# Bad inputs, each refused with exit 1 and one stderr line before anything is written. The
# messages are lotkarank's own, json's "Expecting value", the codecs' "surrogates not
# allowed" and "invalid start byte", zipfile's "File is not a zip file" and the OS's
# strerror, none of which differ across Python 3.10-3.14 and numpy 1.24-2.x.
_BAD_CORPORA = {  # one per check of the corpus parser, each refused by index
    "bad.json.jsonl": b'{"id": "d1", "title": "a", "body": "", "authors": []}\n\nnot json\n',  # line 3
    "bad.object.jsonl": b'["d1", "a", "", []]\n',
    "bad.key.jsonl": b'{"id": "d1", "title": "a", "body": "", "authors": [], "colour": "red"}\n',
    "bad.missing.jsonl": b'{"id": "d1", "title": "a", "body": ""}\n',
    "bad.id.jsonl": b'{"id": "", "title": "a", "body": "", "authors": []}\n',
    "bad.id-space.jsonl": b'{"id": "d 1", "title": "a", "body": "", "authors": []}\n',
    "bad.title.jsonl": b'{"id": "d1", "title": 5, "body": "", "authors": []}\n',
    "bad.authors.jsonl": b'{"id": "d1", "title": "a", "body": "", "authors": "Ada"}\n',
    "bad.author-type.jsonl": b'{"id": "d1", "title": "a", "body": "", "authors": [5]}\n',
    "bad.author-empty.jsonl": b'{"id": "d1", "title": "a", "body": "", "authors": [" "]}\n',
    "bad.author-twice.jsonl": b'{"id": "d1", "title": "a", "body": "", "authors": ["Ada", " Ada"]}\n',
    "bad.issn.jsonl": b'{"id": "d1", "title": "a", "body": "", "authors": [], "issn": 5}\n',
    "bad.journal.jsonl": b'{"id": "d1", "title": "a", "body": "", "authors": [], "journal": 5}\n',
    "bad.year.jsonl": b'{"id": "d1", "title": "a", "body": "", "authors": [], "year": "1999"}\n',
    "bad.surrogate.jsonl": b'{"id": "d1", "title": "a \\ud800", "body": "", "authors": []}\n',
    "bad.journal-surrogate.jsonl": b'{"id": "d1", "title": "a", "body": "", "authors": [], "journal": "J\\ud800"}\n',
    "bad.publisher-surrogate.jsonl":
        b'{"id": "d1", "title": "a", "body": "", "authors": [], "publisher": "\\udfffP"}\n',
    # two lone surrogates: the author is named, as it comes before the issn
    "bad.author-surrogate.jsonl":
        b'{"id": "d1", "title": "a", "body": "", "authors": ["Ada", "B\\udc00"], "issn": "1234-\\ud800"}\n',
    "bad.duplicate.jsonl": b'{"id": "d1", "title": "a", "body": "", "authors": []}\n' * 2,
    "bad.empty.jsonl": b"",
    "bad.utf8.jsonl": b"\xff\n",
}
_BAD_TOPICS = {  # refused by eval
    "bad.duplicate.tsv": b"t1\tquake\nt1\tflood\n",
    "bad.tab.tsv": b"t1\tquake\n\nt2 flood\n",  # line 3
    "bad.empty-id.tsv": b"\tquake\n",
    "bad.id-space.tsv": b"t 1\tquake\n",
    "bad.all.tsv": b"ALL\tquake\n",  # the name of the report's summary rows
}
_BAD_QRELS = {  # refused by eval
    "bad.grade.txt": b"t1 0 d0001 1_0\n",
    "bad.columns.txt": b"t1 0 d0001 1\n\nt1 0 d0002\n",  # line 3
    "bad.negative.txt": b"t1 0 d0001 -1\n",
    "bad.duplicate.txt": b"t1 0 d0001 1\nt1 0 d0001 0\n",
}
# refused by search: not a zip, a pickle, the previous layout, a zip header with no
# directory, a member in .npy 2.0 and a string list that is not UTF-8
_BAD_INDEXES = ("bad.text.idx", "bad.pickle.idx", "bad.layout5.idx", "bad.truncated.idx",
                "bad.npy2.idx", "bad.utf8.idx")


def _inputs():
    """Write corpus.jsonl, topics.tsv, qrels.txt and the other inputs into the working directory; return the queries."""
    records, queries = make_power_law_corpus(n_docs=2000, seed=12)
    save_corpus(records, "corpus.jsonl")
    # broad, repeated-token, three-token and narrow queries, and one that retrieves nothing
    queries = queries[:4] + ["zzz"]
    with open("topics.tsv", "w", encoding="utf-8") as fout:
        fout.writelines(f"t{i}\t{query}\n" for i, query in enumerate(queries))
    rng = random.Random(5)
    judgments = {
        (topic_id, record.doc_id): rng.randint(0, 2)
        for topic_id in [f"t{i}" for i in range(len(queries))] + ["unknown"]  # one qrel topic without a topic
        for record in rng.sample(records, 60)
    }
    with open("qrels.txt", "w", encoding="utf-8") as fout:
        fout.writelines(line + "\n" for line in qrels_lines(judgments))
    _unicode_inputs()
    _bad_inputs()
    return queries


def _unicode_inputs():
    """Write the non-ASCII corpus u.jsonl, its topics and qrels, and a topics file with no topic."""
    save_corpus([DocumentRecord(doc_id=doc_id, title=title, body=body, authors=authors, journal_issn=issn)
                 for doc_id, title, body, authors, issn in _UNICODE_DOCS], "u.jsonl")
    # blank lines are skipped; ü2 judges a document that is not indexed, and qrel topic u9 has no topic
    Path("u.topics.tsv").write_text("u1\tångström ΑΒΓ\n\nü2\tМосква 東京\nu3\tstraße x²\n", encoding="utf-8")
    Path("u.qrels.txt").write_text("u1 0 u01 1\nu1 0 u03 2\nu1 0 u02 0\n\nü2 0 u06 1\nü2 0 u99 1\n"
                                   "u3 0 u07 1\nu9 0 u01 1\n", encoding="utf-8")
    Path("none.tsv").write_bytes(b"")


def _bad_inputs():
    """Write every input of the exit-1 cases, so that none of them is a file a command created."""
    for name, data in {**_BAD_CORPORA, **_BAD_TOPICS, **_BAD_QRELS}.items():
        Path(name).write_bytes(data)
    layout5 = index_zip({"format": np.frombuffer(b"lotkarank-index/5", dtype=np.uint8)})
    members = build_index([DocumentRecord(doc_id="d1", title="a")])._members()
    indexes = {
        "bad.text.idx": b"not an index\n",
        "bad.pickle.idx": pickle.dumps({"terms": []}, protocol=2),
        "bad.layout5.idx": layout5,
        "bad.truncated.idx": layout5[:layout5.rfind(b"PK\x01\x02")],  # cut where the directory starts
        "bad.npy2.idx": index_zip(members, version=(2, 0)),
        "bad.utf8.idx": index_zip({**members, "terms": np.frombuffer(b"\xff\n", dtype=np.uint8)}),
    }
    for name in _BAD_INDEXES:
        Path(name).write_bytes(indexes[name])
    # outputs that cannot be written: a directory, a FIFO, and a path in a missing directory
    os.mkdir("adir")
    os.mkfifo("fifo")
    # inputs named like a command's own output: analyze's <out>.csv and eval's <out>.report.csv
    Path("a.csv").write_bytes(b"not an index\n")
    Path("e.report.csv").write_bytes(b"t1\tquake\n")


def _commands(queries):
    yield ["index", "--corpus", "corpus.jsonl", "--out", "c.idx"]
    for i, query in enumerate(queries):
        on = ["--index", "c.idx", "--query", query]
        yield ["search", *on, "--top", "0"]
        yield ["search", *on, "--top", "10"]
        for mode in ("tfidf", "brad", "lotka"):
            yield ["rerank", *on, "--query-id", f"q{i}", "--mode", mode, "--out", f"q{i}.{mode}.run"]
        for field in _FIELDS:
            for k in ("-1", "0", "0.5", "2"):
                for missing in ("drop", "passthrough"):
                    yield ["rerank", *on, "--query-id", f"q{i}", "--mode", "combined", "--field", field,
                           "--k", k, "--missing", missing, "--out", f"q{i}.{field}.{k}.{missing}.run"]
            yield ["analyze", *on, "--field", field, "--out", f"q{i}.{field}"]  # exits 2 for "zzz"
    # search prints no query id, so --query-id, even one that is not one word, changes nothing
    yield ["search", "--index", "c.idx", "--query", "w001", "--query-id", "a b", "--top", "5"]
    for field in _FIELDS:
        yield ["eval", "--index", "c.idx", "--topics", "topics.tsv", "--qrels", "qrels.txt",
               "--modes", "tfidf,brad,lotka,combined", "--field", field, "--out", f"eval.{field}"]
    yield from _unicode_commands()
    yield from _refused_commands()


def _unicode_commands():
    yield ["index", "--corpus", "u.jsonl", "--out", "u.idx"]
    on = ["--index", "u.idx", "--query", _UNICODE_QUERY]
    yield ["search", *on, "--top", "0"]
    for mode in ("brad", "lotka"):
        yield ["rerank", *on, "--query-id", "ü", "--mode", mode, "--out", f"u.{mode}.run"]
    for field in _FIELDS:
        yield ["analyze", *on, "--field", field, "--out", f"u.{field}"]
    yield ["analyze", "--index", "u.idx", "--query", _FLAT_QUERY, "--field", "journal", "--out", "u.flat"]
    # (1/2)**-1100 overflows Python's pow, (1/2)**-1023 is finite but a tf-idf score times it
    # is not, and (1/2)**1100 underflows to 0
    for k in ("-1100", "-1023", "1100"):
        yield ["rerank", "--index", "u.idx", "--query", _COMBINED_QUERY, "--mode", "combined",
               "--field", "author", "--k", k, "--out", f"u.k{k}.run"]
    for topics, out in (("u.topics.tsv", "u.eval"), ("none.tsv", "none.eval")):  # with no topic, overlaps are 0
        yield ["eval", "--index", "u.idx", "--topics", topics, "--qrels", "u.qrels.txt",
               "--modes", "tfidf,brad,lotka,combined", "--field", "author", "--out", out]


def _refused_commands():
    for name in _BAD_CORPORA:
        yield ["index", "--corpus", name, "--out", "bad.idx"]
    for name in _BAD_TOPICS:
        yield ["eval", "--index", "c.idx", "--topics", name, "--qrels", "qrels.txt", "--out", "bad"]
    for name in _BAD_QRELS:
        yield ["eval", "--index", "c.idx", "--topics", "topics.tsv", "--qrels", name, "--out", "bad"]
    for name in _BAD_INDEXES:
        yield ["search", "--index", name, "--query", "w001"]
    # arguments
    on = ["--index", "c.idx", "--query", "w001"]
    yield ["search", *on, "--top", "-1"]
    for modes in ("tfidf,brad,tfidf", ",", "tfidf,bogus"):
        yield ["eval", "--index", "c.idx", "--topics", "topics.tsv", "--qrels", "qrels.txt",
               "--modes", modes, "--out", "bad"]
    yield ["rerank", *on, "--query-id", "q 1", "--mode", "brad", "--out", "bad.run"]
    yield ["rerank", *on, "--mode", "brad", "--field", "author", "--out", "bad.run"]
    yield ["rerank", *on, "--mode", "combined", "--out", "bad.run"]
    yield ["rerank", *on, "--mode", "combined", "--field", "author", "--k", "inf", "--out", "bad.run"]
    for out in ("c.idx", "adir", "fifo", "nodir/bad.run"):
        yield ["rerank", *on, "--mode", "brad", "--out", out]
    # an output that is one of the command's inputs
    yield ["index", "--corpus", "corpus.jsonl", "--out", "corpus.jsonl"]
    yield ["analyze", "--index", "a.csv", "--query", "w001", "--field", "journal", "--out", "a"]
    yield ["eval", "--index", "c.idx", "--topics", "e.report.csv", "--qrels", "qrels.txt", "--out", "e"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_results() -> dict:
    """Run the matrix in the empty working directory; each command line's exit code and digests."""
    results = {}
    for argv in _commands(_inputs()):
        before = set(os.listdir())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        results[" ".join(argv)] = {
            "exit": code,
            "stdout": _sha256(out.getvalue().encode("utf-8")),
            "stderr": _sha256(err.getvalue().encode("utf-8")),
            "files": {name: _sha256(Path(name).read_bytes()) for name in sorted(set(os.listdir()) - before)},
        }
    return results


def test_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    results = golden_results()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    moved = [command for command in golden.keys() | results.keys() if results.get(command) != golden.get(command)]
    assert sorted(moved) == []
    assert {entry["exit"] for entry in results.values()} == {0, 1, 2}


def test_unicode_corpus_words_tokenize_alike():
    # the tokens the non-ASCII digests rest on: a Python whose Unicode tables split or fold
    # these words otherwise fails here, before the digests
    assert tokenize(_UNICODE_TEXT) == [
        "ångström", "café", "naïve", "αβγ", "δέλτα", "ωμέγα", "москва", "данные", "東京", "数据", "ａｂｃ１２３",
        "٣٤٥", "۱۲۳", "snake", "case", "mixed", "i", "stanbul", "straße", "ǆemal", "ﬁne", "x²",
    ]
    words = set(_UNICODE_TEXT.split())
    for _, title, body, authors, _ in _UNICODE_DOCS:
        assert set(f"{title} {body} {' '.join(authors)}".split()) <= words


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        results = golden_results()
        os.chdir(home)
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(results)} commands, {sum(len(entry['files']) for entry in results.values())} files -> {GOLDEN}")
