import codecs
import errno
import io
import itertools
import math
import os
import pickle
import stat
import subprocess
import sys
import zipfile

import numpy as np
import pytest

from helpers import CreatesFileOnUnpickle, make_topic_suite, qrels_lines, save_corpus, topics_lines
from lotkarank import output
from lotkarank.cli import main
from lotkarank.corpus import DocumentRecord, load_corpus
from lotkarank.evaluation import load_qrels, load_topics


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _tiny_corpus(tmp_path):
    records = [
        DocumentRecord(doc_id="d1", title="quake risk", body="quake quake quake",
                       authors=["Ada"], journal_issn="1111-1111"),
        DocumentRecord(doc_id="d2", title="quake", body="quake quake", authors=["Ada"],
                       journal_issn="1111-1111"),
        DocumentRecord(doc_id="d3", title="quake", body="quake", authors=["Bob"],
                       journal_issn="2222-2222"),
        DocumentRecord(doc_id="d4", title="quake", body="", authors=[], journal_issn=None),
        DocumentRecord(doc_id="d5", title="flood", body="water", authors=["Cid"],
                       journal_issn="3333-3333"),
    ]
    path = tmp_path / "corpus.jsonl"
    save_corpus(records, path)
    return path


def test_index_command_prints_summary(tmp_path, capsys):
    corpus = _tiny_corpus(tmp_path)
    out = tmp_path / "c.idx"
    assert main(["index", "--corpus", str(corpus), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.startswith("docs=5 terms=")
    assert out.exists()


def test_index_command_missing_file(tmp_path, capsys):
    assert main(["index", "--corpus", str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


def test_index_command_duplicate_id(tmp_path, capsys):
    corpus = tmp_path / "dup.jsonl"
    _write(corpus, [
        '{"id": "d1", "title": "a", "body": "", "authors": []}',
        '{"id": "d1", "title": "b", "body": "", "authors": []}',
    ])
    assert main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "x")]) == 1
    assert "d1" in capsys.readouterr().err


def test_index_command_malformed_line(tmp_path, capsys):
    corpus = tmp_path / "bad.jsonl"
    _write(corpus, ['{"id": "d1", "title": "a", "body": "", "authors": []}', "{oops"])
    assert main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "x")]) == 1
    assert "line 2" in capsys.readouterr().err


def test_index_command_writes_exactly_out(tmp_path, capsys):
    corpus = _tiny_corpus(tmp_path)
    assert main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "x.idx")]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus.jsonl", "x.idx"]


def test_index_command_names_out_in_missing_directory(tmp_path, capsys):
    corpus = _tiny_corpus(tmp_path)
    out = tmp_path / "missing" / "x.idx"
    assert main(["index", "--corpus", str(corpus), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert list(tmp_path.iterdir()) == [corpus]


def test_index_command_rejects_whitespace_in_doc_id(tmp_path, capsys):
    corpus = tmp_path / "ws.jsonl"
    _write(corpus, [
        '{"id": "d1", "title": "a", "body": "", "authors": []}',
        '{"id": "a b", "title": "b", "body": "", "authors": []}',
    ])
    out = tmp_path / "x.idx"
    assert main(["index", "--corpus", str(corpus), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: doc_id 'a b' contains whitespace\n"
    assert list(tmp_path.iterdir()) == [corpus]


@pytest.mark.parametrize("fields,message", [
    ('"authors": [], "issn": 5', "doc_id 'd2': issn must be a string"),
    ('"authors": [], "publisher": {"name": "P"}', "doc_id 'd2': publisher must be a string"),
    ('"authors": [], "issn": "1234-\\ud800"',
     "doc_id 'd2': issn is not encodable as UTF-8 (surrogates not allowed)"),
    ('"authors": ["Ada", "\\udc00"]', "doc_id 'd2': author is not encodable as UTF-8 (surrogates not allowed)"),
])
def test_index_command_rejects_bad_field_with_line(tmp_path, capsys, fields, message):
    corpus = tmp_path / "bad.jsonl"
    _write(corpus, [
        '{"id": "d1", "title": "a", "body": "", "authors": []}',
        '{"id": "d2", "title": "b", "body": "", ' + fields + "}",
    ])
    out = tmp_path / "x.idx"
    assert main(["index", "--corpus", str(corpus), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 2: {message}\n"
    assert list(tmp_path.iterdir()) == [corpus]


@pytest.mark.parametrize("existing", [False, True])
def test_index_command_is_all_or_nothing(tmp_path, capsys, monkeypatch, existing):
    corpus = _tiny_corpus(tmp_path)
    out = tmp_path / "c.idx"
    if existing:
        out.write_bytes(b"an older index")
    before = sorted(tmp_path.iterdir())
    write_array = np.lib.format.write_array
    calls = []

    def fail_on_third_member(fp, array, **kwargs):
        calls.append(array)
        if len(calls) == 3:
            raise OSError("No space left on device")
        write_array(fp, array, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", fail_on_third_member)
    assert main(["index", "--corpus", str(corpus), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: No space left on device\n"
    assert len(calls) == 3
    assert sorted(tmp_path.iterdir()) == before  # no temp file left behind
    if existing:
        assert out.read_bytes() == b"an older index"
    else:
        assert not out.exists()


def _indexed_tiny(tmp_path):
    corpus = _tiny_corpus(tmp_path)
    idx = tmp_path / "c.idx"
    assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
    return idx


def test_search_command_prints_ranked_lines(tmp_path, capsys):
    idx = _indexed_tiny(tmp_path)
    capsys.readouterr()
    assert main(["search", "--index", str(idx), "--query", "quake"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # tf 4,3,2,1 -> d1,d2,d3,d4
    assert [line.split("\t")[1] for line in lines] == ["d1", "d2", "d3", "d4"]
    score = 4 * math.log(5 / 4)
    assert lines[0] == f"1\td1\t{score:.6f}"


def test_search_command_top_limits_output(tmp_path, capsys):
    idx = _indexed_tiny(tmp_path)
    capsys.readouterr()
    assert main(["search", "--index", str(idx), "--query", "quake", "--top", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_search_command_rejects_negative_top(tmp_path, capsys):
    idx = _indexed_tiny(tmp_path)
    capsys.readouterr()
    assert main(["search", "--index", str(idx), "--query", "quake", "--top", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --top must be >= 0, got -1\n"


def test_search_command_rejects_truncated_index(tmp_path, capsys):
    idx = _indexed_tiny(tmp_path)
    idx.write_bytes(idx.read_bytes()[:-40])
    capsys.readouterr()
    assert main(["search", "--index", str(idx), "--query", "quake"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {idx} is not a readable index (")
    assert lines[0].endswith("rebuild it with `lotkarank index`")


def _foreign_index(kind, marker):
    if kind == "pickle":
        return pickle.dumps(CreatesFileOnUnpickle(marker))
    if kind == "bytes":
        return bytes(range(256))
    buffer = io.BytesIO()
    if kind == "npy":
        np.save(buffer, np.arange(5))
    elif kind == "npz":
        np.savez(buffer, docs=np.arange(5))
    else:  # an object array is stored pickled inside the npy member
        np.savez(buffer, docs=np.array([CreatesFileOnUnpickle(marker)], dtype=object))
    return buffer.getvalue()


@pytest.mark.parametrize("kind", ["pickle", "npy", "npz", "object-npz", "bytes"])
def test_commands_reject_foreign_index(tmp_path, capsys, kind):
    idx = tmp_path / "foreign.idx"
    idx.write_bytes(_foreign_index(kind, str(tmp_path / "marker")))
    for argv in (
        ["search", "--query", "quake"],
        ["rerank", "--query", "quake", "--mode", "tfidf", "--out", str(tmp_path / "r.run")],
        ["analyze", "--query", "quake", "--field", "author", "--out", str(tmp_path / "a")],
    ):
        capsys.readouterr()
        assert main([argv[0], "--index", str(idx), *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {idx} ")
        assert lines[0].endswith("rebuild it with `lotkarank index`")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["foreign.idx"]  # no marker, no output


def test_commands_reject_a_duplicated_index_member(tmp_path, capsys):
    # a second tf_values member, every count 2, appended to a good index: loaded, it would
    # win and give other scores without a word
    idx = _indexed_tiny(tmp_path)
    with zipfile.ZipFile(idx) as archive:
        tf_values = np.load(io.BytesIO(archive.read("tf_values.npy")))
    assert tf_values.tolist() == [4, 3, 2]  # quake in d1, d2 and d3
    buffer = io.BytesIO()
    np.save(buffer, np.full_like(tf_values, 2))
    with pytest.warns(UserWarning, match="Duplicate name"), zipfile.ZipFile(idx, "a") as archive:
        archive.writestr("tf_values.npy", buffer.getvalue())
    for argv in (
        ["search", "--query", "quake", "--top", "2"],
        ["rerank", "--query", "quake", "--mode", "tfidf", "--out", str(tmp_path / "r.run")],
        ["analyze", "--query", "quake", "--field", "author", "--out", str(tmp_path / "a")],
    ):
        capsys.readouterr()
        assert main([argv[0], "--index", str(idx), *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {idx} is not a valid index: duplicate member tf_values; "
                                "rebuild it with `lotkarank index`\n")
    assert not (tmp_path / "r.run").exists()


def test_rerank_command_writes_run_file(tmp_path, capsys):
    idx = _indexed_tiny(tmp_path)
    out = tmp_path / "brad.run"
    capsys.readouterr()
    assert main([
        "rerank", "--index", str(idx), "--query", "quake", "--query-id", "q7",
        "--mode", "brad", "--out", str(out),
    ]) == 0
    assert capsys.readouterr().out.strip() == "retained=3 dropped=1"
    lines = out.read_text(encoding="utf-8").splitlines()
    # journal 1111-1111 holds two retrieved docs, 2222-2222 one, d4 has none
    assert lines[0].startswith("q7 Q0 d1 1 2.000000 brad")
    assert lines[1].startswith("q7 Q0 d2 2 2.000000 brad")
    assert lines[2].startswith("q7 Q0 d3 3 1.000000 brad")


def test_rerank_command_combined_needs_field(tmp_path, capsys):
    idx = _indexed_tiny(tmp_path)
    capsys.readouterr()
    assert main([
        "rerank", "--index", str(idx), "--query", "quake", "--mode", "combined",
        "--out", str(tmp_path / "x.run"),
    ]) == 1
    assert "field" in capsys.readouterr().err


def test_rerank_command_rejects_whitespace_in_query_id(tmp_path, capsys):
    idx = _indexed_tiny(tmp_path)
    out = tmp_path / "q.run"
    for query_id in ("my q", "", "q\t1"):
        capsys.readouterr()
        assert main([
            "rerank", "--index", str(idx), "--query", "quake", "--query-id", query_id,
            "--mode", "tfidf", "--out", str(out),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --query-id must be one word without whitespace, got {query_id!r}\n"
        )
        assert not out.exists()


def _eval_fixture(tmp_path):
    idx = _indexed_tiny(tmp_path)
    topics = tmp_path / "topics.tsv"
    _write(topics, ["t1\tquake"])
    qrels = tmp_path / "qrels.txt"
    _write(qrels, ["t1 0 d1 1", "t1 0 d2 0", "t1 0 d3 1"])
    return idx, topics, qrels


def test_eval_command_writes_reports_and_runs(tmp_path, capsys):
    idx, topics, qrels = _eval_fixture(tmp_path)
    prefix = tmp_path / "exp"
    assert main([
        "eval", "--index", str(idx), "--topics", str(topics), "--qrels", str(qrels),
        "--modes", "tfidf,brad,lotka", "--out", str(prefix),
    ]) == 0
    for suffix in ("report.csv", "report.txt", "tfidf.run", "brad.run", "lotka.run"):
        assert (tmp_path / f"exp.{suffix}").exists()
    csv_lines = (tmp_path / "exp.report.csv").read_text(encoding="utf-8").splitlines()
    # tfidf: retrieved d1..d4, relevant d1 (rank 1) and d3 (rank 3)
    assert csv_lines[1] == "t1,tfidf,4,2,0,0.400000,0.200000,0.100000,0.066667,0.020000"
    # one topic: each run's ALL row is its topic row
    assert csv_lines[4:] == ["ALL" + line[2:] for line in csv_lines[1:4]]


def test_eval_command_is_deterministic_across_processes(tmp_path):
    idx, topics, qrels = _eval_fixture(tmp_path)
    argv = ["eval", "--index", str(idx), "--topics", str(topics), "--qrels", str(qrels),
            "--modes", "tfidf,brad,lotka"]
    assert main(argv + ["--out", str(tmp_path / "one")]) == 0
    # a fresh interpreter with a different hash seed indexes the corpus again and evaluates
    env = dict(os.environ, PYTHONHASHSEED="12345")
    for args in (["index", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(tmp_path / "two.idx")],
                 argv + ["--out", str(tmp_path / "two")]):
        subprocess.run([sys.executable, "-m", "lotkarank.cli"] + args, check=True, env=env, capture_output=True)
    assert (tmp_path / "two.idx").read_bytes() == idx.read_bytes()
    for suffix in ("report.csv", "report.txt", "tfidf.run", "brad.run", "lotka.run"):
        assert (tmp_path / f"one.{suffix}").read_bytes() == (tmp_path / f"two.{suffix}").read_bytes()


def _run_fresh(*args):
    """Run python with args in a new interpreter that imports the lotkarank these tests import."""
    package_dir = os.path.dirname(os.path.dirname(output.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_dir, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, encoding="utf-8", timeout=60)


def _fresh_python(code, *args):
    """Run code in a new interpreter (see _run_fresh); returns its stdout."""
    done = _run_fresh("-c", code, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout


# runs one command, then prints which of json, csv and lotkarank.evaluation the interpreter has loaded
_LOADED_AFTER = """
import sys
from lotkarank.cli import main
code = main(sys.argv[1:])
print(" ".join(name for name in ("json", "csv", "lotkarank.evaluation") if name in sys.modules))
sys.exit(code)
"""


def test_each_command_imports_only_what_it_runs(tmp_path):
    idx, topics, qrels = _eval_fixture(tmp_path)
    commands = {
        "index": ["--corpus", tmp_path / "corpus.jsonl", "--out", tmp_path / "again.idx"],
        "search": ["--index", idx, "--query", "quake"],
        "rerank": ["--index", idx, "--query", "quake", "--mode", "combined", "--field", "author",
                   "--out", tmp_path / "r.run"],
        "analyze": ["--index", idx, "--query", "quake", "--field", "author", "--out", tmp_path / "a"],
        "eval": ["--index", idx, "--topics", topics, "--qrels", qrels, "--modes", "tfidf,brad,lotka,combined",
                 "--field", "journal", "--out", tmp_path / "exp"],
    }
    loaded = {name: set(_fresh_python(_LOADED_AFTER, name, *args).splitlines()[-1].split())
              for name, args in commands.items()}
    assert loaded == {
        "index": {"json"},
        "search": set(),
        "rerank": set(),
        "analyze": {"csv"},
        "eval": {"csv", "lotkarank.evaluation"},
    }


# checks the package's public names after importing sys.argv[1] first
_PUBLIC_NAMES = """
import importlib, sys, types
importlib.import_module(sys.argv[1])
import lotkarank
DEFINED_IN = {
    "corpus": ["CorpusError", "DocumentRecord", "EntityField", "load_corpus", "parse_corpus", "tokenize"],
    "index": ["InvertedIndex", "ResultSet", "build_index", "search"],
    "informetrics": ["EntityFrequencyTable", "PowerLawFit", "entity_frequencies", "fit_power_law",
                     "rank_frequency_series"],
    "rerank": ["MissingPolicy", "Mode", "RankingConfig", "rerank"],
}
names = [name for module in DEFINED_IN.values() for name in module]
assert ("lotkarank.evaluation" in sys.modules) == (sys.argv[1] == "lotkarank.evaluation")
assert sorted(lotkarank.__all__) == sorted(names)
assert set(dir(lotkarank)) >= set(names)
for module, module_names in DEFINED_IN.items():
    defining = importlib.import_module(f"lotkarank.{module}")
    for name in module_names:
        assert getattr(lotkarank, name) is getattr(defining, name), name
assert not isinstance(lotkarank.rerank, types.ModuleType)
assert lotkarank.rerank is sys.modules["lotkarank.rerank"].rerank
star = {}
exec("from lotkarank import *", star)
assert all(star[name] is getattr(lotkarank, name) for name in names)
try:
    lotkarank.nope
except AttributeError as exc:
    assert "'nope'" in str(exc), exc
else:
    raise AssertionError("lotkarank.nope resolved")
print("ok")
"""


@pytest.mark.parametrize("first", ["lotkarank", "lotkarank.cli", "lotkarank.evaluation", "lotkarank.rerank"])
def test_public_names_are_the_defining_modules_objects(first):
    assert _fresh_python(_PUBLIC_NAMES, first) == "ok\n"


@pytest.mark.parametrize("command, code", [
    (["search", "--query", "quake"], 0),
    (["search", "--query", "quake", "--top", "-1"], 1),
    (["analyze", "--query", "nomatch", "--field", "journal", "--out", "n"], 2),
], ids=["search", "refused", "too-few-entities"])
def test_module_run_exits_with_mains_code(tmp_path, capsys, monkeypatch, command, code):
    # python -m lotkarank.cli, as the benchmark runs each command, exits with what main returns
    monkeypatch.chdir(tmp_path)
    argv = [command[0], "--index", str(_indexed_tiny(tmp_path)), *command[1:]]
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    done = _run_fresh("-m", "lotkarank.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)


def test_eval_command_combined_k0_matches_tfidf_on_field_bearing_docs(tmp_path):
    suite = make_topic_suite(n_topics=3, docs_per_topic=20, star_docs=8,
                             missing_authors_per_topic=4, seed=44)
    corpus = tmp_path / "suite.jsonl"
    save_corpus(suite.records, corpus)
    idx = tmp_path / "suite.idx"
    assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
    topics = tmp_path / "topics.tsv"
    _write(topics, topics_lines(suite.topics))
    qrels = tmp_path / "qrels.txt"
    _write(qrels, qrels_lines(suite.judgments))
    prefix = tmp_path / "k0"
    assert main([
        "eval", "--index", str(idx), "--topics", str(topics), "--qrels", str(qrels),
        "--modes", "tfidf,combined", "--field", "author", "--k", "0", "--out", str(prefix),
    ]) == 0

    def run_docs(path):
        by_topic = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            topic_id, _, doc_id, _, _, _ = line.split()
            by_topic.setdefault(topic_id, []).append(doc_id)
        return by_topic

    tfidf_run = run_docs(tmp_path / "k0.tfidf.run")
    combined_run = run_docs(tmp_path / "k0.combined_k0.0.run")
    by_id = {rec.doc_id: rec for rec in suite.records}
    for topic_id, doc_ids in tfidf_run.items():
        restricted = [d for d in doc_ids if by_id[d].authors]
        assert combined_run.get(topic_id, []) == restricted


def test_eval_command_field_applies_to_combined_only(tmp_path):
    # --field journal must not leak into the lotka config (which implies author)
    idx, topics, qrels = _eval_fixture(tmp_path)
    prefix = tmp_path / "mixed"
    assert main([
        "eval", "--index", str(idx), "--topics", str(topics), "--qrels", str(qrels),
        "--modes", "lotka,combined", "--field", "journal", "--out", str(prefix),
    ]) == 0
    assert (tmp_path / "mixed.lotka.run").exists()
    assert (tmp_path / "mixed.combined_k1.0.run").exists()


def test_eval_command_rejects_unknown_mode(tmp_path, capsys):
    idx, topics, qrels = _eval_fixture(tmp_path)
    assert main([
        "eval", "--index", str(idx), "--topics", str(topics), "--qrels", str(qrels),
        "--modes", "tfidf,bm25", "--out", str(tmp_path / "x"),
    ]) == 1
    assert "bm25" in capsys.readouterr().err


def test_eval_command_rejects_repeated_mode(tmp_path, capsys):
    idx, topics, qrels = _eval_fixture(tmp_path)
    assert main([
        "eval", "--index", str(idx), "--topics", str(topics), "--qrels", str(qrels),
        "--modes", "tfidf,lotka, tfidf", "--out", str(tmp_path / "dup"),
    ]) == 1
    assert capsys.readouterr().err == "error: mode 'tfidf' is repeated in --modes\n"
    assert not list(tmp_path.glob("dup.*"))


def test_eval_command_rejects_whitespace_in_topic_id(tmp_path, capsys):
    idx, _, qrels = _eval_fixture(tmp_path)
    topics = tmp_path / "spaced.tsv"
    _write(topics, ["t 1\tquake"])
    assert main([
        "eval", "--index", str(idx), "--topics", str(topics), "--qrels", str(qrels),
        "--modes", "tfidf", "--out", str(tmp_path / "aborted"),
    ]) == 1
    assert capsys.readouterr().err == "error: topics line 1: topic_id 't 1' contains whitespace\n"
    assert not list(tmp_path.glob("aborted.*"))


def test_eval_command_rejects_a_topic_named_all(tmp_path, capsys):
    # its rows could not be told from the report's summary rows
    idx, _, qrels = _eval_fixture(tmp_path)
    topics = tmp_path / "all.tsv"
    _write(topics, ["t1\tquake", "ALL\tflood"])
    capsys.readouterr()
    assert main([
        "eval", "--index", str(idx), "--topics", str(topics), "--qrels", str(qrels),
        "--modes", "tfidf", "--out", str(tmp_path / "aborted"),
    ]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: topic_id 'ALL' names the report's summary rows\n")
    assert not list(tmp_path.glob("aborted.*"))


def test_eval_command_aborts_before_writing_on_bad_input(tmp_path, capsys):
    idx, topics, _ = _eval_fixture(tmp_path)
    bad_qrels = tmp_path / "bad_qrels.txt"
    _write(bad_qrels, ["t1 0 d1"])
    prefix = tmp_path / "aborted"
    assert main([
        "eval", "--index", str(idx), "--topics", str(topics), "--qrels", str(bad_qrels),
        "--modes", "tfidf", "--out", str(prefix),
    ]) == 1
    assert not list(tmp_path.glob("aborted.*"))


@pytest.mark.parametrize("grade", ["1_0", "٣"])
def test_eval_command_rejects_a_grade_int_would_read(tmp_path, capsys, grade):
    # int() reads these as 10 and 3
    idx, topics, _ = _eval_fixture(tmp_path)
    qrels = tmp_path / "odd_qrels.txt"
    _write(qrels, ["t1 0 d1 1", f"t1 0 d2 {grade}"])
    assert main([
        "eval", "--index", str(idx), "--topics", str(topics), "--qrels", str(qrels),
        "--modes", "tfidf", "--out", str(tmp_path / "aborted"),
    ]) == 1
    assert capsys.readouterr().err == f"error: qrels line 2: grade {grade!r} is not an integer\n"
    assert not list(tmp_path.glob("aborted.*"))


def _writing_command(tmp_path, command, out_dir):
    """The argv of a command that writes files into out_dir, and those files in write order."""
    idx, topics, qrels = _eval_fixture(tmp_path)
    if command == "index":
        out = out_dir / "new.idx"
        return ["index", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(out)], [out]
    if command == "rerank":
        out = out_dir / "q.run"
        return ["rerank", "--index", str(idx), "--query", "quake", "--mode", "brad", "--out", str(out)], [out]
    if command == "eval":
        return (["eval", "--index", str(idx), "--topics", str(topics), "--qrels", str(qrels),
                 "--modes", "tfidf,brad", "--out", str(out_dir / "exp")],
                [out_dir / f"exp.{suffix}" for suffix in ("report.csv", "report.txt", "tfidf.run", "brad.run")])
    return (["analyze", "--index", str(idx), "--query", "quake", "--field", "journal", "--out", str(out_dir / "s")],
            [out_dir / "s.csv", out_dir / "s.loglog.csv"])


# how many files each write_files call of a command commits, in write order: eval
# commits its two reports together, then each run file on its own
_COMMIT_SIZES = {"rerank": [1], "eval": [2, 1, 1], "analyze": [2]}


def _contents(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


class _FullDisk:
    """A file that takes the first few bytes of a write, then runs out of space."""

    def __init__(self, raw):
        self.raw = raw

    def write(self, data):
        self.raw.write(data[:5])
        raise OSError("No space left on device")

    def __getattr__(self, name):
        return getattr(self.raw, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.raw.close()


def _fail_replace(src, dst):
    raise OSError(errno.ENOSPC, "No space left on device", src, dst)  # as os.replace raises it


@pytest.mark.parametrize("fault", ["write", "replace"])
@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("command", ["rerank", "eval", "analyze"])
def test_output_files_are_all_or_nothing(tmp_path, capsys, monkeypatch, command, existing, fault):
    argv, outputs = _writing_command(tmp_path, command, tmp_path)
    assert main(argv) == 0
    fresh = [path.read_bytes() for path in outputs]
    for path in outputs:
        if existing:
            path.write_bytes(b"an older output\n")
        else:
            path.unlink()
    before = _contents(tmp_path)
    real_replace = os.replace
    ends = list(itertools.accumulate(_COMMIT_SIZES[command]))
    for k in range(1, len(outputs) + 1):  # fail the k-th temporary-file write, or the k-th rename
        calls = itertools.count(1)
        if fault == "write":
            monkeypatch.setattr(output, "open", lambda path, mode: _FullDisk(open(path, mode))
                                if next(calls) == k else open(path, mode), raising=False)
        else:
            monkeypatch.setattr(os, "replace", lambda src, dst: (_fail_replace if next(calls) == k
                                                                 else real_replace)(src, dst))
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        if fault == "write":
            assert captured.err == "error: No space left on device\n"
        else:  # names the output, not the temporary file
            assert captured.err == f"error: [Errno {errno.ENOSPC}] No space left on device: '{outputs[k - 1]}'\n"
        # the files of earlier write_files calls are committed; a failed write commits none of its
        # own call, a failed rename those before it. No temporary file is left, older ones unchanged
        committed = max([end for end in ends if end < k], default=0) if fault == "write" else k - 1
        assert _contents(tmp_path) == {**before, **{path.name: data for path, data in zip(outputs[:committed], fresh)}}
        for path in outputs[:committed]:
            path.unlink()
        for name, data in before.items():
            (tmp_path / name).write_bytes(data)


@pytest.mark.parametrize("command", ["index", "rerank", "eval", "analyze"])
def test_output_onto_a_fifo_is_refused(tmp_path, capsys, command):
    argv, outputs = _writing_command(tmp_path, command, tmp_path)
    fifo = outputs[:2][-1]  # the last file of the first write_files call
    os.mkfifo(fifo)
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {fifo} exists and is not a regular file\n")
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(tmp_path.iterdir()) == before


# (command, which of its outputs names an input, that input's option)
_INPUT_AS_OUTPUT = [
    ("index", 0, "--corpus"),
    ("rerank", 0, "--index"),
    ("analyze", 0, "--index"), ("analyze", 1, "--index"),
    ("eval", 0, "--index"), ("eval", 1, "--topics"), ("eval", 2, "--qrels"), ("eval", 3, "--index"),
]


@pytest.mark.parametrize("link", ["same path", "symlink", "hard link"])
@pytest.mark.parametrize("command, k, option", _INPUT_AS_OUTPUT)
def test_output_onto_an_input_is_refused(tmp_path, capsys, command, k, option, link):
    argv, outputs = _writing_command(tmp_path, command, tmp_path)
    at = argv.index(option) + 1
    if link == "same path":  # the input moves to the output's path
        os.replace(argv[at], outputs[k])
        argv[at] = str(outputs[k])
    else:
        (os.symlink if link == "symlink" else os.link)(argv[at], outputs[k])
    before = _contents(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {outputs[k]} is the {option} file; choose another output path\n")
    assert _contents(tmp_path) == before
    assert os.path.islink(outputs[k]) == (link == "symlink")


@pytest.mark.parametrize("command", ["rerank", "eval", "analyze"])
def test_output_in_missing_directory_names_the_path(tmp_path, capsys, command):
    argv, outputs = _writing_command(tmp_path, command, tmp_path / "missing")
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{outputs[0]}'\n"


@pytest.mark.parametrize("command", ["index", "rerank", "eval", "analyze"])
def test_output_onto_a_directory_names_the_path(tmp_path, capsys, command):
    argv, outputs = _writing_command(tmp_path, command, tmp_path)
    outputs[0].mkdir()
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: [Errno {errno.EISDIR}] Is a directory: '{outputs[0]}'\n"
    assert not list(tmp_path.glob("*.tmp"))


def _overflow_fixture(tmp_path):
    """An index where "quake" retrieves d1 (tf-idf 20 ln 1.5) and d2, each by its own author."""
    records = [
        DocumentRecord(doc_id="d1", title="quake", body=" ".join(["quake"] * 19), authors=["Ada"]),
        DocumentRecord(doc_id="d2", title="quake", authors=["Bob"]),
        DocumentRecord(doc_id="d3", title="flood", authors=["Cid"]),
    ]
    save_corpus(records, tmp_path / "corpus.jsonl")
    idx = tmp_path / "c.idx"
    assert main(["index", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(idx)]) == 0
    _write(tmp_path / "topics.tsv", ["t1\tquake"])
    _write(tmp_path / "qrels.txt", ["t1 0 d1 1"])
    return idx


# ef 1 of N 2: the factor 2 ** -k is past float range at k = -1100; at k = -1022 it is
# not, but d1's score (20 ln 1.5 times it) is. At k = 1100 the factor rounds to 0; at
# k = 1074 it is the smallest float, but d2's score (ln 1.5 times it) rounds to 0
@pytest.mark.parametrize("k", ["-1100", "-1022", "1100", "1074"])
@pytest.mark.parametrize("command", ["rerank", "eval"])
def test_combined_overflow_is_one_error_naming_k(tmp_path, capsys, command, k):
    idx = _overflow_fixture(tmp_path)
    assert math.isinf(20 * math.log(1.5) * 2.0 ** 1022)
    assert 2.0 ** -1074 > 0.0 and math.log(1.5) * 2.0 ** -1074 == 0.0
    out = tmp_path / "out"
    argv = {
        "rerank": ["rerank", "--index", str(idx), "--query", "quake", "--out", str(out)],
        "eval": ["eval", "--index", str(idx), "--topics", str(tmp_path / "topics.tsv"),
                 "--qrels", str(tmp_path / "qrels.txt"), "--out", str(out)],
    }[command]
    mode = ["--mode", "combined"] if command == "rerank" else ["--modes", "tfidf,combined"]
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv + mode + ["--field", "author", f"--k={k}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    what = "overflow" if float(k) < 0 else "underflow to 0"
    assert captured.err == f"error: k={float(k)} makes a combined score {what}; use a k of smaller magnitude\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("bad", ["corpus", "topics", "qrels"])
def test_input_that_is_not_utf8_is_named(tmp_path, capsys, bad):
    idx = _overflow_fixture(tmp_path)
    path = tmp_path / f"{bad}.bad"
    good = {"corpus": tmp_path / "corpus.jsonl", "topics": tmp_path / "topics.tsv", "qrels": tmp_path / "qrels.txt"}
    # 0xff is never part of UTF-8; blank lines put it past the decoder's first chunk
    path.write_bytes(good[bad].read_bytes() + b"\n" * 9000 + b"\xff\n")
    good[bad] = path
    if bad == "corpus":
        argv = ["index", "--corpus", str(path), "--out", str(tmp_path / "new.idx")]
    else:
        argv = ["eval", "--index", str(idx), "--topics", str(good["topics"]), "--qrels", str(good["qrels"]),
                "--modes", "tfidf", "--out", str(tmp_path / "exp")]
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} is not UTF-8 text (invalid start byte)\n"
    assert sorted(tmp_path.iterdir()) == before


def test_byte_order_mark_is_skipped(tmp_path):
    # some editors start a UTF-8 file with a byte order mark (EF BB BF); it is no part of the first line
    corpus = _tiny_corpus(tmp_path)
    _write(tmp_path / "topics.tsv", ["t1\tquake", "t2\tflood"])
    _write(tmp_path / "qrels.txt", ["t1 0 d1 1", "t2 0 d5 1"])
    results = []
    for directory, prefix in ((tmp_path / "plain", b""), (tmp_path / "marked", codecs.BOM_UTF8)):
        directory.mkdir()
        for path in (corpus, tmp_path / "topics.tsv", tmp_path / "qrels.txt"):
            (directory / path.name).write_bytes(prefix + path.read_bytes())
        corpus_path, topics, qrels, idx = (
            directory / name for name in ("corpus.jsonl", "topics.tsv", "qrels.txt", "c.idx"))
        assert main(["index", "--corpus", str(corpus_path), "--out", str(idx)]) == 0
        assert main(["eval", "--index", str(idx), "--topics", str(topics), "--qrels", str(qrels),
                     "--modes", "tfidf,brad,lotka,combined", "--field", "author", "--out", str(directory / "exp")]) == 0
        outputs = {path.name: path.read_bytes() for path in directory.iterdir() if path.name.startswith(("exp.", "c."))}
        results.append((load_corpus(corpus_path), load_topics(topics), load_qrels(qrels), outputs))
    plain, marked = results
    assert [rec.doc_id for rec in plain[0]] == ["d1", "d2", "d3", "d4", "d5"]
    assert plain[1] == {"t1": "quake", "t2": "flood"}
    assert plain[2] == {("t1", "d1"): 1, ("t2", "d5"): 1}
    assert sorted(plain[3]) == ["c.idx", "exp.brad.run", "exp.combined_k1.0.run", "exp.lotka.run",
                                "exp.report.csv", "exp.report.txt", "exp.tfidf.run"]
    assert marked == plain


def _power_law_author_corpus(tmp_path):
    # author doc-counts 36, 9, 4 are exactly 36 * x**-2 at ranks 1, 2, 3
    records = []
    n = 0
    for author, count in (("alpha author", 36), ("beta author", 9), ("gamma author", 4)):
        for _ in range(count):
            records.append(DocumentRecord(doc_id=f"d{n:03d}", title="study", authors=[author]))
            n += 1
    for _ in range(6):  # keep idf of "study" positive
        records.append(DocumentRecord(doc_id=f"d{n:03d}", title="other topic"))
        n += 1
    path = tmp_path / "authors.jsonl"
    save_corpus(records, path)
    return path


def test_analyze_command_exact_power_law(tmp_path, capsys):
    corpus = _power_law_author_corpus(tmp_path)
    idx = tmp_path / "a.idx"
    assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
    capsys.readouterr()
    prefix = tmp_path / "series"
    assert main([
        "analyze", "--index", str(idx), "--query", "study", "--field", "author",
        "--out", str(prefix),
    ]) == 0
    assert capsys.readouterr().out.strip() == "alpha=2.0000 c=36.0000 r2=1.0000"
    lines = (tmp_path / "series.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "rank,frequency,entity"
    assert lines[1] == "1,36,alpha author"
    assert (tmp_path / "series.loglog.csv").exists()


def test_analyze_command_recovers_planted_exponent_with_rounding(tmp_path, capsys):
    # counts round(100 * x**-1.5): the fit should land near 1.5 and match
    # an independent least-squares computation to 4 decimals
    counts = [round(100 * x**-1.5) for x in range(1, 9)]
    records = []
    n = 0
    for rank, count in enumerate(counts):
        for _ in range(count):
            records.append(DocumentRecord(doc_id=f"d{n:03d}", title="study", authors=[f"author {rank}"]))
            n += 1
    for _ in range(9):
        records.append(DocumentRecord(doc_id=f"d{n:03d}", title="padding"))
        n += 1
    corpus = tmp_path / "rounded.jsonl"
    save_corpus(records, corpus)
    idx = tmp_path / "r.idx"
    assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
    capsys.readouterr()
    assert main([
        "analyze", "--index", str(idx), "--query", "study", "--field", "author",
        "--out", str(tmp_path / "r"),
    ]) == 0
    printed = capsys.readouterr().out.strip()

    ranks = np.arange(1, len(counts) + 1, dtype=float)
    slope, intercept = np.polyfit(np.log(ranks), np.log(sorted(counts, reverse=True)), 1)
    expected = f"alpha={-slope:.4f} c={math.exp(intercept):.4f}"
    assert printed.startswith(expected)
    alpha = float(printed.split()[0].split("=")[1])
    assert abs(alpha - 1.5) < 0.1


def test_analyze_command_needs_two_entities(tmp_path, capsys):
    records = [
        DocumentRecord(doc_id="d1", title="study", authors=["only author"]),
        DocumentRecord(doc_id="d2", title="study", authors=["only author"]),
        DocumentRecord(doc_id="d3", title="padding"),
    ]
    corpus = tmp_path / "single.jsonl"
    save_corpus(records, corpus)
    idx = tmp_path / "s.idx"
    assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
    capsys.readouterr()
    code = main([
        "analyze", "--index", str(idx), "--query", "study", "--field", "author",
        "--out", str(tmp_path / "s"),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: result set has 1 distinct entities, need at least 2\n"
    assert "alpha=" not in captured.out
    assert not list(tmp_path.glob("*.csv"))


def test_analyze_command_flat_series(tmp_path, capsys):
    # every author occurs once: the flat case of the law, alpha 0 with a perfect fit
    records = [DocumentRecord(doc_id=f"d{i}", title="study", authors=[f"author {i}"]) for i in range(5)]
    records.append(DocumentRecord(doc_id="d9", title="padding"))
    corpus = tmp_path / "flat.jsonl"
    save_corpus(records, corpus)
    idx = tmp_path / "f.idx"
    assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
    capsys.readouterr()
    assert main([
        "analyze", "--index", str(idx), "--query", "study", "--field", "author",
        "--out", str(tmp_path / "f"),
    ]) == 0
    assert capsys.readouterr().out.strip() == "alpha=0.0000 c=1.0000 r2=1.0000"
    assert (tmp_path / "f.csv").read_text(encoding="utf-8").splitlines()[1:] == [
        f"{rank},1,author {rank - 1}" for rank in range(1, 6)
    ]


def test_analyze_command_empty_result_set(tmp_path, capsys):
    idx = _indexed_tiny(tmp_path)
    capsys.readouterr()
    code = main([
        "analyze", "--index", str(idx), "--query", "nomatch", "--field", "journal",
        "--out", str(tmp_path / "n"),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: result set has 0 distinct entities, need at least 2\n"
    assert "alpha=" not in captured.out
    assert not list(tmp_path.glob("*.csv"))
