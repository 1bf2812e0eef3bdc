"""Golden outputs: a fixed matrix of CLI commands gives the same bytes as when golden.json was made.

Every command runs through ``cli.main`` in process, with relative paths
in one working directory, on a 2,000-doc power-law corpus. For each
command, golden.json holds the exit code and the SHA-256 of its stdout,
its stderr and every file it created, keyed by the command line. The
oracle tests say the outputs are right; this test says they did not move.

After a change that moves an output on purpose, regenerate the file from
the repository root with ``PYTHONPATH=src python tests/test_golden.py``
and commit it with the change.
"""
import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

from helpers import make_power_law_corpus, qrels_lines, save_corpus
from lotkarank.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden.json")
_FIELDS = ("journal", "author")


def _inputs():
    """Write corpus.jsonl, topics.tsv and qrels.txt into the working directory; return the queries."""
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
    return queries


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
    for field in _FIELDS:
        yield ["eval", "--index", "c.idx", "--topics", "topics.tsv", "--qrels", "qrels.txt",
               "--modes", "tfidf,brad,lotka,combined", "--field", field, "--out", f"eval.{field}"]


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
    assert {entry["exit"] for entry in results.values()} == {0, 2}


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        results = golden_results()
        os.chdir(home)
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(results)} commands, {sum(len(entry['files']) for entry in results.values())} files -> {GOLDEN}")
