"""Property-based test of the command line on arbitrary input files.

`index` and then `eval` run in process over corpus, topics and qrels
files of any bytes, invalid UTF-8 included, mixed with lines that parse
and sometimes led by a byte order mark.
Each command exits 0 or 1; on 1 it prints nothing on stdout, one
`error:` line on stderr and leaves no output file behind. An index
with one byte of a member's `.npy` header changed makes every command
that reads it exit 1 in the same way.
"""
import codecs
import contextlib
import io
import json
import os
import struct
import tempfile
import zipfile

from hypothesis import given, settings
from hypothesis import strategies as st

from lotkarank.cli import main

_BYTES = st.binary(max_size=12)  # mostly not UTF-8
_NEWLINE = st.sampled_from([b"\n", b"\r\n", b"\r"])
_WORDS = st.lists(st.sampled_from(["quake", "flood", "risk", "Ünï", "w1"]), max_size=4).map(" ".join)
_DOC_ID = st.sampled_from(["d1", "d2", "d3", "d4", "d5", "d 6", ""])
_TOPIC_ID = st.sampled_from(["t1", "t2", "t3", "t 4", ""])
_RECORD = st.fixed_dictionaries(
    {"id": _DOC_ID, "title": _WORDS, "body": _WORDS,
     "authors": st.lists(st.sampled_from(["Ada", "Bob", "Cid"]), max_size=2, unique=True)},
    optional={"issn": st.sampled_from(["1111-1111", "2222-2222"])},
)
_CORPUS_LINE = _RECORD.map(lambda record: json.dumps(record, ensure_ascii=False).encode("utf-8"))
_TOPIC_LINE = st.tuples(_TOPIC_ID, _WORDS).map(lambda t: f"{t[0]}\t{t[1]}".encode("utf-8"))
_QREL_LINE = st.tuples(_TOPIC_ID, _DOC_ID, st.sampled_from(["0", "1", "2", "-1", "x"])).map(
    lambda q: f"{q[0]} 0 {q[1]} {q[2]}".encode("utf-8"))


@st.composite
def _file(draw, line):
    """Lines that may parse, joined by one kind of newline; half the time any bytes go in somewhere.

    A UTF-8 byte order mark may start the file.
    """
    lines = draw(st.lists(line, max_size=5))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_BYTES))
    return draw(st.sampled_from([b"", codecs.BOM_UTF8])) + draw(_NEWLINE).join(lines)


def _run(argv, directory):
    """main(argv) in process: (exit code, stdout, stderr, files in directory afterwards)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), sorted(os.listdir(directory))


def _check(code, out, err):
    assert code in (0, 1)
    assert err == "" or (err.startswith("error:") and err.endswith("\n") and err.count("\n") == 1)
    if code == 1:
        assert out == "" and err != ""


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_file(_CORPUS_LINE), _file(_TOPIC_LINE), _file(_QREL_LINE),
       st.sampled_from(["journal", "author"]), st.sampled_from(["1", "-0.5", "0", "-1100"]))
def test_index_then_eval_exit_0_or_one_error_line(corpus, topics, qrels, field, k):
    with tempfile.TemporaryDirectory() as inputs, tempfile.TemporaryDirectory() as outputs:
        paths = {}
        for name, content in (("corpus", corpus), ("topics", topics), ("qrels", qrels)):
            paths[name] = os.path.join(inputs, name)
            with open(paths[name], "wb") as fout:
                fout.write(content)
        index = os.path.join(outputs, "c.idx")
        code, out, err, files = _run(["index", "--corpus", paths["corpus"], "--out", index], outputs)
        _check(code, out, err)
        assert files == (["c.idx"] if code == 0 else [])
        if code == 1:
            return
        code, out, err, files = _run(
            ["eval", "--index", index, "--topics", paths["topics"], "--qrels", paths["qrels"],
             "--modes", "tfidf,brad,lotka,combined", "--field", field, f"--k={k}",
             "--out", os.path.join(outputs, "exp")], outputs)
        _check(code, out, err)
        if code == 1:
            assert files == ["c.idx"]


_CORPUS = "".join(json.dumps(record) + "\n" for record in [
    {"id": "d1", "title": "quake risk", "body": "quake", "authors": ["Ada", "Bob"], "issn": "1111-1111"},
    {"id": "d2", "title": "flood", "body": "quake flood", "authors": ["Bob"]},
    {"id": "d3", "title": "risk", "body": "", "authors": [], "issn": "2222-2222"},
])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_a_corrupt_npy_header_is_one_error_line(data):
    # one byte of one member's .npy header (magic, version, length or header text) changed in
    # place, as a disk fault would: every command that reads the index refuses it
    with tempfile.TemporaryDirectory() as directory:
        paths = {name: os.path.join(directory, name) for name in ("corpus", "topics", "qrels", "c.idx")}
        for name, text in (("corpus", _CORPUS), ("topics", "t1\tquake\n"), ("qrels", "t1 0 d1 1\n")):
            with open(paths[name], "w", encoding="utf-8") as fout:
                fout.write(text)
        index = paths["c.idx"]
        assert _run(["index", "--corpus", paths["corpus"], "--out", index], directory)[0] == 0
        with zipfile.ZipFile(index) as archive:
            info = data.draw(st.sampled_from(archive.infolist()), label="member")
        with open(index, "r+b") as fout:
            # the member's data starts after its local header (30 bytes, its name and an extra field)
            fout.seek(info.header_offset + 26)
            name_size, extra_size = struct.unpack("<HH", fout.read(4))
            start = info.header_offset + 30 + name_size + extra_size
            fout.seek(start + 8)
            header_size = 10 + struct.unpack("<H", fout.read(2))[0]
            at = start + data.draw(st.integers(0, header_size - 1), label="offset")
            fout.seek(at)
            byte = fout.read(1)[0] ^ data.draw(st.integers(1, 255), label="xor")
            fout.seek(at)
            fout.write(bytes([byte]))
        before = sorted(os.listdir(directory))
        for argv in (
            ["search", "--query", "quake"],
            ["rerank", "--query", "quake", "--mode", "lotka", "--out", os.path.join(directory, "r.run")],
            ["analyze", "--query", "quake", "--field", "author", "--out", os.path.join(directory, "a")],
            ["eval", "--topics", paths["topics"], "--qrels", paths["qrels"], "--modes", "tfidf,brad",
             "--out", os.path.join(directory, "exp")],
        ):
            code, out, err, files = _run([argv[0], "--index", index, *argv[1:]], directory)
            assert (code, out, files) == (1, "", before)
            _check(code, out, err)
            assert err.startswith(f"error: {index} ") and err.endswith("; rebuild it with `lotkarank index`\n")
