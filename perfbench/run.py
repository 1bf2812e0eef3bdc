"""Benchmark of lotkarank: every CLI command and every module layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It generates its inputs from --seed
(gen.py), builds the index with `lotkarank index`, runs the workload's
operations one at a time (a single-client closed loop) in child
processes for --seconds, checks every output against reference.py, and
prints a table of metrics followed by one JSON line.

--trace 0 reports the end-to-end metrics. The timed operations are
interleaved with a yardstick task (yardstick.py) that cancels the host's
speed drift: `cycle_rel` is the time of one cycle of the workload's
operations in yardstick units. --trace 1 pairs every operation with a
traced copy (tracer.py) and reports the per-layer metrics plus the
tracing overhead instead.

The benchmark and every process it starts run on one CPU, so that an
operation and the yardstick next to it always share a CPU.

Workloads, and why each exists, are listed at CORPUS_DOCS below.
"""
import argparse
import bisect
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import gen
from reference import Reference, run_tag
from yardstick import Yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
PY = sys.executable
RUN_LIMIT_S = 160  # stop starting work after this; a run must end within 180 s
CHILD_TIMEOUT_S = 120
MIN_API_OPS = 100  # so that at least 10 samples lie beyond p90
SETUPS = 3  # set-ups per untraced run; setup_s is their median
NEAR = 2  # yardstick times on each side of an operation that scale it
BUILD_NOTE = "median `lotkarank index` wall"
VOCAB = 30000
JOURNALS = 400
# workload -> corpus size. Why each exists:
#   cli-20k: import plus index load are most of each one-shot call, so import
#     and index-file work shows here and search/re-rank work barely does.
#   eval-20k: search, re-rank, the eval loop and run-file writing dominate;
#     `eval` searching once per topic instead of twice per mode shows only here.
#   api-40k: no import or load inside the timed loop, so it isolates search,
#     kernel, informetrics and re-rank on result sets of 4e2 to 2.6e4 docs;
#     its set-up is the heaviest build and load (setup_s, peak_rss_mb).
CORPUS_DOCS = {"cli-20k": 20000, "eval-20k": 20000, "api-40k": 40000}
EVAL_MODES = (("tfidf", None, 1.0), ("brad", None, 1.0), ("lotka", None, 1.0), ("combined", "author", 1.0))
API_CONFIGS = (
    ("tfidf", None, 1.0, "drop"),
    ("brad", None, 1.0, "drop"),
    ("lotka", None, 1.0, "drop"),
    ("combined", "author", 1.0, "drop"),
    ("combined", "journal", -1.0, "passthrough"),
)
CLI_CYCLE = (
    ("search", None), ("rerank", "tfidf"), ("rerank", "brad"), ("rerank", "lotka"),
    ("rerank", "combined"), ("analyze", "journal"), ("analyze", "author"),
)


@dataclass
class Op:
    """One lotkarank CLI call and what it must print and write."""

    kind: str
    args: list
    stdout: bytes | None = None  # exact expected stdout; None when `check` decides
    check: object = None  # stdout -> problem string or None
    files: dict = field(default_factory=dict)  # path relative to the root -> expected bytes
    queries: dict = field(default_factory=dict)  # query_id -> query text, for trace checks
    query: str | None = None  # the single query of a search/rerank/analyze call


class Bench:
    def __init__(self, root, work, trace):
        self.root = root
        self.work = work
        self.trace = trace
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p))
        self.attempted = 0
        self.failed = 0
        self.rss_mb = 0.0
        self.traces = []  # (unit of work, Op, import seconds, tracer dump)
        self.paired = []  # (untraced seconds, traced seconds)
        self.yardstick = None if trace else Yardstick()
        # untraced timings in the order they ran: (None, yardstick seconds) or
        # (position of the operation in the workload's cycle, seconds)
        self.timeline = []

    def yard(self):
        """Time the yardstick once (untraced runs only)."""
        if self.yardstick is not None:
            self.timeline.append((None, self.yardstick.time()))

    def timed(self, position, seconds):
        if self.yardstick is not None:
            self.timeline.append((position, seconds))

    def rel(self, name):
        return os.path.relpath(os.path.join(self.work, name), self.root)

    def time_left(self):
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {message}", file=sys.stderr)
        return ok

    def start(self, argv, **pipes):
        return subprocess.Popen(argv, cwd=self.root, env=self.env, **pipes)

    def finish(self, proc, timeout):
        """Wait for proc to exit, killing it after `timeout` s; returns its exit code."""
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], timeout)[0]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = max(self.rss_mb, usage.ru_maxrss * 1024 / 1e6)
        return proc.returncode

    def child_timeout(self):
        return max(1.0, min(CHILD_TIMEOUT_S, self.time_left() + 5))

    def spawn(self, argv):
        """Run one child to exit; returns (exit code, wall seconds, stdout, stderr tail)."""
        out_path, err_path = os.path.join(self.work, "stdout"), os.path.join(self.work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            code = self.finish(self.start(argv, stdout=out, stderr=err), self.child_timeout())
            elapsed = time.perf_counter() - start
        with open(out_path, "rb") as fin:
            stdout = fin.read()
        with open(err_path, "rb") as fin:
            stderr = fin.read()[-400:].decode(errors="replace").strip()
        return code, elapsed, stdout, stderr

    def run_op(self, op, traced=False, unit=None):
        """Run and check one CLI call; returns its wall seconds, or None if it failed."""
        for path in op.files:
            if os.path.exists(os.path.join(self.root, path)):
                os.remove(os.path.join(self.root, path))
        if traced:
            trace_path = os.path.join(self.work, "trace.json")
            argv = [PY, CHILD, "cli", trace_path, "--", *op.args]
        else:
            argv = [PY, "-m", "lotkarank.cli", *op.args]
        code, elapsed, stdout, stderr = self.spawn(argv)
        problem = None
        if code != 0:
            problem = f"exit code {code}: {stderr}"
        elif op.stdout is not None and stdout != op.stdout:
            problem = f"stdout {stdout[:200]!r} != expected {op.stdout[:200]!r}"
        elif op.check is not None:
            problem = op.check(stdout)
        for path, want in op.files.items():
            if problem is None:
                try:
                    with open(os.path.join(self.root, path), "rb") as fin:
                        got = fin.read()
                except OSError as exc:
                    got = exc
                if got != want:
                    problem = f"{path} differs from the reference"
        label = " (traced)" if traced else ""
        if not self.check(problem is None, f"lotkarank {' '.join(op.args)}{label}: {problem}"):
            return None
        if traced:
            with open(trace_path, encoding="utf-8") as fin:
                result = json.load(fin)
            self.traces.append((unit, op, result["import_s"], result["trace"]))
        return elapsed


# ---- inputs ---------------------------------------------------------------


def make_inputs(bench, name, seed):
    n_docs = CORPUS_DOCS[name]
    rng = np.random.default_rng(seed)
    n_authors = n_docs // 8
    corpus = gen.make_corpus(rng, n_docs, VOCAB, JOURNALS, n_authors)
    ref = Reference(corpus, JOURNALS, n_authors)
    corpus_path = bench.rel("corpus.jsonl")
    gen.write_corpus(corpus, os.path.join(bench.root, corpus_path))
    index_path = bench.rel("corpus.idx")
    terms = int(np.count_nonzero(corpus.df))
    build = Op("index", ["index", "--corpus", corpus_path, "--out", index_path],
               stdout=f"docs={n_docs} terms={terms}\n".encode())
    return rng, corpus, ref, build, index_path


def pick_queries(rng, corpus, classes):
    queries = []
    for query_class in classes:
        queries.append(gen.pick_query(rng, corpus, query_class, avoid=queries))
    return queries


def measure(bench, build, index_path, seconds, window):
    """Alternate set-ups and timed windows: build, window, build, window, ...

    Host speed drifts in phases of seconds to tens of seconds (see
    context.json), so spreading the measured time over the whole run samples
    more phases than one block would. `window(seconds, last)` runs the workload's operations.
    Returns the untraced build times and the index file size.
    """
    reps = 1 if bench.trace else SETUPS
    seconds_each, sizes = [], []
    for rep in range(reps):
        elapsed = bench.run_op(build)
        if elapsed is not None:
            seconds_each.append(elapsed)
            sizes.append(os.path.getsize(os.path.join(bench.root, index_path)))
        if bench.trace and bench.run_op(build, traced=True, unit="setup") is not None:
            sizes.append(os.path.getsize(os.path.join(bench.root, index_path)))
        window(seconds / reps, rep == reps - 1)
    bench.check(len(set(sizes)) == 1, f"index file size differs between identical builds: {sizes}")
    return seconds_each, sizes[-1] if sizes else 0


def keep_going(bench, started, seconds):
    return time.monotonic() - started < seconds and bench.time_left() > 0


# ---- workloads --------------------------------------------------------------


@dataclass
class Result:
    setup_s: list  # one entry per set-up
    setup_note: str
    index_bytes: int
    op_s: list  # wall seconds of every untraced timed operation
    table: list  # (name, value, unit, samples, note): the workload's own metrics
    ref: Reference


def run_cli(bench, seed, seconds):
    rng, corpus, ref, build, index_path = make_inputs(bench, "cli-20k", seed)
    queries = [pick_queries(rng, corpus, [gen.BROAD] * 2), pick_queries(rng, corpus, [gen.NARROW] * 2)]

    def op_at(n):
        cycle, i = divmod(n, len(CLI_CYCLE))
        kind, arg = CLI_CYCLE[i]
        query = queries[(i + cycle) % 2][(cycle // 2) % 2]
        base = [kind, "--index", index_path, "--query", query]
        if kind == "search":
            return Op(kind, base + ["--query-id", "s"], stdout=ref.search_stdout(query), query=query)
        if kind == "rerank":
            out = bench.rel("rerank.run")
            extra = ["--field", "author", "--k", "1.0"] if arg == "combined" else []
            ranked = ref.rerank(query, arg, "author", 1.0)
            return Op(kind, base + ["--query-id", "r", "--mode", arg, *extra, "--out", out],
                      stdout=f"retained={ranked.positions.shape[0]} dropped={ranked.dropped}\n".encode(),
                      files={out: ref.run_lines("r", ranked, run_tag(arg, 1.0)).encode()}, query=query)
        prefix = bench.rel(f"analyze_{arg}")
        fit, linear, loglog = ref.analyze(query, arg)
        return Op(kind, base + ["--field", arg, "--out", prefix], check=lambda out: check_fit(out, fit),
                  files={f"{prefix}.csv": linear, f"{prefix}.loglog.csv": loglog}, query=query)

    samples = defaultdict(list)
    done = [0]  # calls made so far

    def window(seconds, last):
        started = time.monotonic()
        # the last window completes the first cycle (every cycle when tracing), so each
        # run measures every command
        while keep_going(bench, started, seconds) or (last and bench.time_left() > 0 and (
                done[0] < len(CLI_CYCLE) or (bench.trace and done[0] % len(CLI_CYCLE)))):
            op = op_at(done[0])
            bench.yard()
            elapsed = bench.run_op(op)
            if elapsed is not None:
                samples[op.kind].append(elapsed)
                bench.timed(done[0] % len(CLI_CYCLE), elapsed)
                if bench.trace:
                    traced = bench.run_op(op, traced=True, unit="pass" if done[0] < len(CLI_CYCLE) else None)
                    if traced is not None:
                        bench.paired.append((elapsed, traced))
            done[0] += 1
        bench.yard()

    build_s, index_bytes = measure(bench, build, index_path, seconds, window)
    every = [s for kind in samples for s in samples[kind]]
    table = [
        (f"cli_{kind}_s", median(samples[kind]), "s", len(samples[kind]), f"median one-shot `{kind}`{note}")
        for kind, note in (("search", ""), ("rerank", ", all four modes"), ("analyze", ", both fields"))
    ]
    return Result(build_s, BUILD_NOTE, index_bytes, every, table, ref)


def run_eval(bench, seed, seconds):
    rng, corpus, ref, build, index_path = make_inputs(bench, "eval-20k", seed)
    # half broad, half narrow
    topics = list(enumerate(pick_queries(rng, corpus, [gen.BROAD, gen.NARROW] * 2), start=1))
    topics = [(f"t{t}", query) for t, query in topics]
    qrel_lines = gen.make_qrels(rng, corpus, [(tid, ref.search(q).positions) for tid, q in topics])
    qrel_lines.append(f"t99 0 {gen.doc_id(0)} 1\n")  # a judged topic with no topic entry
    relevant = defaultdict(set)
    for line in qrel_lines:
        tid, _, did, grade = line.split()
        if int(grade) > 0:
            relevant[tid].add(did)
    topics_path, qrels_path, prefix = bench.rel("topics.tsv"), bench.rel("qrels.txt"), bench.rel("ev")
    with open(os.path.join(bench.root, topics_path), "w", encoding="utf-8") as fout:
        fout.writelines(f"{tid}\t{q}\n" for tid, q in topics)
    with open(os.path.join(bench.root, qrels_path), "w", encoding="utf-8") as fout:
        fout.writelines(qrel_lines)
    files = ref.evaluation(topics, relevant, EVAL_MODES, n_unknown=1)
    op = Op("eval", ["eval", "--index", index_path, "--topics", topics_path, "--qrels", qrels_path,
                     "--modes", ",".join(m for m, _, _ in EVAL_MODES), "--field", "author", "--out", prefix],
            stdout=f"topics={len(topics)} runs={len(EVAL_MODES)} report={prefix}.report.csv\n".encode(),
            files={f"{prefix}.{suffix}": data for suffix, data in files.items()},
            queries=dict(topics))

    samples = []

    def window(seconds, last):
        started = time.monotonic()
        tried = 0
        # every window makes at least one call; in trace mode two, to compare their counters
        while keep_going(bench, started, seconds) or (tried < 1 + bench.trace and bench.time_left() > 0):
            tried += 1
            bench.yard()
            elapsed = bench.run_op(op)
            if elapsed is None:
                continue
            samples.append(elapsed)
            bench.timed(0, elapsed)
            if bench.trace:
                traced = bench.run_op(op, traced=True, unit="pass" if len(samples) == 1 else None)
                if traced is not None:
                    bench.paired.append((elapsed, traced))
        bench.yard()

    build_s, index_bytes = measure(bench, build, index_path, seconds, window)
    note = f"median `eval`, {len(topics)} topics x {len(EVAL_MODES)} modes"
    return Result(build_s, BUILD_NOTE, index_bytes, samples, [("eval_s", median(samples), "s", len(samples), note)], ref)


class ApiRunner:
    """The in-process runner (child.py api), fed one JSON command per line."""

    def __init__(self, bench, plan_path):
        self.bench = bench
        self.stderr = open(os.path.join(bench.work, "api.stderr"), "wb")
        self.proc = bench.start([PY, CHILD, "api", plan_path], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=self.stderr)

    def call(self, **command):
        self.proc.stdin.write((json.dumps(command) + "\n").encode())
        self.proc.stdin.flush()
        if not select.select([self.proc.stdout], [], [], self.bench.child_timeout())[0]:
            raise TimeoutError(f"api runner did not answer {command['cmd']!r}")
        line = self.proc.stdout.readline()
        if not line:
            raise ChildProcessError(f"api runner exited during {command['cmd']!r}")
        return json.loads(line)

    def close(self):
        """Close its input, wait for it to exit; returns (exit code, stderr tail)."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        code = self.bench.finish(self.proc, 5.0)
        self.proc.stdout.close()
        self.stderr.close()
        with open(self.stderr.name, "rb") as fin:
            return code, fin.read()[-400:].decode(errors="replace").strip()


def run_api(bench, seed, seconds):
    rng, corpus, ref, build, index_path = make_inputs(bench, "api-40k", seed)
    # with five configs per query, this mix puts the median operation in the middle
    # of the medium re-ranks and p90 inside the broad re-ranks, away from class edges
    classes = [gen.NARROW, gen.MEDIUM, gen.BROAD, gen.BROAD]
    queries = pick_queries(rng, corpus, classes)
    pairs = []
    for qi, query in enumerate(queries):
        for ci, (mode, fld, k, missing) in enumerate(API_CONFIGS):
            ranked = ref.rerank(query, mode, fld, k, missing)
            pairs.append({"label": f"q{qi}.{ci}", "query": query, "mode": mode, "field": fld, "k": k,
                          "missing": missing,
                          "expect": [int(ranked.positions.shape[0]), ranked.dropped, ref.digest(ranked)]})
    reps = 1 if bench.trace else SETUPS
    # whole passes over the pairs, >= MIN_API_OPS operations per run
    min_passes = math.ceil(MIN_API_OPS / len(pairs) / reps)
    plan = {
        "index": index_path, "trace": bench.trace, "pairs": pairs,
        # every narrow and medium pair, then one broad: fills caches at little cost
        "warmup": [i for i in range(len(pairs)) if classes[i // len(API_CONFIGS)] is not gen.BROAD]
        + [classes.index(gen.BROAD) * len(API_CONFIGS)],
    }
    plan_path = os.path.join(bench.work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fout:
        json.dump(plan, fout)
    loads, ops = [], []
    runner = None
    broken = []

    def window(seconds, last):
        nonlocal runner
        if broken:
            return
        started = time.monotonic()
        try:
            runner = runner or ApiRunner(bench, plan_path)
            loads.append(runner.call(cmd="load")["load_s"])
            passes = 0
            while passes < min_passes or keep_going(bench, started, seconds):
                bench.yard()
                # one untraced pass, followed by a traced one when tracing
                out = runner.call(cmd="run", passes=1 + bench.trace)
                passes += 1
                for message in out["failures"]:
                    bench.check(False, message)
                bench.attempted += len(out["ops"]) - len(out["failures"])
                for _, pair, traced, elapsed in out["ops"]:
                    if not traced:
                        bench.timed(pair, elapsed)
                ops.extend(out["ops"])
            bench.yard()
        except (OSError, ChildProcessError, ValueError) as exc:  # TimeoutError is an OSError
            broken.append(exc)
            bench.check(False, f"api runner: {exc}")

    try:
        build_s, index_bytes = measure(bench, build, index_path, seconds, window)
        if runner is not None and not broken:
            end = runner.call(cmd="end")
            if bench.trace:
                labels = {p["label"]: p["query"] for p in pairs}
                bench.traces.append(("api", Op("api", [], queries=labels), end["import_s"], end["trace"]))
    finally:
        if runner is not None:
            code, stderr = runner.close()
            bench.check(code == 0, f"api runner exit code {code}: {stderr}")
    plain = [s for _, _, traced, s in ops if not traced]
    if bench.trace:
        bench.paired.append((sum(plain), sum(s for _, _, traced, s in ops if traced)))
    setup_s = [b + load for b, load in zip(build_s, loads)]
    n = len(plain)
    table = [
        ("query_p50_ms", median(plain) * 1000, "ms", n, "search+rerank, median"),
        ("query_p90_ms", p90(plain) * 1000 if n > 1 else 0.0, "ms", n, "search+rerank, p90"),
        ("queries_per_s", n / sum(plain) if n else 0.0, "1/s", n, "operations / seconds inside them"),
    ]
    return Result(setup_s, BUILD_NOTE + " + InvertedIndex.load", index_bytes, plain, table, ref)


# ---- metrics -----------------------------------------------------------------


def check_fit(stdout, fit):
    try:
        parts = dict(item.split("=") for item in stdout.decode().split())
        got = (float(parts["alpha"]), float(parts["c"]), float(parts["r2"]))
    except (ValueError, KeyError):
        return f"unparsable analyze output {stdout[:200]!r}"
    # printed with 4 decimals
    if any(abs(g - w) > 0.51e-4 + 1e-9 * abs(w) for g, w in zip(got, fit)):
        return f"fit {got} != reference {fit}"
    return None


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def median(values):
    return statistics.median(values) if values else 0.0


def relative_times(timeline):
    """Each operation's seconds over the median of the NEAR yardstick times on each side of it.

    Returns position in the workload's cycle -> list of ratios, and the yardstick times.
    """
    marks = [i for i, (position, _) in enumerate(timeline) if position is None]
    yards = [timeline[i][1] for i in marks]
    ratios = defaultdict(list)
    for i, (position, seconds) in enumerate(timeline):
        if position is not None:
            j = bisect.bisect_left(marks, i)
            ratios[position].append(seconds / statistics.median(yards[max(0, j - NEAR):j + NEAR]))
    return ratios, yards


def end_to_end(bench, result):
    ops = result.op_s
    ratios, yards = relative_times(bench.timeline)
    metrics = {
        "setup_s": (median(result.setup_s), "s", len(result.setup_s), result.setup_note),
        "peak_rss_mb": (bench.rss_mb, "MB", 1, "highest ru_maxrss of any lotkarank process"),
        "index_mb": (result.index_bytes / 1e6, "MB", 1, "index file size (exact)"),
        "cycle_rel": (sum(median(r) for r in ratios.values()), "ratio", sum(map(len, ratios.values())),
                      f"one cycle of {len(ratios)} operations, in yardstick times (sum of per-operation medians)"),
    }
    rows = [(name, value, unit, n, note) for name, (value, unit, n, note) in metrics.items()]
    rows += result.table
    rows.append(("ops_per_s", len(ops) / sum(ops) if ops else 0.0, "1/s", len(ops),
                 "operations / seconds spent inside them (raw, host speed included)"))
    rows.append(("yardstick_ms", median(yards) * 1000, "ms", len(yards), "median yardstick time"))
    rows.append(("error_rate", bench.failed / max(bench.attempted, 1), "ratio", bench.attempted,
                 "failed / attempted (set-ups, calls, operations and self-checks)"))
    return {name: (value, unit) for name, (value, unit, _, _) in metrics.items()}, rows


# name -> (unit, span it reads, how): "median"/"self" per call over every
# traced call; "total"/"calls"/"count" summed over one unit of work, which
# is the traced index build ("setup") or the first traced cycle of the
# workload's operations ("pass").
PER_LAYER = {
    "lotkarank.import_s": ("s", None, "import"),
    "cli.main_self_s": ("s", "cli.main", "self"),
    "corpus.load_corpus_s": ("s", "corpus.load_corpus", "median"),
    "corpus.docs": ("count", "corpus.load_corpus", "count:setup"),
    "corpus.tokenize_s": ("s", "corpus.tokenize", "total:setup"),
    "corpus.tokenize_calls": ("count", "corpus.tokenize", "calls:setup"),
    "index.build_index_s": ("s", "index.build_index", "median"),
    "index.save_s": ("s", "index.save", "median"),
    "index.load_s": ("s", "index.load", "median"),
    "index.file_bytes": ("bytes", None, "file"),
    "index.search_s": ("s", "index.search", "median"),
    "index.search_self_s": ("s", "index.search", "self"),
    "index.search_calls": ("count", "index.search", "count:pass"),
    "index.result_docs": ("count", "index.search", "count:pass"),
    "index.postings_touched": ("count", "index.search", "count:pass"),
    "kernel.add_scaled_s": ("s", "_kernel.add_scaled", "total:pass"),
    "kernel.add_scaled_calls": ("count", "_kernel.add_scaled", "calls:pass"),
    "informetrics.entity_frequencies_s": ("s", "informetrics.entity_frequencies", "median"),
    "informetrics.distinct_entities": ("count", "informetrics.entity_frequencies", "count:pass"),
    "informetrics.covered_docs": ("count", "informetrics.entity_frequencies", "count:pass"),
    "informetrics.fit_power_law_s": ("s", "informetrics.fit_power_law", "median"),
    "informetrics.export_series_csv_s": ("s", "informetrics.export_series_csv", "median"),
    "rerank.tfidf_s": ("s", "rerank.tfidf", "self"),
    "rerank.brad_s": ("s", "rerank.brad", "self"),
    "rerank.lotka_s": ("s", "rerank.lotka", "self"),
    "rerank.combined_s": ("s", "rerank.combined", "self"),
    "rerank.dropped": ("count", "rerank.rerank", "count:pass"),
    "rerank.write_run_file_s": ("s", "rerank.write_run_file", "median"),
    "rerank.run_bytes": ("bytes", "rerank.write_run_file", "count:pass"),
    "evaluation.load_topics_s": ("s", "evaluation.load_topics", "median"),
    "evaluation.load_qrels_s": ("s", "evaluation.load_qrels", "median"),
    "evaluation.run_evaluation_self_s": ("s", "evaluation.run_evaluation", "self"),
    "evaluation.write_report_s": ("s", "evaluation.write_report", "median"),
    "trace.overhead_frac": ("ratio", None, "overhead"),
}


def span_unit(default_unit, op_label):
    """api traces label spans 'setup' or '<pass>.<pair>'; the first traced pass is pass 1."""
    if default_unit != "api":
        return default_unit
    if op_label == "setup":
        return "setup"
    return "pass" if op_label.split(".")[0] == "1" else None


def per_layer(bench, result):
    """Per-layer metrics from the traced calls, after checking every counted fact."""
    ref = result.ref
    durations, selfs = defaultdict(list), defaultdict(list)
    totals, counts = defaultdict(float), defaultdict(int)
    signatures = defaultdict(list)
    absent, imports = set(), []
    for default_unit, op, import_s, dump in bench.traces:
        imports.append(import_s)
        absent.update(dump["absent"])
        spans = dump["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, label) in enumerate(spans):
            unit = span_unit(default_unit, label)
            durations[name].append(end - start)
            selfs[name].append(end - start - covered[i])
            totals[("total", unit, name)] += end - start
            totals[("calls", unit, name)] += 1
            if name.startswith("rerank.") and name != "rerank.write_run_file":
                totals[("calls", unit, "rerank.rerank")] += 1
        per_op = defaultdict(list)
        for label, kind, *rest in dump["calls"]:
            unit = span_unit(default_unit, label)
            per_op[label].append([kind, *rest])
            qid = {"entities": 1, "rerank": 4}.get(kind)
            query = op.query or (op.queries.get(rest[qid]) if qid is not None else None)
            if kind == "uncounted":
                print(f"note: {rest[0]} returned an unexpected shape ({rest[1]}); not counted", file=sys.stderr)
            elif kind == "corpus":
                counts[(unit, "corpus.docs")] += rest[0]
            elif kind == "search":
                query, _, size = rest
                want = ref.search(query).positions.shape[0]
                bench.check(size == want, f"search {query!r}: {size} results, reference {want}")
                counts[(unit, "index.search_calls")] += 1
                counts[(unit, "index.result_docs")] += size
                counts[(unit, "index.postings_touched")] += ref.postings(query)
            elif kind == "entities":
                fld, _, distinct, covered_docs = rest
                ent = ref.entities(ref.search(query), fld) if query else None
                want = (ent.distinct, ent.covered) if ent else None
                bench.check((distinct, covered_docs) == want,
                            f"{fld} counts for {query!r}: {(distinct, covered_docs)}, reference {want}")
                counts[(unit, "informetrics.distinct_entities")] += distinct
                counts[(unit, "informetrics.covered_docs")] += covered_docs
            elif kind == "rerank":
                mode, fld, k, missing, _, dropped = rest
                want = ref.rerank(query, mode, fld, k, missing).dropped if query else None
                bench.check(dropped == want, f"rerank {mode} of {query!r}: dropped {dropped}, reference {want}")
                counts[(unit, "rerank.dropped")] += dropped
            elif kind == "run_file":
                counts[(unit, "rerank.run_bytes")] += rest[0]
        # identical operations must count identically
        for label, facts in per_op.items():
            if op.kind == "eval":
                signatures["eval"].append(facts)
            elif op.kind == "api" and label != "setup":
                signatures[label.split(".", 1)[1]].append(facts)
    for key, seen in signatures.items():
        bench.check(all(s == seen[0] for s in seen), f"counters differ between identical traced operations ({key})")

    untraced = sum(a for a, _ in bench.paired)
    rows, metrics = [], {}
    for name, (unit, span, how) in PER_LAYER.items():
        kind, _, work_unit = how.partition(":")
        if kind == "median":
            value, n = median(durations[span]), len(durations[span])
        elif kind == "self":
            value, n = median(selfs[span]), len(selfs[span])
        elif kind in ("total", "calls"):
            value, n = totals[(kind, work_unit, span)], int(totals[("calls", work_unit, span)])
            value = value if kind == "total" else int(value)
        elif kind == "count":
            value, n = counts[(work_unit, name)], totals[("calls", work_unit, span)]
        elif kind == "import":
            value, n = median(imports), len(imports)
        elif kind == "file":
            value, n = result.index_bytes, 1
        else:
            value = sum(b for _, b in bench.paired) / untraced - 1 if untraced else 0.0
            n = len(bench.paired)
        layer = (span or name).split(".")[0]
        note = "absent" if layer in absent or span in absent else ("" if n else "not run on this workload")
        metrics[name] = (value, unit)
        rows.append((name, value, unit, int(n), note))
    return metrics, rows


RUNNERS = {"cli-20k": run_cli, "eval-20k": run_eval, "api-40k": run_api}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lotkarank", "cli.py")):
        print("error: run from the root of a lotkarank checkout (src/lotkarank not found)", file=sys.stderr)
        return 2
    # one CPU for the benchmark and, by inheritance, every process it starts
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(work)
    try:
        bench = Bench(root, work, bool(args.trace))
        result = RUNNERS[args.workload](bench, args.seed, args.seconds)
        if args.trace:
            metrics, rows = per_layer(bench, result)
        else:
            metrics, rows = end_to_end(bench, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"{'metric':<36}{'value':>16}  {'unit':<6}{'samples':>8}  note")
    for name, value, unit, n, note in rows:
        print(f"{name:<36}{value:>16.6g}  {unit:<6}{n!s:>8}  {note}")
    correct = bench.failed == 0 and bench.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
