"""Processes the benchmark starts to run lotkarank in.

    python perfbench/child.py cli OUT_JSON -- ARGV...
        lotkarank.cli.main(ARGV) with the tracer installed.
    python perfbench/child.py api PLAN_JSON
        The in-process runner: on commands read from stdin, load the index
        and time search + rerank operations in a closed loop, checking each
        result's digest.

Both time their own `import lotkarank`, a cold import in a fresh
interpreter. lotkarank is found through PYTHONPATH, which the benchmark
points at the checkout's src/.
"""
import array
import gc
import hashlib
import json
import sys
from time import perf_counter

from tracer import Tracer


def _import_lotkarank() -> float:
    start = perf_counter()
    import lotkarank  # noqa: F401

    return perf_counter() - start


def digest(ranked) -> str:
    """sha1 over doc ids, float64 scores and int64 ranks; see Reference.digest."""
    entries = ranked.entries
    h = hashlib.sha1("\n".join([e[0] for e in entries]).encode())
    h.update(b"|")
    h.update(array.array("d", [e[1] for e in entries]).tobytes())
    h.update(b"|")
    h.update(array.array("q", [e[2] for e in entries]).tobytes())
    return h.hexdigest()


def run_cli(out_path, argv) -> int:
    import_s = _import_lotkarank()
    import lotkarank.cli

    tracer = Tracer()
    tracer.op = "cli"
    tracer.install()
    code = lotkarank.cli.main(argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fout:
        json.dump({"import_s": import_s, "code": code, "trace": tracer.dump()}, fout)
    return code


def run_api(plan_path) -> int:
    """Answer one JSON line per command read from stdin.

    load: drop the index, load it again (timed) and warm up; run: the
    given number of whole passes over the pairs, alternating untraced and
    traced passes when tracing; end: report the import time and the trace.
    """
    with open(plan_path, encoding="utf-8") as fin:
        plan = json.load(fin)
    import_s = _import_lotkarank()
    import lotkarank as lk

    tracer = Tracer() if plan["trace"] else None
    pairs = plan["pairs"]
    configs = [
        lk.RankingConfig(
            mode=lk.Mode(p["mode"]),
            field=lk.EntityField(p["field"]) if p["field"] else None,
            k=p["k"],
            missing_policy=lk.MissingPolicy(p["missing"]),
        )
        for p in pairs
    ]
    index = None
    n_pass = 0
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "load":
            index = None  # at most one index in memory
            gc.collect()
            if tracer is not None:
                tracer.op = "setup"
                tracer.install()
            start = perf_counter()
            index = lk.InvertedIndex.load(plan["index"])
            reply = {"load_s": perf_counter() - start}
            if tracer is not None:
                tracer.uninstall()
            for i in plan["warmup"]:
                lk.rerank(lk.search(pairs[i]["query"], index, query_id=pairs[i]["label"]), configs[i], index)
        elif command["cmd"] == "run":
            ops, failures = [], []  # ops: [pass, pair, traced, seconds]
            for _ in range(command["passes"]):
                traced = tracer is not None and n_pass % 2 == 1
                if traced:
                    tracer.install()
                search, rerank = lk.search, lk.rerank  # the wrapped ones while traced
                for i, (pair, config) in enumerate(zip(pairs, configs)):
                    if traced:
                        tracer.op = f"{n_pass}.{i}"
                    start = perf_counter()
                    ranked = rerank(search(pair["query"], index, query_id=pair["label"]), config, index)
                    ops.append([n_pass, i, traced, perf_counter() - start])
                    got = [len(ranked.entries), ranked.dropped, digest(ranked)]
                    if got != pair["expect"]:
                        failures.append(f"pass {n_pass} pair {pair['label']}: got {got[:2]}, "
                                        f"want {pair['expect'][:2]} (or another digest)")
                if traced:
                    tracer.uninstall()
                n_pass += 1
            reply = {"ops": ops, "failures": failures}
        else:
            reply = {"import_s": import_s, "trace": tracer.dump() if tracer is not None else None}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
        if command["cmd"] == "end":
            return 0
    return 1  # input closed before "end"


if __name__ == "__main__":
    if len(sys.argv) >= 4 and sys.argv[1] == "cli" and sys.argv[3] == "--":
        sys.exit(run_cli(sys.argv[2], sys.argv[4:]))
    if len(sys.argv) == 3 and sys.argv[1] == "api":
        sys.exit(run_api(sys.argv[2]))
    sys.exit(f"usage: {sys.argv[0]} cli OUT_JSON -- ARGV... | api PLAN_JSON")
