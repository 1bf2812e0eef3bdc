"""Command-line entry point.

Subcommands: index, search, rerank, eval, analyze. All outputs are
deterministic; the exit code is 0 iff every requested output was written.
"""
import argparse
import os
import sys

from .corpus import load_corpus
from .index import InvertedIndex, build_index, search
from .informetrics import EntityField, entity_frequencies, export_series_csv, fit_power_law, rank_frequency_series
from .rerank import Mode, MissingPolicy, RankingConfig, rerank, write_run_file

_MODE_NAMES = [mode.value for mode in Mode]
_FIELD_NAMES = [field.value for field in EntityField]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lotkarank",
        description="tf-idf retrieval with informetric (entity-frequency) re-ranking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build and save an inverted index")
    p_index.add_argument("--corpus", required=True, help="corpus file (JSON lines)")
    p_index.add_argument("--out", required=True, help="index output path")

    p_search = sub.add_parser("search", help="run a tf-idf query against an index")
    p_search.add_argument("--index", required=True)
    p_search.add_argument("--query", required=True)
    p_search.add_argument("--query-id", default="q")
    p_search.add_argument("--top", type=int, default=10, help="entries to print (>= 0; 0 = all)")

    p_rerank = sub.add_parser("rerank", help="query, re-rank, and write a run file")
    p_rerank.add_argument("--index", required=True)
    p_rerank.add_argument("--query", required=True)
    p_rerank.add_argument("--query-id", default="q")
    p_rerank.add_argument("--mode", required=True, choices=_MODE_NAMES)
    p_rerank.add_argument("--field", choices=_FIELD_NAMES, help="entity field for combined mode")
    p_rerank.add_argument("--k", type=float, default=1.0)
    p_rerank.add_argument("--missing", choices=[p.value for p in MissingPolicy], default="drop")
    p_rerank.add_argument("--out", required=True, help="run file output path")

    p_eval = sub.add_parser("eval", help="evaluate ranking modes over a topic file")
    p_eval.add_argument("--index", required=True)
    p_eval.add_argument("--topics", required=True)
    p_eval.add_argument("--qrels", required=True)
    p_eval.add_argument("--modes", default="tfidf,brad,lotka",
                        help="comma-separated subset of tfidf,brad,lotka,combined")
    p_eval.add_argument("--field", choices=_FIELD_NAMES, help="entity field for combined mode")
    p_eval.add_argument("--k", type=float, default=1.0)
    p_eval.add_argument("--out", required=True,
                        help="output prefix: <out>.report.csv, <out>.report.txt, <out>.<tag>.run")

    p_analyze = sub.add_parser("analyze", help="rank-frequency series and power-law fit for a query")
    p_analyze.add_argument("--index", required=True)
    p_analyze.add_argument("--query", required=True)
    p_analyze.add_argument("--field", required=True, choices=_FIELD_NAMES)
    p_analyze.add_argument("--out", required=True, help="CSV output prefix")

    return parser


def _config_for(mode_name: str, field_name, k: float, missing: str = "drop") -> RankingConfig:
    field = EntityField(field_name) if field_name else None
    return RankingConfig(
        mode=Mode(mode_name), field=field, k=k, missing_policy=MissingPolicy(missing)
    )


def _refuse_inputs_as_outputs(outputs, inputs):
    """ValueError if an output path is one of the command's input files, before anything is written.

    inputs maps each input option to its path. os.path.samefile follows
    links, so an output that links to an input, or is a hard link of it,
    counts as that input.
    """
    for out in outputs:
        for option, path in inputs.items():
            if os.path.exists(out) and os.path.exists(path) and os.path.samefile(out, path):
                raise ValueError(f"{out} is the {option} file; choose another output path")


def _cmd_index(args) -> int:
    _refuse_inputs_as_outputs([args.out], {"--corpus": args.corpus})
    docs = load_corpus(args.corpus)
    index = build_index(docs)
    index.save(args.out)
    print(f"docs={index.corpus_size} terms={index.term_count()}")
    return 0


def _cmd_search(args) -> int:
    if args.top < 0:
        raise ValueError(f"--top must be >= 0, got {args.top}")
    index = InvertedIndex.load(args.index)
    rs = search(args.query, index, query_id=args.query_id)
    top = args.top or None  # 0 prints every entry
    for rank, (doc_id, score) in enumerate(zip(rs.doc_ids(top), rs.scores[:top].tolist()), start=1):
        print(f"{rank}\t{doc_id}\t{score:.6f}")
    return 0


def _cmd_rerank(args) -> int:
    if args.query_id.split() != [args.query_id]:  # run files split their columns on whitespace
        raise ValueError(f"--query-id must be one word without whitespace, got {args.query_id!r}")
    _refuse_inputs_as_outputs([args.out], {"--index": args.index})
    index = InvertedIndex.load(args.index)
    config = _config_for(args.mode, args.field, args.k, args.missing)
    rs = search(args.query, index, query_id=args.query_id)
    ranked = rerank(rs, config, index)
    write_run_file([ranked], args.out)
    print(f"retained={ranked.set_size} dropped={ranked.dropped}")
    return 0


def _cmd_eval(args) -> int:
    from .evaluation import load_qrels, load_topics, run_evaluation, write_report  # eval alone runs them

    mode_names = [name.strip() for name in args.modes.split(",") if name.strip()]
    if not mode_names:
        raise ValueError("--modes must name at least one mode")
    for i, name in enumerate(mode_names):
        if name not in _MODE_NAMES:
            raise ValueError(f"unknown mode {name!r}")
        if name in mode_names[:i]:
            raise ValueError(f"mode {name!r} is repeated in --modes")
    # parse and validate every input before writing anything;
    # --field feeds combined mode only (brad/lotka imply their own)
    configs = [
        _config_for(name, args.field if name == Mode.COMBINED.value else None, args.k)
        for name in mode_names
    ]
    reports = [f"{args.out}.report.csv", f"{args.out}.report.txt"]
    run_files = [f"{args.out}.{config.run_tag}.run" for config in configs]  # report.runs follow configs
    _refuse_inputs_as_outputs(reports + run_files,
                              {"--index": args.index, "--topics": args.topics, "--qrels": args.qrels})
    index = InvertedIndex.load(args.index)
    topics = load_topics(args.topics)
    qrels = load_qrels(args.qrels)

    report = run_evaluation(index, topics, qrels, configs)
    write_report(report, *reports)
    for run, path in zip(report.runs, run_files):
        write_run_file(run.ranked, path)
    print(f"topics={len(topics)} runs={len(configs)} report={reports[0]}")
    return 0


def _cmd_analyze(args) -> int:
    series_files = [f"{args.out}.csv", f"{args.out}.loglog.csv"]
    _refuse_inputs_as_outputs(series_files, {"--index": args.index})
    index = InvertedIndex.load(args.index)
    rs = search(args.query, index, query_id="analyze")
    table = entity_frequencies(rs, EntityField(args.field), index)
    series = rank_frequency_series(table)
    if len(series) < 2:
        print(f"error: result set has {len(series)} distinct entities, need at least 2", file=sys.stderr)
        return 2
    fit = fit_power_law(series)
    export_series_csv(table, *series_files)
    print(f"alpha={fit.alpha:.4f} c={fit.c:.4f} r2={fit.r_squared:.4f}")
    return 0


_COMMANDS = {
    "index": _cmd_index,
    "search": _cmd_search,
    "rerank": _cmd_rerank,
    "eval": _cmd_eval,
    "analyze": _cmd_analyze,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # CLI boundary: report and exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
