"""Retrieval evaluation: topics, qrels, precision@k, overlap, and reports.

Precision uses a fixed denominator k (short result lists are penalized).
Relevance is binary: qrel grade > 0. Macro-averages are arithmetic means
over topics, with empty result sets contributing zero.
"""
import csv
import io
import itertools
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .corpus import open_text
from .index import InvertedIndex, ResultSet, search
from .output import write_files
from .rerank import rerank, run_files

PRECISION_CUTOFFS = (5, 10, 20, 30, 100)
OVERLAP_K = 10


def parse_topics(lines) -> dict[str, str]:
    """Parse 'topic_id<TAB>query_text' lines into {topic_id: query_text} in file order; skip blank lines."""
    topics = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if "\t" not in line:
            raise ValueError(f"topics line {lineno}: expected 'topic_id<TAB>query'")
        topic_id, query_text = line.split("\t", 1)
        topic_id = topic_id.strip()
        if not topic_id:
            raise ValueError(f"topics line {lineno}: empty topic_id")
        if topic_id.split() != [topic_id]:  # run files and qrels split their columns on whitespace
            raise ValueError(f"topics line {lineno}: topic_id {topic_id!r} contains whitespace")
        if topic_id in topics:
            raise ValueError(f"topics line {lineno}: duplicate topic_id {topic_id!r}")
        topics[topic_id] = query_text.strip()
    return topics


def load_topics(path) -> dict[str, str]:
    """parse_topics on a UTF-8 file: {topic_id: query_text} in file order."""
    with open_text(path) as fin:
        return parse_topics(fin)


def parse_qrels(lines) -> dict[tuple[str, str], int]:
    """Parse 4-column judgment lines, topic_id 0 doc_id grade, into {(topic_id, doc_id): grade}."""
    judgments: dict[tuple[str, str], int] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"qrels line {lineno}: expected 4 columns, got {len(parts)}")
        topic_id, _, doc_id, grade_text = parts
        # an optional sign and ASCII digits; int() would also take "1_0" or non-ASCII digits
        digits = grade_text[1:] if grade_text[0] in "+-" else grade_text
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"qrels line {lineno}: grade {grade_text!r} is not an integer")
        grade = int(grade_text)
        if grade < 0:
            raise ValueError(f"qrels line {lineno}: negative grade")
        if (topic_id, doc_id) in judgments:
            raise ValueError(f"qrels line {lineno}: duplicate judgment for ({topic_id}, {doc_id})")
        judgments[(topic_id, doc_id)] = grade
    return judgments


def load_qrels(path) -> dict[tuple[str, str], int]:
    with open_text(path) as fin:
        return parse_qrels(fin)


@dataclass
class TopicMetrics:
    """One report row: a topic's counts and precision@k, or the ALL row's sums and mean precisions."""

    retrieved: int
    relevant_retrieved: int
    dropped: int
    precision: dict[int, float]


@dataclass
class RunResult:
    """One ranking configuration's ranked lists and report rows."""

    tag: str
    per_topic: dict[str, TopicMetrics]
    ranked: list[ResultSet]  # one per topic, in topic order
    total: TopicMetrics  # the ALL row


@dataclass
class EvalReport:
    topic_ids: list[str]
    runs: list[RunResult]
    mean_overlap: list[tuple[str, str, float]]  # pairwise mean top-10 overlap
    unknown_qrel_topics: int


def run_evaluation(index: InvertedIndex, topics: dict[str, str], qrels: dict[tuple[str, str], int],
                   configs) -> EvalReport:
    """Search every topic once, rerank it under every config and collect metrics.

    topics maps topic_id to query text, as load_topics returns it; the
    report keeps its order. The id 'ALL' is a ValueError: it names the
    report's summary rows.
    Each RunResult holds one TopicMetrics per topic and its ALL row (total):
    the counts summed and the precisions, like the pairwise top-10 overlaps,
    averaged over all topics. With no topics every mean is 0.0.
    qrels maps (topic_id, doc_id) to a grade, as load_qrels returns it; a
    negative grade is a ValueError. The configs' run tags must be unique.
    Qrel topics that are not in topics are ignored; their count is reported.
    A judged doc_id that is not in the index is never retrieved, so it is
    skipped. The metrics read the ranked lists' index positions: a topic's
    relevant documents (grade > 0) are one boolean mask over the index,
    and the ranked lists are compared by position, which the doc_ids
    follow. Deterministic: identical inputs give identical reports.
    """
    if not configs:
        raise ValueError("at least one ranking config is required")
    if "ALL" in topics:
        raise ValueError("topic_id 'ALL' names the report's summary rows")
    unknown = {topic_id for topic_id, _ in qrels} - topics.keys()
    tags = set()
    for config in configs:
        if config.run_tag in tags:  # report rows and run files are named by tag
            raise ValueError(f"duplicate run tag {config.run_tag!r}")
        tags.add(config.run_tag)

    judged = defaultdict(list)  # topic_id -> index positions of its relevant documents
    for (topic_id, doc_id), grade in qrels.items():
        if grade < 0:
            raise ValueError(f"negative grade for ({topic_id}, {doc_id})")
        if grade > 0 and topic_id in topics:
            try:
                judged[topic_id].append(index.position(doc_id))
            except KeyError:
                pass

    per_topic = [{} for _ in configs]  # per config: topic_id -> TopicMetrics
    ranked_lists = [[] for _ in configs]  # per config: one ResultSet per topic
    for topic_id, query_text in topics.items():
        rs = search(query_text, index, query_id=topic_id)
        relevant = np.zeros(index.corpus_size, dtype=bool)
        relevant[judged[topic_id]] = True
        for config, rows, ranked_list in zip(configs, per_topic, ranked_lists):
            ranked = rerank(rs, config, index)
            ranked_list.append(ranked)
            hits = relevant[ranked.positions]
            # found[i]: relevant documents among the top i
            found = [0, *np.cumsum(hits[:PRECISION_CUTOFFS[-1]]).tolist()]
            rows[topic_id] = TopicMetrics(
                retrieved=ranked.set_size,
                relevant_retrieved=int(np.count_nonzero(hits)),
                dropped=ranked.dropped,
                precision={k: found[min(k, len(found) - 1)] / k for k in PRECISION_CUTOFFS},
            )
    n_topics = max(len(topics), 1)  # with no topics every sum is 0, so every mean is 0.0
    runs = [
        RunResult(config.run_tag, rows, ranked_list, TopicMetrics(
            retrieved=sum(m.retrieved for m in rows.values()),
            relevant_retrieved=sum(m.relevant_retrieved for m in rows.values()),
            dropped=sum(m.dropped for m in rows.values()),
            precision={k: sum(m.precision[k] for m in rows.values()) / n_topics for k in PRECISION_CUTOFFS},
        ))
        for config, rows, ranked_list in zip(configs, per_topic, ranked_lists)
    ]
    overlaps = [
        (a.tag, b.tag, sum(
            np.intersect1d(x.positions[:OVERLAP_K], y.positions[:OVERLAP_K], assume_unique=True).size
            for x, y in zip(a.ranked, b.ranked)) / n_topics)
        for a, b in itertools.combinations(runs, 2)
    ]

    return EvalReport(
        topic_ids=list(topics),
        runs=runs,
        mean_overlap=overlaps,
        unknown_qrel_topics=len(unknown),
    )


def report_csv(report: EvalReport) -> str:
    """One row per (topic, run) plus an ALL summary row per run.

    Columns: topic_id, run, retrieved, relevant_retrieved, dropped,
    p5, p10, p20, p30, p100. Precisions carry 6 decimals.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["topic_id", "run", "retrieved", "relevant_retrieved", "dropped"]
        + [f"p{k}" for k in PRECISION_CUTOFFS]
    )
    rows = [(topic_id, run.tag, run.per_topic[topic_id]) for topic_id in report.topic_ids for run in report.runs]
    rows += [("ALL", run.tag, run.total) for run in report.runs]
    for topic_id, tag, m in rows:
        writer.writerow(
            [topic_id, tag, m.retrieved, m.relevant_retrieved, m.dropped]
            + [f"{m.precision[k]:.6f}" for k in PRECISION_CUTOFFS]
        )
    return buf.getvalue()


def report_table(report: EvalReport) -> str:
    """Plain-text p@k grid plus the pairwise mean top-10 overlap."""
    lines = ["macro precision"]
    header = f"{'run':<18}" + "".join(f"{'p@' + str(k):>8}" for k in PRECISION_CUTOFFS)
    lines.append(header)
    for run in report.runs:
        lines.append(
            f"{run.tag:<18}" + "".join(f"{run.total.precision[k]:>8.4f}" for k in PRECISION_CUTOFFS)
        )
    lines.append("")
    lines.append(f"{'run':<18}{'retrieved':>10}{'relevant':>10}{'dropped':>10}")
    for run in report.runs:
        m = run.total
        lines.append(f"{run.tag:<18}{m.retrieved:>10}{m.relevant_retrieved:>10}{m.dropped:>10}")
    if report.mean_overlap:
        lines.append("")
        lines.append(f"mean top-{OVERLAP_K} overlap")
        for tag_a, tag_b, mean in report.mean_overlap:
            lines.append(f"{tag_a + ' vs ' + tag_b:<30}{mean:>8.2f}")
    lines.append("")
    lines.append(
        f"topics evaluated: {len(report.topic_ids)}"
        f" (qrel topics without a topic entry: {report.unknown_qrel_topics})"
    )
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, csv_path, table_path, run_paths):
    """Write report_csv, report_table and each run's run file to run_paths (in report.runs order), all or none.

    One output.write_files call commits them, so a ValueError (a run_paths count that is not the runs'
    count, or a query id or tag with whitespace) or an OSError before any rename leaves none written.
    """
    write_files([(csv_path, report_csv(report).encode("utf-8")), (table_path, report_table(report).encode("utf-8")),
                 *run_files(zip(run_paths, [run.ranked for run in report.runs], strict=True))])
