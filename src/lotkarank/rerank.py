"""Re-rank tf-idf result sets by entity frequency.

Three strategies: pure frequency ordering by journal (brad) or author
(lotka), and the combined score tfidf * (ef / N)**k. Positive k favors
mainstream entities, negative k the long tail; k = 0 collapses to the
tf-idf order. ``rerank`` is the one path for all of them: it reads each
document's entity frequency from ``entity_frequencies(...).doc_ef`` and
keeps the documents the mode keeps. It takes a result set in search
order (score desc, doc_id asc), so one stable sort on the frequency
gives every mode (ef desc, tf-idf desc, doc_id asc), field-missing
documents last; brad/lotka stop there. Combined scores each distinct
(ef, tf-idf) pair once, ranks the pairs' scores and orders the
documents with one sort of integer keys, pair rank then position.
Every strategy returns a ResultSet over the same index, so a re-ranked
list is the same type as the tf-idf set it came from.
"""
import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain, repeat

import numpy as np

from .index import InvertedIndex, ResultSet
from .informetrics import EntityField, entity_frequencies
from .output import write_files


class Mode(Enum):
    TFIDF = "tfidf"
    BRADFORD = "brad"
    LOTKA = "lotka"
    COMBINED = "combined"


class MissingPolicy(Enum):
    DROP = "drop"
    PASSTHROUGH = "passthrough"


_IMPLIED_FIELD = {Mode.BRADFORD: EntityField.JOURNAL, Mode.LOTKA: EntityField.AUTHOR}


@dataclass
class RankingConfig:
    """Mode plus the entity field, exponent, and missing-field policy it needs."""

    mode: Mode
    field: EntityField | None = None
    k: float = 1.0
    missing_policy: MissingPolicy = MissingPolicy.DROP

    def __post_init__(self):
        self.k = float(self.k)
        if not math.isfinite(self.k):
            raise ValueError("k must be finite")
        implied = _IMPLIED_FIELD.get(self.mode)
        if implied is not None:
            if self.field is None:
                self.field = implied
            elif self.field is not implied:
                raise ValueError(f"mode {self.mode.value} requires field {implied.value}")
        if self.mode is Mode.COMBINED and self.field is None:
            raise ValueError("combined mode requires an entity field")

    @property
    def run_tag(self) -> str:
        if self.mode is Mode.COMBINED:
            return f"combined_k{self.k}"
        return self.mode.value


def _out_of_range(k: float, what: str) -> ValueError:
    return ValueError(f"k={k} makes a combined score {what}; use a k of smaller magnitude")


def _check_search_order(rs: ResultSet):
    """ValueError unless rs is in search order: scores non-increasing, positions ascending on ties."""
    scores, positions = rs.scores, rs.positions
    later, earlier = scores[1:], scores[:-1]
    if not ((later < earlier) | ((later == earlier) & (positions[1:] > positions[:-1]))).all():
        raise ValueError("rerank needs a result set in search order "
                         "(score descending, then doc_id ascending), as search returns it")


def rerank(rs: ResultSet, config: RankingConfig, index: InvertedIndex) -> ResultSet:
    """Apply one ranking strategy to a tf-idf result set in search order.

    ``rs`` must be in the order ``search`` returns it (score desc, doc_id
    asc); ValueError otherwise. The result is a copy of ``rs`` with the new
    order and scores, the config's run tag and the count of the documents
    it dropped; ``rs`` itself is left unchanged. TFIDF passes any set
    through unchanged. BRADFORD/LOTKA order by entity frequency alone,
    ties keeping their tf-idf order, score each document with its
    frequency and always drop field-missing documents. COMBINED scores
    retained documents with tfidf * (ef / N)**k where N is the full
    result-set size; the missing policy decides whether field-missing
    documents are dropped or kept at their tf-idf score. ValueError naming
    k if a combined score overflows or underflows to 0.
    """
    if config.mode is Mode.TFIDF:
        return replace(rs, tag=config.run_tag, dropped=0)
    _check_search_order(rs)
    table = entity_frequencies(rs, config.field, index)
    n, ef = rs.set_size, table.doc_ef
    # (ef desc, tfidf desc, doc_id asc): rs is in search order, so one stable sort on ef
    # desc gives it, by radix at 16 bits or fewer; field-missing documents (ef 0) go last
    by_ef = np.argsort((n - ef).astype(np.min_scalar_type(n)), kind="stable")
    combined = config.mode is Mode.COMBINED
    if not combined or config.missing_policy is MissingPolicy.DROP:
        by_ef = by_ef[:table.covered_docs]
    positions, ef = rs.positions[by_ef], ef[by_ef]
    if not combined:
        return replace(rs, positions=positions, scores=ef.astype(np.float64), tag=config.run_tag,
                       dropped=n - len(by_ef))
    tfidf = rs.scores[by_ef]
    # in ef order the documents of one (ef, tf-idf) pair are adjacent and share one score,
    # the same multiply, so each pair is scored once, at its first document
    first = np.ones(len(ef), dtype=bool)
    first[1:] = (ef[1:] != ef[:-1]) | (tfidf[1:] != tfidf[:-1])
    pair_ef = ef[first]
    # the factor (ef / n) ** k with Python's pow, once per distinct ef (np.power can
    # differ in the last bit), looked up by ef; field-missing documents (ef 0) keep
    # 1.0, their tf-idf score
    factor = np.ones(n + 1, dtype=np.float64)
    distinct = np.flatnonzero(np.bincount(pair_ef)[1:]) + 1
    try:
        factor[distinct] = [(e / n) ** config.k for e in distinct.tolist()]
    except OverflowError:  # Python's float pow raises where np.power would give inf
        raise _out_of_range(config.k, "overflow") from None
    with np.errstate(over="ignore"):
        scores = tfidf[first] * factor[pair_ef]
    if np.isinf(scores).any():
        raise _out_of_range(config.k, "overflow")
    if not scores.all():  # a tf-idf score is > 0, so a 0.0 is an underflow
        raise _out_of_range(config.k, "underflow to 0")
    # (score desc, doc_id asc): only the pairs' scores are ranked, and equal scores of
    # different pairs share a rank. One sort of rank << shift | position then orders
    # the documents; the keys are distinct, so the sort need not be stable.
    negated, rank = np.unique(-scores, return_inverse=True)
    shift = (index.corpus_size - 1).bit_length()
    keys = rank[np.cumsum(first) - 1] << shift | positions
    keys.sort()
    return replace(rs, positions=keys & ((1 << shift) - 1), scores=-negated[keys >> shift],
                   tag=config.run_tag, dropped=n - len(by_ef))


def _run_text(ranked: ResultSet, ranks: list[str]) -> str:
    """The list's run lines as one string; ranks[i] is " {i + 1}" for at least set_size ranks."""
    for column, word in (("query id", ranked.query_id), ("tag", ranked.tag)):
        if word.split() != [word]:  # the six columns are split on whitespace
            raise ValueError(f"run file {column} must be one word without whitespace, got {word!r}")
    n = ranked.set_size
    head = f"{ranked.query_id} Q0 "
    # equal scores are adjacent in a ranked list: one tail per run of equal bits (so 0.0
    # and -0.0 stay apart; a list in another order only formats more tails), each ending
    # with the next line's head, the last one trimmed
    scores = np.ascontiguousarray(ranked.scores, dtype=np.float64)
    bits = scores.view(np.uint64)
    starts = np.flatnonzero(np.diff(bits, prepend=~bits[:1]))  # ~: the first score starts a run
    lengths = np.diff(starts, append=n).tolist()
    tails = [f" {score:.6f} {ranked.tag}\n{head}" for score in scores[starts].tolist()]
    # the line "{query_id} Q0 {doc_id} {rank} {score:.6f} {tag}\n" in three parts after the first head
    parts = [head] * (3 * n + 1)
    parts[1::3] = ranked.doc_ids()
    parts[2::3] = ranks[:n]
    parts[3::3] = chain.from_iterable(map(repeat, tails, lengths))
    parts[-1] = parts[-1].removesuffix(head)
    return "".join(parts)


def run_files(runs):
    """The (path, bytes) pair of the run file of each (path, ranked lists) pair, for output.write_files.

    Each entry of a list is one 6-column line, query_id Q0 doc_id rank score
    tag, the score to 6 decimals; a file's lists follow each other in the
    order given. ValueError if a query id or tag is empty or holds whitespace.
    """
    runs = [(path, list(ranked_lists)) for path, ranked_lists in runs]
    ranks = [f" {rank}" for rank in range(1, max([r.set_size for _, lists in runs for r in lists], default=0) + 1)]
    return [(path, "".join(_run_text(ranked, ranks) for ranked in lists).encode("utf-8")) for path, lists in runs]


def write_run_file(ranked_lists, path):
    """Write run_files' file of ranked_lists (one per topic) to path, whole or not at all (see output.write_files)."""
    write_files(run_files([(path, ranked_lists)]))
