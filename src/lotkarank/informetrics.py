"""Entity-frequency distributions over result sets and power-law fitting.

Counts how many retrieved documents share a metadata entity (journal ISSN
or author name), turns the counts into a rank-frequency series, and fits
f(x) = c * x**-alpha by least squares in log-log space. The counts, one
tally by entity code (``EntityFrequencyTable.tally``) and each document's
entity frequency (``doc_ef``), come from ``InvertedIndex.entity_counts``;
the ranked series comes from the tally.
"""
import math
from dataclasses import dataclass

import numpy as np

from .corpus import EntityField
from .index import InvertedIndex, ResultSet, descending
from .output import write_files


@dataclass(eq=False)
class EntityFrequencyTable:
    """How many result-set documents carry each entity value, as a tally by entity code."""

    field: EntityField
    names: list[str]  # the value of each code, in name (code-point) order
    tally: np.ndarray  # result-set documents carrying each code
    covered_docs: int  # result-set documents with at least one value
    doc_ef: np.ndarray  # entity frequency of each entry in rank order, 0 where the field is missing

    @property
    def counts(self) -> dict[str, int]:
        """Entity value -> count of each value the result set carries, in code order; built on read."""
        return dict(self._named(np.flatnonzero(self.tally)))

    def _named(self, codes) -> list[tuple[str, int]]:
        return list(zip(map(self.names.__getitem__, codes.tolist()), self.tally[codes].tolist()))


@dataclass
class PowerLawFit:
    c: float
    alpha: float
    r_squared: float


def entity_frequencies(rs: ResultSet, field: EntityField, index: InvertedIndex) -> EntityFrequencyTable:
    """Count entity occurrences across the result set.

    A document increments one count per distinct value it carries (one for
    its journal, one per author); documents without the field contribute
    nothing. The table's doc_ef holds each entry's entity frequency: the
    largest count among its values, so a document counts as strongly as its
    most frequent entity, and 0 when it lacks the field. A covered
    document's ef is at least 1, so covered_docs counts the nonzero ones.
    """
    names, tally, doc_ef = index.entity_counts(field, rs.positions)
    return EntityFrequencyTable(field, names, tally, int(np.count_nonzero(doc_ef)), doc_ef)


def _ranked_entities(table: EntityFrequencyTable) -> list[tuple[str, int]]:
    """(entity, count) pairs, count desc; equal counts keep code order, which is name order."""
    seen = np.flatnonzero(table.tally)
    return table._named(seen[descending(table.tally[seen])])


def rank_frequency_series(table: EntityFrequencyTable) -> list[tuple[int, int]]:
    """(rank, frequency) pairs, frequencies descending, 1-based ranks."""
    return [(rank, count) for rank, (_, count) in enumerate(_ranked_entities(table), start=1)]


def fit_power_law(series) -> PowerLawFit:
    """Fit f(x) = c * x**-alpha to a rank-frequency series.

    Ordinary least squares on (ln rank, ln frequency): the slope is -alpha,
    the intercept ln c, and r_squared the coefficient of determination.
    A series whose frequencies are all equal is the flat case of the law:
    its residual is 0, so it gets alpha = 0, c = the common frequency and
    r_squared = 1 (the usual r_squared formula is 0/0 there). Needs at
    least 2 points with positive frequencies and at least 2 distinct ranks.
    """
    if len(series) < 2:
        raise ValueError("power-law fit needs at least 2 points")
    ranks = [rank for rank, _ in series]
    freqs = [freq for _, freq in series]
    if any(freq <= 0 for freq in freqs):
        raise ValueError("power-law fit needs positive frequencies")
    if min(ranks) == max(ranks):
        raise ValueError("power-law fit needs at least 2 distinct ranks")
    if min(freqs) == max(freqs):
        return PowerLawFit(c=float(freqs[0]), alpha=0.0, r_squared=1.0)
    x = np.log(np.asarray(ranks, dtype=np.float64))
    y = np.log(np.asarray(freqs, dtype=np.float64))
    dx, dy = x - x.mean(), y - y.mean()
    sxx, sxy, syy = float(dx @ dx), float(dx @ dy), float(dy @ dy)
    slope = sxy / sxx
    r = min(max(sxy / math.sqrt(sxx * syy), -1.0), 1.0)
    return PowerLawFit(
        c=math.exp(float(y.mean()) - slope * float(x.mean())),
        alpha=0.0 - slope,  # never -0.0, as -slope would be for a slope of 0.0
        r_squared=r * r,
    )


def export_series_csv(table: EntityFrequencyTable, linear_path, loglog_path):
    """Write the series to linear_path (rank,frequency,entity) and loglog_path.

    The log-log companion uses natural logs and is ready for straight-line
    plotting. Both files are written or neither (see output.write_files).
    """
    import csv  # analyze is the one command that writes CSV series
    import io

    linear, loglog = io.StringIO(), io.StringIO()
    linear_writer = csv.writer(linear, lineterminator="\n")
    loglog_writer = csv.writer(loglog, lineterminator="\n")
    linear_writer.writerow(["rank", "frequency", "entity"])
    loglog_writer.writerow(["log_rank", "log_frequency"])
    for rank, (entity, count) in enumerate(_ranked_entities(table), start=1):
        linear_writer.writerow([rank, count, entity])
        loglog_writer.writerow([math.log(rank), math.log(count)])
    write_files([(linear_path, linear.getvalue().encode("utf-8")),
                 (loglog_path, loglog.getvalue().encode("utf-8"))])
