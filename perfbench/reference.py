"""Independent reference results computed from the generated corpus arrays.

Nothing here imports lotkarank. tf-idf is a full scan of the token
matrix (no inverted index), entity counts come straight from the
journal/author id arrays, and every ordering is a numpy lexsort on the
documented keys. Float arithmetic follows the documented formulas in the
documented order, so scores match the program bit for bit:
score = sum over query tokens of tf * ln(N / df); combined =
tfidf * (ef / N) ** k with Python's pow once per distinct ef.
"""
import csv
import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

import gen

PRECISION_CUTOFFS = (5, 10, 20, 30, 100)
OVERLAP_K = 10


@dataclass
class Ranked:
    positions: np.ndarray  # document positions (= doc_id order), best first
    scores: np.ndarray  # final score per entry
    dropped: int = 0

    def doc_ids(self) -> list:
        return [gen.doc_id(p) for p in self.positions.tolist()]


@dataclass
class Entities:
    names: list  # entity name per entity id
    counts: np.ndarray  # result-set count per entity id
    covered: int  # result-set docs carrying the field
    ef: np.ndarray  # per result-set entry: max count over its values, 0 if missing

    @property
    def distinct(self) -> int:
        return int(np.count_nonzero(self.counts))


def run_tag(mode, k):
    return f"combined_k{float(k)}" if mode == "combined" else mode


def query_word_ids(query):
    return [int(w[1:]) for w in query.split()]


class Reference:
    def __init__(self, corpus: gen.Corpus, n_journals, n_authors):
        self.corpus = corpus
        self.n = corpus.n_docs
        self.n_journals = n_journals
        self.n_authors = n_authors
        self.author_ids = np.full((self.n, gen.MAX_AUTHORS), -1, dtype=np.int64)
        for i, auth in enumerate(corpus.authors):
            self.author_ids[i, : len(auth)] = auth
        self._search_cache = {}

    def postings(self, query) -> int:
        """Postings a term-at-a-time search reads: sum of df over the query tokens."""
        return int(sum(int(self.corpus.df[v]) for v in query_word_ids(query)))

    def search(self, query) -> Ranked:
        if query not in self._search_cache:
            scores = np.zeros(self.n, dtype=np.float64)
            for v in query_word_ids(query):
                df = int(self.corpus.df[v])
                if df == 0:
                    continue
                tf = np.count_nonzero(self.corpus.tokens == v, axis=1).astype(np.float64)
                scores += tf * math.log(self.n / df)
            pos = np.flatnonzero(scores > 0.0)
            order = np.lexsort((pos, -scores[pos]))
            self._search_cache[query] = Ranked(pos[order], scores[pos][order])
        return self._search_cache[query]

    def entities(self, rs: Ranked, field) -> Entities:
        if field == "journal":
            ids = self.corpus.journals[rs.positions]
            has = ids >= 0
            counts = np.bincount(ids[has], minlength=self.n_journals)
            ef = np.where(has, counts[np.where(has, ids, 0)], 0)
            names = [gen.issn(j) for j in range(self.n_journals)]
            return Entities(names, counts, int(np.count_nonzero(has)), ef)
        ids = self.author_ids[rs.positions]
        has = ids >= 0
        counts = np.bincount(ids[has], minlength=self.n_authors)
        ef = np.where(has, counts[np.where(has, ids, 0)], 0).max(axis=1, initial=0)
        names = [gen.author_name(a) for a in range(self.n_authors)]
        return Entities(names, counts, int(np.count_nonzero(has.any(axis=1))), ef)

    def rerank(self, query, mode, field=None, k=1.0, missing="drop") -> Ranked:
        rs = self.search(query)
        if mode == "tfidf":
            return rs
        field = {"brad": "journal", "lotka": "author"}.get(mode, field)
        ef = self.entities(rs, field).ef
        has = ef > 0
        if mode in ("brad", "lotka"):
            pos, sc, e = rs.positions[has], rs.scores[has], ef[has]
            order = np.lexsort((pos, -sc, -e))
            return Ranked(pos[order], e[order].astype(np.float64), int(np.count_nonzero(~has)))
        n = rs.positions.shape[0]
        factor = np.ones(n, dtype=np.float64)
        for value in np.unique(ef[has]).tolist():
            factor[ef == value] = (value / n) ** float(k)
        scores = rs.scores * factor
        scores[~has] = rs.scores[~has]  # passthrough keeps the tf-idf score itself
        keep = has if missing == "drop" else np.ones(n, dtype=bool)
        pos, sc = rs.positions[keep], scores[keep]
        order = np.lexsort((pos, -sc))
        return Ranked(pos[order], sc[order], int(np.count_nonzero(~keep)))

    # ---- expected program outputs -------------------------------------

    def search_stdout(self, query, top=10) -> bytes:
        rs = self.search(query)
        ids, scores = rs.doc_ids()[:top], rs.scores[:top].tolist()
        return "".join(f"{r}\t{d}\t{s:.6f}\n" for r, (d, s) in enumerate(zip(ids, scores), 1)).encode()

    @staticmethod
    def run_lines(qid, ranked: Ranked, tag) -> str:
        ids, scores = ranked.doc_ids(), ranked.scores.tolist()
        return "".join(f"{qid} Q0 {d} {r} {s:.6f} {tag}\n" for r, (d, s) in enumerate(zip(ids, scores), 1))

    @staticmethod
    def digest(ranked: Ranked) -> str:
        """sha1 over doc ids, float64 scores and int64 ranks; see child.digest."""
        h = hashlib.sha1("\n".join(ranked.doc_ids()).encode())
        h.update(b"|")
        h.update(ranked.scores.astype("<f8").tobytes())
        h.update(b"|")
        h.update(np.arange(1, ranked.positions.shape[0] + 1, dtype="<i8").tobytes())
        return h.hexdigest()

    def analyze(self, query, field):
        """(alpha, c, r2) of the log-log least-squares fit, plus both CSV files."""
        ent = self.entities(self.search(query), field)
        ranked = sorted(
            ((ent.names[i], int(c)) for i, c in enumerate(ent.counts.tolist()) if c > 0),
            key=lambda item: (-item[1], item[0]),
        )
        x = np.log(np.arange(1, len(ranked) + 1, dtype=np.float64))
        y = np.log(np.array([c for _, c in ranked], dtype=np.float64))
        dx, dy = x - x.mean(), y - y.mean()
        slope = float((dx * dy).sum() / (dx * dx).sum())
        r2 = float((dx * dy).sum() ** 2 / ((dx * dx).sum() * (dy * dy).sum()))
        fit = (-slope, math.exp(float(y.mean()) - slope * float(x.mean())), r2)
        linear, loglog = io.StringIO(), io.StringIO()
        w1 = csv.writer(linear, lineterminator="\n")
        w2 = csv.writer(loglog, lineterminator="\n")
        w1.writerow(["rank", "frequency", "entity"])
        w2.writerow(["log_rank", "log_frequency"])
        for rank, (name, count) in enumerate(ranked, start=1):
            w1.writerow([rank, count, name])
            w2.writerow([math.log(rank), math.log(count)])
        return fit, linear.getvalue().encode(), loglog.getvalue().encode()

    def evaluation(self, topics, relevant, configs, n_unknown):
        """Expected report.csv, report.txt and run files of `lotkarank eval`.

        topics: [(topic_id, query)]; relevant: topic_id -> set of doc ids;
        configs: [(mode, field, k)]. Returns {file suffix: expected bytes}.
        """
        files, lists, rows, totals = {}, [], [], []
        for mode, field, k in configs:
            tag = run_tag(mode, k)
            per_config, per_topic = [], []
            for topic_id, query in topics:
                ranked = self.rerank(query, mode, field, k)
                ids = ranked.doc_ids()
                rel = relevant.get(topic_id, set())
                prec = [sum(1 for d in ids[:cut] if d in rel) / cut for cut in PRECISION_CUTOFFS]
                per_topic.append((len(ids), sum(1 for d in ids if d in rel), ranked.dropped, prec))
                per_config.append(ranked)
            lists.append(per_config)
            files[f"{tag}.run"] = "".join(
                self.run_lines(tid, r, tag) for (tid, _), r in zip(topics, per_config)
            ).encode()
            macro = [sum(p[3][i] for p in per_topic) / len(topics) for i in range(len(PRECISION_CUTOFFS))]
            totals.append((tag, *(sum(p[j] for p in per_topic) for j in range(3)), macro))
            rows.append((tag, per_topic))
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["topic_id", "run", "retrieved", "relevant_retrieved", "dropped"]
                   + [f"p{c}" for c in PRECISION_CUTOFFS])
        for t, (topic_id, _) in enumerate(topics):
            for tag, per_topic in rows:
                got, rel, drop, prec = per_topic[t]
                w.writerow([topic_id, tag, got, rel, drop] + [f"{p:.6f}" for p in prec])
        for tag, got, rel, drop, macro in totals:
            w.writerow(["ALL", tag, got, rel, drop] + [f"{p:.6f}" for p in macro])
        files["report.csv"] = out.getvalue().encode()

        lines = ["macro precision", f"{'run':<18}" + "".join(f"{'p@' + str(c):>8}" for c in PRECISION_CUTOFFS)]
        lines += [f"{tag:<18}" + "".join(f"{p:>8.4f}" for p in macro) for tag, _, _, _, macro in totals]
        lines += ["", f"{'run':<18}{'retrieved':>10}{'relevant':>10}{'dropped':>10}"]
        lines += [f"{tag:<18}{got:>10}{rel:>10}{drop:>10}" for tag, got, rel, drop, _ in totals]
        if len(configs) > 1:
            lines += ["", f"mean top-{OVERLAP_K} overlap"]
            for i in range(len(configs)):
                for j in range(i + 1, len(configs)):
                    shared = sum(
                        len(set(lists[i][t].doc_ids()[:OVERLAP_K]) & set(lists[j][t].doc_ids()[:OVERLAP_K]))
                        for t in range(len(topics))
                    )
                    pair = f"{totals[i][0]} vs {totals[j][0]}"
                    lines.append(f"{pair:<30}{shared / len(topics):>8.2f}")
        lines += ["", f"topics evaluated: {len(topics)} (qrel topics without a topic entry: {n_unknown})"]
        files["report.txt"] = ("\n".join(lines) + "\n").encode()
        return files
