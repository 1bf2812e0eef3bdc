"""Independent naive implementations used as test oracles.

Everything here recomputes results from first principles (full scans, no
inverted index, no shared code paths with the package) so the package can
be checked against it.
"""
import math
from collections import Counter


def naive_tokenize(text):
    tokens, current = [], []
    for ch in text.lower():
        if ch.isalnum() and ch != "_":
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens


def naive_search(records, query_text):
    """Score every document directly and sort; returns (doc_id, score, rank) triples."""
    tokens = naive_tokenize(query_text)
    n = len(records)
    doc_counts = {
        rec.doc_id: Counter(naive_tokenize(rec.title) + naive_tokenize(rec.body)) for rec in records
    }
    df = {
        token: sum(1 for counts in doc_counts.values() if counts[token] > 0) for token in set(tokens)
    }
    scored = []
    for rec in records:
        counts = doc_counts[rec.doc_id]
        score = 0.0
        for token in tokens:
            if df[token] == 0 or counts[token] == 0:
                continue
            score += counts[token] * math.log(n / df[token])
        if score > 0.0:
            scored.append((rec.doc_id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [(doc_id, score, rank) for rank, (doc_id, score) in enumerate(scored, start=1)]


def _field_values(rec, field_name):
    if field_name == "journal":
        return [rec.journal_issn] if rec.journal_issn else []
    return list(rec.authors)


def naive_entity_counts(records, result_doc_ids, field_name):
    by_id = {rec.doc_id: rec for rec in records}
    counts = {}
    for doc_id in result_doc_ids:
        for value in _field_values(by_id[doc_id], field_name):
            counts[value] = counts.get(value, 0) + 1
    return counts


def naive_doc_ef(rec, counts, field_name):
    values = [counts[v] for v in _field_values(rec, field_name) if v in counts]
    return max(values) if values else None


def naive_rerank(records, entries, mode, field_name=None, k=1.0, missing="drop"):
    """Re-rank (doc_id, tfidf, rank) triples by brute force.

    mode: 'tfidf' | 'brad' | 'lotka' | 'combined'. Field-missing documents
    are dropped, except in combined mode with missing='passthrough', which
    keeps them at their tfidf score. Returns (triples, dropped).
    """
    if mode == "tfidf":
        return list(entries), 0
    field_name = {"brad": "journal", "lotka": "author"}.get(mode, field_name)
    by_id = {rec.doc_id: rec for rec in records}
    counts = naive_entity_counts(records, [doc_id for doc_id, _, _ in entries], field_name)
    n = len(entries)
    kept, dropped = [], 0
    for doc_id, tfidf, _ in entries:
        ef = naive_doc_ef(by_id[doc_id], counts, field_name)
        if ef is None and not (mode == "combined" and missing == "passthrough"):
            dropped += 1
            continue
        kept.append((doc_id, tfidf, ef))
    if mode == "combined":
        scored = [(doc_id, tfidf if ef is None else tfidf * (ef / n) ** k) for doc_id, tfidf, ef in kept]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
    else:
        kept.sort(key=lambda item: (-item[2], -item[1], item[0]))
        scored = [(doc_id, float(ef)) for doc_id, _, ef in kept]
    return [(doc_id, score, rank) for rank, (doc_id, score) in enumerate(scored, start=1)], dropped


def is_relevant(qrels, topic_id, doc_id):
    """Whether the qrels judge the document relevant to the topic (grade > 0)."""
    return qrels.get((topic_id, doc_id), 0) > 0


def precision_at_k(ranked, qrels, k):
    """Relevant documents among a ResultSet's top min(k, len) entries, divided by k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    relevant = sum(1 for doc_id in ranked.doc_ids(k) if is_relevant(qrels, ranked.query_id, doc_id))
    return relevant / k


def overlap_at_k(a, b, k):
    """Size of the intersection of two ResultSets' top-k doc_id sets."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return len(set(a.doc_ids(k)).intersection(b.doc_ids(k)))


def naive_run_lines(query_id, doc_ids, scores, tag):
    """One run line per entry: the score as the list's own Python number, formatted alone."""
    return "".join(f"{query_id} Q0 {d} {r} {s:.6f} {tag}\n" for r, (d, s) in enumerate(zip(doc_ids, scores), 1))
