"""Deterministic synthetic inputs: corpus, query sets, topics and qrels.

Everything is drawn from one numpy Generator seeded by the workload seed,
so a seed fixes every byte the program reads. The corpus is kept as
arrays (token ids, journal ids, author ids) that the reference in
reference.py scans directly; the JSON-lines file is only what lotkarank
sees.
"""
from dataclasses import dataclass, field

import numpy as np

TITLE_LEN = 4
BODY_LEN = 36
MAX_AUTHORS = 3
MISSING_FRAC = 0.1  # share of docs without a journal, and without authors
QUERY_WORDS = 2
JUDGED_PER_TOPIC = 300
CORE_AUTHORS = 30  # the most prolific authors, whose docs are usually relevant


@dataclass
class Corpus:
    tokens: np.ndarray  # (n_docs, TITLE_LEN + BODY_LEN) vocabulary ids, title first
    journals: np.ndarray  # (n_docs,) journal id, -1 when missing
    authors: list  # per doc: tuple of distinct author ids, empty when missing
    df: np.ndarray  # documents containing each vocabulary id
    _contains: dict = field(default_factory=dict)

    @property
    def n_docs(self) -> int:
        return self.tokens.shape[0]

    def contains(self, v) -> np.ndarray:
        """Boolean mask of the documents that contain vocabulary id v."""
        if v not in self._contains:
            self._contains[v] = (self.tokens == v).any(axis=1)
        return self._contains[v]


def word(v) -> str:
    return f"w{v}"


def doc_id(i) -> str:
    # zero-padded so doc_id order is generation order
    return f"d{i:06d}"


def issn(j) -> str:
    return f"{1000 + j:04d}-{(j * 37) % 1000:03d}X"


def author_name(a) -> str:
    return f"Author {a:05d}"


def _power_law(n, exponent):
    weights = (np.arange(n, dtype=np.float64) + 1.0) ** -exponent
    return weights / weights.sum()


def make_corpus(rng, n_docs, vocab_size, n_journals, n_authors) -> Corpus:
    """Zipf vocabulary, power-law journals and authors, ~10% missing each."""
    length = TITLE_LEN + BODY_LEN
    tokens = rng.choice(vocab_size, size=(n_docs, length), p=_power_law(vocab_size, 1.0))
    tokens = tokens.astype(np.int32)
    journals = rng.choice(n_journals, size=n_docs, p=_power_law(n_journals, 1.2))
    journals[rng.random(n_docs) < MISSING_FRAC] = -1
    picks = rng.choice(n_authors, size=(n_docs, MAX_AUTHORS), p=_power_law(n_authors, 1.1))
    n_auth = rng.integers(1, MAX_AUTHORS + 1, size=n_docs)
    n_auth[rng.random(n_docs) < MISSING_FRAC] = 0
    authors = [tuple(dict.fromkeys(row[:k])) for row, k in zip(picks.tolist(), n_auth.tolist())]
    srt = np.sort(tokens, axis=1)
    first = np.ones_like(srt, dtype=bool)
    first[:, 1:] = srt[:, 1:] != srt[:, :-1]
    df = np.bincount(srt[first], minlength=vocab_size)
    return Corpus(tokens=tokens, journals=journals.astype(np.int64), authors=authors, df=df)


def write_corpus(corpus: Corpus, path):
    """JSON lines in the documented corpus format (every string is plain ASCII)."""
    words = [word(v) for v in range(int(corpus.df.shape[0]))]
    lines = []
    for i, (row, j, auth) in enumerate(zip(corpus.tokens.tolist(), corpus.journals.tolist(), corpus.authors)):
        title = " ".join([words[v] for v in row[:TITLE_LEN]])
        body = " ".join([words[v] for v in row[TITLE_LEN:]])
        names = ", ".join(f'"{author_name(a)}"' for a in auth)
        extra = f', "issn": "{issn(j)}"' if j >= 0 else ""
        lines.append(
            f'{{"id": "{doc_id(i)}", "title": "{title}", "body": "{body}", '
            f'"authors": [{names}]{extra}, "year": {1970 + i % 50}}}\n'
        )
    with open(path, "w", encoding="ascii") as fout:
        fout.writelines(lines)


# query classes: (df band of each word as fractions of N, target result-set fraction)
BROAD = (0.08, 0.6, 0.65)
MEDIUM = (0.05, 0.15, 0.2)
NARROW = (0.003, 0.008, 0.01)


def pick_query(rng, corpus: Corpus, query_class, avoid=()) -> str:
    """A query of QUERY_WORDS distinct words from the class's df band, not in `avoid`.

    Of 400 random word sets, the 8 whose estimated result-set size (words
    taken as independent) is nearest the class's target are measured
    exactly, and the nearest wins, so timings depend little on the seed.
    """
    lo, hi, target = query_class
    n = corpus.n_docs
    pool = np.flatnonzero((corpus.df >= lo * n) & (corpus.df <= hi * n))
    if pool.shape[0] < QUERY_WORDS:
        raise ValueError(f"no {QUERY_WORDS} words with df in [{lo}, {hi}] x {n}")
    sets = np.sort(np.array([rng.choice(pool, size=QUERY_WORDS, replace=False) for _ in range(400)]), axis=1)
    estimate = n * (1.0 - np.prod(1.0 - corpus.df[sets] / n, axis=1))
    best, best_gap, exact = None, None, 8
    for words in sets[np.argsort(np.abs(estimate - target * n), kind="stable")]:
        query = " ".join(word(int(v)) for v in words)
        if query in avoid:
            continue
        size = int(np.count_nonzero(np.logical_or.reduce([corpus.contains(int(v)) for v in words])))
        if best_gap is None or abs(size - target * n) < best_gap:
            best, best_gap = query, abs(size - target * n)
        exact -= 1
        if exact == 0:
            break
    if best is None:
        raise ValueError(f"no new query with df in [{lo}, {hi}] x {n}")
    return best


def make_qrels(rng, corpus: Corpus, topic_docs):
    """Judge up to JUDGED_PER_TOPIC retrieved docs per topic.

    Docs by a core author are relevant with p=0.6, the rest with p=0.1, so
    author re-ranking has something to find. Returns lines
    'topic_id 0 doc_id grade'.
    """
    lines = []
    for topic_id, docs in topic_docs:
        docs = np.asarray(docs)
        if docs.shape[0] > JUDGED_PER_TOPIC:
            docs = np.sort(rng.choice(docs, size=JUDGED_PER_TOPIC, replace=False))
        draws = rng.random(docs.shape[0])
        for d, u in zip(docs.tolist(), draws.tolist()):
            core = any(a < CORE_AUTHORS for a in corpus.authors[d])
            grade = 1 if u < (0.6 if core else 0.1) else 0
            lines.append(f"{topic_id} 0 {doc_id(d)} {grade}\n")
    return lines
