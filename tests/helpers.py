"""Synthetic corpus generators and other fixtures shared by the unit and acceptance tests."""
import io
import json
import random
import zipfile
from dataclasses import dataclass

import numpy as np

from lotkarank.corpus import DocumentRecord
from lotkarank.index import ResultSet


def make_power_law_corpus(
    n_docs=1000,
    seed=7,
    alpha=2.0,
    n_journals=80,
    n_authors=300,
    vocab_size=150,
    missing_issn_frac=0.1,
    missing_author_frac=0.1,
):
    """Corpus with power-law journal/author assignment plus query strings.

    Journal j and author a are drawn with probability proportional to
    (rank+1)**-alpha; a fixed fraction of documents lack each field.
    """
    rng = random.Random(seed)
    journal_weights = [(j + 1) ** -alpha for j in range(n_journals)]
    author_weights = [(a + 1) ** -alpha for a in range(n_authors)]
    vocab = [f"w{v:03d}" for v in range(vocab_size)]
    vocab_weights = [(v + 1) ** -1.1 for v in range(vocab_size)]

    records = []
    for i in range(n_docs):
        authors = []
        if rng.random() >= missing_author_frac:
            picks = rng.choices(range(n_authors), weights=author_weights, k=rng.randint(1, 3))
            authors = [f"author{a:03d}" for a in sorted(set(picks))]
        issn = None
        if rng.random() >= missing_issn_frac:
            j = rng.choices(range(n_journals), weights=journal_weights, k=1)[0]
            issn = f"{j:04d}-{(j * 7) % 10}{(j * 3) % 10}{(j * 9) % 10}X"
        records.append(
            DocumentRecord(
                doc_id=f"d{i:04d}",
                title=" ".join(rng.choices(vocab, weights=vocab_weights, k=3)),
                body=" ".join(rng.choices(vocab, weights=vocab_weights, k=25)),
                authors=authors,
                journal_issn=issn,
            )
        )
    queries = [
        " ".join(rng.choices(vocab[:40], weights=vocab_weights[:40], k=rng.randint(2, 3)))
        for _ in range(10)
    ]
    return records, queries


@dataclass
class TopicSuite:
    records: list
    topics: dict  # topic_id -> query text
    judgments: dict  # (topic_id, doc_id) -> grade
    missing_authors: int  # planted author-less docs across all result sets
    missing_issn: int  # planted issn-less docs across all result sets


def make_topic_suite(
    n_topics=25,
    docs_per_topic=40,
    star_docs=15,
    star_authors=3,
    missing_authors_per_topic=0,
    missing_issn_per_topic=0,
    seed=20,
) -> TopicSuite:
    """Topics whose relevant documents cluster on high-frequency authors.

    Each topic matches exactly docs_per_topic documents through a unique
    term. star_docs of them share star_authors prolific authors and are
    relevant with probability 0.85; the rest have singleton authors and are
    relevant with probability 0.15. tf-idf scores are independent of
    authorship, so author-frequency re-ranking concentrates relevance at
    the top while tf-idf does not.
    """
    rng = random.Random(seed)
    records, topics, judgments = [], {}, {}
    for i in range(1, n_topics + 1):
        topic_id = f"t{i:03d}"
        term = f"topic{i:02d}"
        topics[topic_id] = term
        positions = list(range(docs_per_topic))
        star_positions = sorted(rng.sample(positions, star_docs))
        non_star = [p for p in positions if p not in star_positions]
        author_missing = set(rng.sample(non_star, missing_authors_per_topic))
        issn_missing = set(rng.sample(positions, missing_issn_per_topic))
        for j in positions:
            doc_id = f"d{i:02d}{j:02d}"
            tf = rng.randint(1, 6)
            fillers = " ".join(f"w{rng.randrange(80)}" for _ in range(8))
            body = " ".join([term] * (tf - 1) + [fillers]).strip()
            if j in author_missing:
                authors = []
            elif j in star_positions:
                authors = [f"star{i:02d}n{star_positions.index(j) % star_authors}"]
                if rng.random() < 0.5:
                    authors.append(f"co{i:02d}n{j:02d}")
            else:
                authors = [f"solo{i:02d}n{j:02d}"]
            if j in issn_missing:
                issn = None
            elif j in star_positions:
                issn = f"{i:04d}-CORE"
            else:
                issn = f"{i:04d}-{j:04d}"
            records.append(
                DocumentRecord(doc_id=doc_id, title=term, body=body, authors=authors, journal_issn=issn)
            )
            p_relevant = 0.85 if (j in star_positions and j not in author_missing) else 0.15
            judgments[(topic_id, doc_id)] = 1 if rng.random() < p_relevant else 0
    # padding docs keep every topic term's idf positive (no topic terms here)
    for p in range(10):
        records.append(
            DocumentRecord(
                doc_id=f"pad{p:02d}",
                title=" ".join(f"w{rng.randrange(80)}" for _ in range(4)),
                authors=[f"padauthor{p:02d}"],
                journal_issn=f"9999-{p:04d}",
            )
        )
    return TopicSuite(
        records=records,
        topics=topics,
        judgments=judgments,
        missing_authors=n_topics * missing_authors_per_topic,
        missing_issn=n_topics * missing_issn_per_topic,
    )


def random_small_corpus(rng: random.Random):
    """A corpus of <= 50 docs plus a query of <= 8 tokens for oracle checks."""
    vocab = [f"v{i:02d}" for i in range(15)]
    issns = ["1111-1111", "2222-2222", "3333-333X", "4444-4444"]
    names = [f"name{i}" for i in range(8)]
    records = []
    for i in range(rng.randint(2, 50)):
        records.append(
            DocumentRecord(
                doc_id=f"d{i:02d}",
                title=" ".join(rng.choices(vocab, k=rng.randint(1, 3))),
                body=" ".join(rng.choices(vocab, k=rng.randint(0, 8))),
                authors=rng.sample(names, k=rng.randint(0, 3)),
                journal_issn=rng.choice(issns) if rng.random() < 0.7 else None,
            )
        )
    query = " ".join(rng.choices(vocab + ["zzz"], k=rng.randint(1, 8)))
    return records, query


def ranked_list(query_id, doc_ids, scores=None, tag="tfidf", dropped=0) -> ResultSet:
    """A ResultSet of the doc_ids in the given order, scored len(doc_ids)..1 unless scores are given."""
    n = len(doc_ids)
    return ResultSet(
        query_id=query_id,
        positions=np.arange(n),
        scores=np.array(range(n, 0, -1) if scores is None else scores, dtype=np.float64),
        doc_id_table=list(doc_ids),
        tag=tag,
        dropped=dropped,
    )


def same_ranking(a: ResultSet, b: ResultSet) -> bool:
    """Whether two result sets are one ranked list: query id, run tag, drop count, doc_ids and exact scores."""
    return (a.query_id == b.query_id and a.tag == b.tag and a.dropped == b.dropped
            and a.doc_ids() == b.doc_ids() and np.array_equal(a.scores, b.scores))


def qrels_lines(judgments) -> list[str]:
    return [f"{topic_id} 0 {doc_id} {grade}" for (topic_id, doc_id), grade in judgments.items()]


def topics_lines(topics) -> list[str]:
    return [f"{topic_id}\t{query_text}" for topic_id, query_text in topics.items()]


class CreatesFileOnUnpickle:
    """A pickle payload: unpickling this object would create the file at path."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def index_zip(members, version=None) -> bytes:
    """A stored zip of .npy members, as save writes an index.

    An array member is written in the given .npy version (numpy's choice if
    None); a bytes member is the member's whole .npy file, written as given.
    """
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
        for name, value in members.items():
            with archive.open(zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0)), "w") as member:
                if isinstance(value, bytes):
                    member.write(value)
                else:
                    np.lib.format.write_array(member, value, version=version, allow_pickle=False)
    return buffer.getvalue()


def serialize_corpus(records) -> str:
    """Render records back to the corpus line format (round-trips with parse_corpus).

    Each line also gets a year from its position, which the parser checks and drops.
    """
    lines = []
    for i, rec in enumerate(records):
        obj = {"id": rec.doc_id, "title": rec.title, "body": rec.body, "authors": rec.authors}
        if rec.journal_issn is not None:
            obj["issn"] = rec.journal_issn
        obj["year"] = 1980 + i % 40
        lines.append(json.dumps(obj, ensure_ascii=False))
    return "\n".join(lines) + ("\n" if lines else "")


def save_corpus(records, path):
    with open(path, "w", encoding="utf-8") as fout:
        fout.write(serialize_corpus(records))
