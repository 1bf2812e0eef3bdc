"""tf-idf retrieval with informetric (power-law entity-frequency) re-ranking."""

from .corpus import CorpusError, DocumentRecord, load_corpus, parse_corpus, tokenize
from .evaluation import (
    EvalReport,
    QrelSet,
    Topic,
    load_qrels,
    load_topics,
    parse_qrels,
    parse_topics,
    run_evaluation,
)
from .index import InvertedIndex, ResultSet, build_index, search
from .informetrics import (
    EntityField,
    EntityFrequencyTable,
    PowerLawFit,
    entity_frequencies,
    fit_power_law,
    rank_frequency_series,
)
from .rerank import (
    MissingPolicy,
    Mode,
    RankingConfig,
    rerank,
)

__version__ = "0.1.0"
