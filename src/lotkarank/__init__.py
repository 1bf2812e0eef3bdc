"""tf-idf retrieval with informetric (power-law entity-frequency) re-ranking.

The evaluation harness is ``lotkarank.evaluation``; ``import lotkarank`` never loads it.
"""

from .corpus import CorpusError, DocumentRecord, load_corpus, parse_corpus, tokenize
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

__all__ = [
    "CorpusError", "DocumentRecord", "load_corpus", "parse_corpus", "tokenize",
    "InvertedIndex", "ResultSet", "build_index", "search",
    "EntityField", "EntityFrequencyTable", "PowerLawFit", "entity_frequencies", "fit_power_law",
    "rank_frequency_series",
    "MissingPolicy", "Mode", "RankingConfig", "rerank",
]

