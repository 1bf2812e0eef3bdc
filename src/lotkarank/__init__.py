"""tf-idf retrieval with informetric (power-law entity-frequency) re-ranking."""

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

# served by __getattr__: the evaluation harness is imported on first use, so a command
# that never evaluates never compiles it
_EVALUATION_NAMES = (
    "EvalReport",
    "load_qrels",
    "load_topics",
    "parse_qrels",
    "parse_topics",
    "run_evaluation",
)

__all__ = [
    "CorpusError", "DocumentRecord", "load_corpus", "parse_corpus", "tokenize",
    "InvertedIndex", "ResultSet", "build_index", "search",
    "EntityField", "EntityFrequencyTable", "PowerLawFit", "entity_frequencies", "fit_power_law",
    "rank_frequency_series",
    "MissingPolicy", "Mode", "RankingConfig", "rerank",
    *_EVALUATION_NAMES,
]


def __getattr__(name):
    if name in _EVALUATION_NAMES:
        from . import evaluation

        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EVALUATION_NAMES})
