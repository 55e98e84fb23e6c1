"""Joint entity-relation triple extraction via relation-specific grid tagging.

A triple set is stored as boundary tags in an L x K x L grid (three corner
cells per triple), scored by a shared two-layer classifier over token-pair
embeddings, and decoded back to spans. The package covers corpus handling,
the tag codec, the scorer with exact gradients, mini-batch training, and a
micro-P/R/F1 evaluation harness with overlap-pattern breakdowns.
"""

from .corpus import (
    AnnotatedSentence,
    CorpusError,
    PatternLabel,
    RelationVocab,
    Sentence,
    Span,
    Triple,
    classify_pattern,
    corpus_stats,
    load_native,
    load_public,
    save_native,
)
from .encoder import Vocab, build_vocab, encode_indices
from .evaluation import MetricsReport, breakdown, export_relation_embeddings, micro_prf, stack_rows
from .scorer import ScorerParams, init_scorer_params, tag_grid, train_grads
from .synthetic import SynthConfig, generate_corpus
from .tagging import Tag, decode, encode, roundtrip_check, triple_rows
from .trainer import (
    Model,
    TrainConfig,
    load_checkpoint,
    make_batches,
    predict,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
