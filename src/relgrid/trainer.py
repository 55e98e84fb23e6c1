"""Mini-batch training loop: each sentence scored at its true length, Adam
updates, per-epoch checkpointing, and end-to-end prediction (score -> tag ->
decode).
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import time
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .config import ConfigError, check_fields, is_int, is_real
from .corpus import AnnotatedSentence, RelationVocab, Sentence, Triple
from .encoder import (
    EmbeddingTable,
    Vocab,
    build_vocab,
    encode_indices,
    encode_tokens,
    init_embedding_table,
)
from .scorer import (
    ScorerParams,
    backward,
    init_scorer_params,
    predict_tags,
    score_all,
)
from .tagging import TagMatrix, decode, encode

logger = logging.getLogger(__name__)

CHECKPOINT_VERSION = 1


class NumericError(RuntimeError):
    """Non-finite value encountered during optimization."""


# field -> (type test, range test, allowed values as shown in errors)
_CONFIG_RULES = {
    "epochs": (is_int, lambda v: v >= 1, "an integer >= 1"),
    "batch_size": (is_int, lambda v: v >= 1, "an integer >= 1"),
    "learning_rate": (is_real, lambda v: 0.0 < v < math.inf, "a finite number > 0"),
    "adam_beta1": (is_real, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)"),
    "adam_beta2": (is_real, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)"),
    "adam_epsilon": (is_real, lambda v: 0.0 < v < math.inf, "a finite number > 0"),
    "seed": (is_int, lambda v: v >= 0, "an integer >= 0"),
    "dropout_rate": (is_real, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)"),
    "max_seq_len": (is_int, lambda v: v >= 1, "an integer >= 1"),
    "emb_dim": (is_int, lambda v: v >= 1, "an integer >= 1"),
    "hidden_dim": (
        lambda v: v is None or is_int(v),
        lambda v: v is None or v >= 1,
        "null or an integer >= 1",
    ),
    "use_positional": (lambda v: isinstance(v, bool), lambda v: True, "true or false"),
    "min_count": (is_int, lambda v: v >= 1, "an integer >= 1"),
}


@dataclass
class TrainConfig:
    """Hyperparameters; defaults follow the reference training recipe
    (batch 8, Adam at lr 1e-5, dropout 0.1, max length 100, hidden = 3x).
    """

    epochs: int = 10
    batch_size: int = 8
    learning_rate: float = 1e-5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0
    dropout_rate: float = 0.1
    max_seq_len: int = 100
    emb_dim: int = 64
    hidden_dim: int | None = None  # defaults to 3 * emb_dim
    use_positional: bool = True
    min_count: int = 1

    def __post_init__(self):
        check_fields(self, _CONFIG_RULES)

    def resolved_hidden_dim(self) -> int:
        return self.hidden_dim if self.hidden_dim is not None else 3 * self.emb_dim

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    def hash(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


@dataclass
class Batch:
    """Padded token indices plus per-sentence gold grids."""

    token_ids: np.ndarray  # (B, L_pad) int64, 0 = padding
    lengths: np.ndarray  # (B,) true lengths
    gold: list[TagMatrix]  # at true length


def valid_mask(length: int, padded: int, num_relations: int) -> np.ndarray:
    """True exactly where both token indices are below the true length."""
    mask = np.zeros((padded, num_relations, padded), dtype=bool)
    mask[:length, :, :length] = True
    return mask


def make_batches(
    corpus: list[AnnotatedSentence],
    vocab: Vocab,
    num_relations: int,
    config: TrainConfig,
    shuffle_seed: int | None = None,
) -> list[Batch]:
    """Shuffle (when seeded), chunk, pad to each batch's longest sentence.

    The final partial batch is kept. Gold grids come from the tag codec;
    encoding collisions in gold data are tolerated (priority rule applies).
    """
    if not corpus:
        raise ValueError("empty corpus")
    order = np.arange(len(corpus))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(corpus))

    batches = []
    for start in range(0, len(corpus), config.batch_size):
        chunk = [corpus[i] for i in order[start : start + config.batch_size]]
        lengths = np.array([len(s.sentence) for s in chunk], dtype=np.int64)
        padded = int(lengths.max())
        token_ids = np.zeros((len(chunk), padded), dtype=np.int64)
        gold = []
        for row, s in enumerate(chunk):
            token_ids[row, : lengths[row]] = vocab.indices(s.sentence.tokens)
            matrix, _ = encode(s, num_relations)
            gold.append(matrix)
        batches.append(Batch(token_ids=token_ids, lengths=lengths, gold=gold))
    return batches


@dataclass
class AdamState:
    """First/second moment buffers per parameter group plus the step count."""

    moments: dict[str, tuple[np.ndarray, np.ndarray]]
    step: int = 0

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            moments={
                name: (np.zeros_like(arr), np.zeros_like(arr))
                for name, arr in params.items()
            }
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    b1, b2 = config.adam_beta1, config.adam_beta2
    for name, arr in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in parameter group {name!r}")
        m, v = state.moments[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        arr -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)
    return params, state


@dataclass
class Model:
    """Everything needed to score unseen sentences."""

    params: ScorerParams
    table: EmbeddingTable
    vocab: Vocab
    relations: RelationVocab
    config: TrainConfig


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    seconds: float


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def init_model(
    relations: RelationVocab, vocab: Vocab, config: TrainConfig
) -> Model:
    table = init_embedding_table(
        vocab_size=len(vocab),
        dim=config.emb_dim,
        max_seq_len=config.max_seq_len if config.use_positional else None,
        seed=_derived_seed(config.seed, 1),
    )
    params = init_scorer_params(
        emb_dim=config.emb_dim,
        num_relations=len(relations),
        seed=_derived_seed(config.seed, 2),
        hidden_dim=config.resolved_hidden_dim(),
        dropout_rate=config.dropout_rate,
    )
    return Model(params=params, table=table, vocab=vocab, relations=relations, config=config)


def _trainable(model: Model) -> dict[str, np.ndarray]:
    groups = {
        "pair_proj": model.params.pair_proj,
        "pair_bias": model.params.pair_bias,
        "rel_tag_emb": model.params.rel_tag_emb,
        "token_table": model.table.tokens,
    }
    if model.config.use_positional:
        groups["positional_table"] = model.table.positional
    return groups


def train_step(model: Model, batch: Batch, dropout_seeds: list[int]) -> tuple[float, dict]:
    """Forward/backward over one batch, each sentence at its true length (so
    nothing depends on its batch companions); returns mean loss and grads."""
    groups = _trainable(model)
    grads = {name: np.zeros_like(arr) for name, arr in groups.items()}
    batch_loss = 0.0
    size = batch.token_ids.shape[0]
    for row in range(size):
        n = int(batch.lengths[row])
        ids = batch.token_ids[row, :n]
        emb = encode_indices(ids, model.table, model.config.use_positional)
        grid = score_all(
            emb, model.params, training=True, rng_seed=dropout_seeds[row]
        )
        g = backward(grid, batch.gold[row].tags, None, emb, model.params)
        batch_loss += g.loss
        grads["pair_proj"] += g.pair_proj
        grads["pair_bias"] += g.pair_bias
        grads["rel_tag_emb"] += g.rel_tag_emb
        np.add.at(grads["token_table"], ids, g.emb)
        if model.config.use_positional:
            grads["positional_table"][:n] += g.emb
    for arr in grads.values():
        arr /= size
    return batch_loss / size, grads


def train(
    corpus: list[AnnotatedSentence],
    relations: RelationVocab,
    config: TrainConfig,
    vocab: Vocab | None = None,
    checkpoint_path: str | Path | None = None,
    on_epoch: Callable[[int, Model, float], bool] | None = None,
) -> tuple[Model, list[EpochRecord]]:
    """Run the full training loop; reproducible given the same seed.

    `on_epoch(epoch, model, mean_loss)` may return True to stop early (used
    by harnesses that fit to a target; no validation-based selection is done
    here). A checkpoint is (re)written after every epoch when a path is given.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if vocab is None:
        vocab = build_vocab(corpus, min_count=config.min_count)
    model = init_model(relations, vocab, config)
    groups = _trainable(model)
    state = AdamState.init(groups)

    log: list[EpochRecord] = []
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        batches = make_batches(
            corpus,
            vocab,
            len(relations),
            config,
            shuffle_seed=_derived_seed(config.seed, 3, epoch),
        )
        weighted_loss = 0.0
        for b_idx, batch in enumerate(batches):
            size = batch.token_ids.shape[0]
            seeds = [
                _derived_seed(config.seed, 4, epoch, b_idx, row) for row in range(size)
            ]
            batch_loss, grads = train_step(model, batch, seeds)
            adam_step(groups, grads, state, config)
            weighted_loss += batch_loss * size
        mean_loss = weighted_loss / len(corpus)
        if not np.isfinite(mean_loss):
            raise NumericError(f"non-finite loss at epoch {epoch}")
        seconds = time.perf_counter() - started
        log.append(EpochRecord(epoch=epoch, mean_loss=mean_loss, seconds=seconds))
        logger.info("epoch %d loss %.6f (%.2fs)", epoch, mean_loss, seconds)
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, model)
        if on_epoch is not None and on_epoch(epoch, model, mean_loss):
            break
    return model, log


def predict(sentence: Sentence, model: Model) -> frozenset[Triple]:
    """decode(predict_tags(score_all(embeddings))), dropout off."""
    if len(sentence) > model.config.max_seq_len:
        logger.warning(
            "sentence %r truncated from %d to %d tokens",
            sentence.id,
            len(sentence),
            model.config.max_seq_len,
        )
        sentence = Sentence(
            tokens=sentence.tokens[: model.config.max_seq_len], id=sentence.id
        )
    emb = encode_tokens(sentence, model.table, model.vocab, model.config.use_positional)
    grid = score_all(emb, model.params, training=False)
    return decode(predict_tags(grid))


def write_loss_log(path: str | Path, log: list[EpochRecord]) -> None:
    """Plain-text per-epoch log: epoch, mean loss, wall-clock seconds."""
    lines = [f"{rec.epoch}\t{rec.mean_loss!r}\t{rec.seconds:.3f}" for rec in log]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_checkpoint(path: str | Path, model: Model) -> None:
    """Binary dump of all parameter arrays plus vocab, relations and config."""
    header = {
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_json(),
        "config_hash": model.config.hash(),
        "relations": list(model.relations.names),
        "vocab": model.vocab.to_json(),
        "dims": {
            "emb_dim": model.config.emb_dim,
            "hidden_dim": model.config.resolved_hidden_dim(),
            "num_relations": len(model.relations),
            "vocab_size": len(model.vocab),
        },
    }
    arrays = {
        "pair_proj": model.params.pair_proj,
        "pair_bias": model.params.pair_bias,
        "rel_tag_emb": model.params.rel_tag_emb,
        "token_table": model.table.tokens,
        "header_json": np.array(json.dumps(header)),
    }
    if model.table.positional is not None:
        arrays["positional_table"] = model.table.positional
    # write a synced sibling file, then rename it over the target, so a
    # crash mid-write leaves the previous checkpoint intact
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


_CHECKPOINT_ARRAYS = ("header_json", "pair_proj", "pair_bias", "rel_tag_emb", "token_table")
_HEADER_KEYS = {"version", "config", "config_hash", "relations", "vocab"}


def _read_checkpoint(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and arrays of a checkpoint; ValueError naming the first defect
    when the file is not a complete archive of the current version."""

    def corrupt(reason) -> ValueError:
        return ValueError(f"corrupt checkpoint {path}: {reason}")

    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
    except (zipfile.BadZipFile, EOFError, TypeError, ValueError) as exc:
        raise corrupt(exc) from None
    missing = [name for name in _CHECKPOINT_ARRAYS if name not in arrays]
    if missing:
        raise corrupt(f"no {', '.join(missing)} array")
    try:
        header = json.loads(str(arrays["header_json"]))
    except ValueError as exc:
        raise corrupt(f"unparsable header ({exc})") from None
    if not isinstance(header, dict):
        raise corrupt("header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {header.get('version')!r}")
    if not _HEADER_KEYS <= header.keys():
        raise corrupt(f"header lacks {sorted(_HEADER_KEYS - header.keys())}")
    return header, arrays


def load_checkpoint(path: str | Path) -> Model:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such checkpoint: {path}")
    header, arrays = _read_checkpoint(path)
    try:
        config = TrainConfig.from_json(header["config"])
    except ConfigError as exc:
        raise ValueError(f"invalid checkpoint config: {exc}") from None
    if config.hash() != header["config_hash"]:
        raise ValueError("checkpoint config hash mismatch")
    params = ScorerParams(
        pair_proj=arrays["pair_proj"],
        pair_bias=arrays["pair_bias"],
        rel_tag_emb=arrays["rel_tag_emb"],
        dropout_rate=config.dropout_rate,
    )
    table = EmbeddingTable(
        tokens=arrays["token_table"], positional=arrays.get("positional_table")
    )
    return Model(
        params=params,
        table=table,
        vocab=Vocab.from_json(header["vocab"]),
        relations=RelationVocab(names=tuple(header["relations"])),
        config=config,
    )
