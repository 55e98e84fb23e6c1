"""Mini-batch training loop: each sentence encoded once and scored at its
true length, Adam updates on one flat weight vector, per-epoch
checkpointing, and end-to-end prediction (tag_grid -> decode rows).
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
from .corpus import AnnotatedSentence, RelationVocab, Sentence
from .encoder import Vocab, build_vocab, encode_indices
from .scorer import ScorerParams, init_scorer_params, tag_grid, train_grads
from .tagging import NUM_TAGS, decode, encode

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
    def from_json(cls, data) -> "TrainConfig":
        """ConfigError unless `data` is an object whose keys are all fields."""
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(data.keys() - cls.__dataclass_fields__.keys())
        if unknown:
            raise ConfigError(f"unknown keys {unknown}")
        return cls(**data)

    def hash(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


@dataclass
class Batch:
    """Per-sentence token indices and int8 gold tag grids, at true length."""

    token_ids: list[np.ndarray]  # (n,) int64
    gold: list[np.ndarray]  # (n, K, n) int8


def make_batches(
    encoded: list[tuple[np.ndarray, np.ndarray]], batch_size: int, shuffle_seed: int
) -> list[Batch]:
    """Shuffle and chunk (token indices, gold tags) pairs; the final partial
    batch is kept."""
    order = np.random.default_rng(shuffle_seed).permutation(len(encoded))
    batches = []
    for start in range(0, len(encoded), batch_size):
        ids, gold = zip(*(encoded[i] for i in order[start : start + batch_size]))
        batches.append(Batch(token_ids=list(ids), gold=list(gold)))
    return batches


@dataclass
class AdamState:
    """Adam's moment vectors, laid out like the weights, and its step count."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def init(cls, weights: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(weights), v=np.zeros_like(weights))


def adam_step(
    weights: np.ndarray, grad: np.ndarray, state: AdamState, config: TrainConfig
) -> None:
    """One bias-corrected Adam update of the weight vector, in place:
    weights -= lr * m_hat / (sqrt(v_hat) + eps), evaluated in that order."""
    state.step += 1
    t = state.step
    b1, b2 = config.adam_beta1, config.adam_beta2
    m, v = state.m, state.v
    step = np.multiply(grad, 1.0 - b1)
    m *= b1
    m += step
    np.multiply(grad, 1.0 - b2, out=step)
    step *= grad
    v *= b2
    v += step
    np.divide(m, 1.0 - b1**t, out=step)  # m_hat
    step *= config.learning_rate
    denom = np.divide(v, 1.0 - b2**t)  # v_hat
    np.sqrt(denom, out=denom)
    denom += config.adam_epsilon
    step /= denom
    weights -= step


# checkpoint names of the trainable arrays, in the order they sit in
# Model.weights; every checkpoint holds all but positional_table
_GROUPS = ("pair_proj", "pair_bias", "rel_tag_emb", "token_table", "positional_table")
_CHECKPOINT_ARRAYS = ("header_json", *_GROUPS[:-1])


def _layout(config: TrainConfig, vocab_size: int, num_relations: int) -> dict[str, tuple]:
    """The shape of each trainable array by checkpoint name, in weight
    order; positional rows only when the config uses them."""
    d, hidden = config.emb_dim, config.resolved_hidden_dim()
    layout = {
        "pair_proj": (hidden, 2 * d),
        "pair_bias": (hidden,),
        "rel_tag_emb": (hidden, NUM_TAGS * num_relations),
        "token_table": (vocab_size, d),
    }
    if config.use_positional:
        layout["positional_table"] = (config.max_seq_len, d)
    return layout


def _views(flat: np.ndarray, layout: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Consecutive slices of `flat`, by name, in the shapes of `layout`."""
    views, offset = {}, 0
    for name, shape in layout.items():
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


@dataclass
class Model:
    """Everything needed to score unseen sentences. Every trainable array is
    a view into one flat vector, `weights`, laid out by `_layout`: `arrays`
    holds them by checkpoint name, `params` the scorer's three."""

    weights: np.ndarray = field(repr=False)
    vocab: Vocab
    relations: RelationVocab
    config: TrainConfig
    arrays: dict[str, np.ndarray] = field(init=False, repr=False)
    params: ScorerParams = field(init=False, repr=False)

    def __post_init__(self):
        layout = _layout(self.config, len(self.vocab), len(self.relations))
        self.arrays = _views(self.weights, layout)
        self.params = ScorerParams(
            pair_proj=self.arrays["pair_proj"],
            pair_bias=self.arrays["pair_bias"],
            rel_tag_emb=self.arrays["rel_tag_emb"],
            dropout_rate=self.config.dropout_rate,
        )


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
    """The scorer's arrays from one derived seed; token rows, then positional
    rows, uniform in [-0.1, 0.1] from another."""
    layout = _layout(config, len(vocab), len(relations))
    drawn = vars(
        init_scorer_params(
            emb_dim=config.emb_dim,
            num_relations=len(relations),
            seed=_derived_seed(config.seed, 2),
            hidden_dim=config.resolved_hidden_dim(),
        )
    )
    rng = np.random.default_rng(_derived_seed(config.seed, 1))
    for name in ("token_table", "positional_table"):
        if name in layout:
            drawn[name] = rng.uniform(-0.1, 0.1, size=layout[name])
    weights = np.concatenate([drawn[name].ravel() for name in layout])
    return Model(weights, vocab, relations, config)


def train_step(
    model: Model, batch: Batch, dropout_seeds: list[int]
) -> tuple[float, np.ndarray]:
    """Forward/backward over one batch, each sentence at its true length (so
    nothing depends on its batch companions); returns the mean loss and the
    mean gradient, laid out like model.weights."""
    grad = np.zeros_like(model.weights)
    groups = _views(grad, {name: arr.shape for name, arr in model.arrays.items()})
    tokens, positional = model.arrays["token_table"], model.arrays.get("positional_table")
    batch_loss = 0.0
    for ids, gold, seed in zip(batch.token_ids, batch.gold, dropout_seeds):
        emb = encode_indices(ids, tokens, positional)
        g = train_grads(emb, gold, model.params, seed)
        batch_loss += g.loss
        groups["pair_proj"] += g.pair_proj
        groups["pair_bias"] += g.pair_bias
        groups["rel_tag_emb"] += g.rel_tag_emb
        np.add.at(groups["token_table"], ids, g.emb)
        if positional is not None:
            groups["positional_table"][: len(ids)] += g.emb
    size = len(batch.token_ids)
    grad /= size
    if not np.isfinite(grad).all():
        bad = next(name for name, arr in groups.items() if not np.isfinite(arr).all())
        raise NumericError(f"non-finite gradient in parameter group {bad!r}")
    return batch_loss / size, grad


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
    state = AdamState.init(model.weights)
    # gold grids come from the tag codec; encoding collisions in gold data
    # are tolerated (priority rule applies)
    encoded = [
        (vocab.indices(s.sentence.tokens), encode(s, len(relations))[0]) for s in corpus
    ]

    log: list[EpochRecord] = []
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        batches = make_batches(
            encoded, config.batch_size, shuffle_seed=_derived_seed(config.seed, 3, epoch)
        )
        weighted_loss = 0.0
        for b_idx, batch in enumerate(batches):
            size = len(batch.token_ids)
            seeds = [0] * size  # read only when dropout is on
            if config.dropout_rate > 0.0:
                seeds = [_derived_seed(config.seed, 4, epoch, b_idx, row) for row in range(size)]
            batch_loss, grad = train_step(model, batch, seeds)
            adam_step(model.weights, grad, state, config)
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


def predict(sentence: Sentence, model: Model) -> np.ndarray:
    """decode(tag_grid(embeddings)), dropout off, at most max_seq_len tokens:
    the predicted triples as (n, 5) int64 rows (k, hb, he, tb, te)."""
    tokens = sentence.tokens
    if len(tokens) > model.config.max_seq_len:
        logger.warning(
            "sentence %r truncated from %d to %d tokens",
            sentence.id,
            len(tokens),
            model.config.max_seq_len,
        )
        tokens = tokens[: model.config.max_seq_len]
    emb = encode_indices(
        model.vocab.indices(tokens), model.arrays["token_table"], model.arrays.get("positional_table")
    )
    return decode(tag_grid(emb, model.params))


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
    }
    arrays = {**model.arrays, "header_json": np.array(json.dumps(header))}
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


_HEADER_KEYS = {"version", "config", "config_hash", "relations", "vocab"}


def _read_checkpoint(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and arrays of a checkpoint; ValueError naming the first defect
    when the file is not a complete archive of the current version."""

    def corrupt(reason) -> ValueError:
        return ValueError(f"corrupt checkpoint {path}: {reason}")

    try:
        # np.load leaves a file it opened itself open when the archive is bad
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
    except (zipfile.BadZipFile, EOFError, NotImplementedError, TypeError, ValueError) as exc:
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
    names = header["relations"]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise corrupt("relations must be a JSON list of strings")
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
    vocab = Vocab.from_json(header["vocab"])
    relations = RelationVocab(names=tuple(header["relations"]))
    layout = _layout(config, len(vocab), len(relations))
    for name in _GROUPS:
        found, expected = (arrays[name].shape if name in arrays else None), layout.get(name)
        if found != expected:
            raise ValueError(f"corrupt checkpoint {path}: {name} shape {found}, expected {expected}")
        if found is not None and arrays[name].dtype != np.float64:
            raise ValueError(f"corrupt checkpoint {path}: {name} dtype {arrays[name].dtype}, not float64")
        if found is not None and not np.isfinite(arrays[name]).all():
            raise ValueError(f"corrupt checkpoint {path}: non-finite values in {name}")
    weights = np.concatenate([arrays[name].ravel() for name in layout])
    return Model(weights, vocab, relations, config)
