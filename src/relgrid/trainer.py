"""Mini-batch training loop: token indices looked up once per run, each
sentence scored at its true length against the dense gold grid that the
tag codec encodes from its rows for that call alone, Adam updates on one
flat weight vector, per-epoch checkpointing, and end-to-end prediction
(tag_grid -> decode rows).
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import time
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .config import ConfigError, check_fields, is_int, is_real
from .corpus import RelationVocab, Sentence, unique_keys, write_file, write_lines
from .encoder import Vocab, build_vocab, encode_indices
from .scorer import batch_grads, tag_grid
from .tagging import NUM_TAGS, decode, encode, roundtrip_check

logger = logging.getLogger(__name__)

CHECKPOINT_VERSION = 1

ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # moment decay rates, denominator term
# elements per adam_step slice: its five live slices, 1.25 MiB, stay in a 2 MiB L2 cache
ADAM_CHUNK = 32_768

# config keys that older checkpoint headers carry and loading drops
_RETIRED_KEYS = {"adam_beta1", "adam_beta2", "adam_epsilon", "hidden_dim", "use_positional"}


class NumericError(RuntimeError):
    """Non-finite value encountered during optimization."""


# field -> (type test, range test, allowed values as shown in errors)
_CONFIG_RULES = {
    "epochs": (is_int, lambda v: v >= 1, "an integer >= 1"),
    "batch_size": (is_int, lambda v: v >= 1, "an integer >= 1"),
    "learning_rate": (is_real, lambda v: 0.0 < v < math.inf, "a finite number > 0"),
    "seed": (is_int, lambda v: v >= 0, "an integer >= 0"),
    "dropout_rate": (is_real, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)"),
    "max_seq_len": (is_int, lambda v: v >= 1, "an integer >= 1"),
    "emb_dim": (is_int, lambda v: v >= 1, "an integer >= 1"),
    "min_count": (is_int, lambda v: v >= 1, "an integer >= 1"),
}


@dataclass
class TrainConfig:
    """The `train` options, one field per flag (--epochs, --batch-size, --lr, --seed,
    --dropout, --max-len, --emb-dim, --min-count); defaults follow the reference
    training recipe (batch 8, Adam at lr 1e-5, dropout 0.1, max length 100)."""

    epochs: int = 10
    batch_size: int = 8
    learning_rate: float = 1e-5
    seed: int = 0
    dropout_rate: float = 0.1
    max_seq_len: int = 100
    emb_dim: int = 64
    min_count: int = 1

    def __post_init__(self):
        check_fields(self, _CONFIG_RULES)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data) -> "TrainConfig":
        """ConfigError unless `data` is an object of fields and retired keys; drops the retired ones."""
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(data.keys() - cls.__dataclass_fields__.keys() - _RETIRED_KEYS)
        if unknown:
            raise ConfigError(f"unknown keys {unknown}")
        return cls(**{key: value for key, value in data.items() if key not in _RETIRED_KEYS})


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()


def make_batches(
    encoded: list[tuple[np.ndarray, Sentence]], batch_size: int, shuffle_seed: int
) -> list[list[tuple[np.ndarray, Sentence]]]:
    """Shuffle and chunk (token indices, sentence) pairs, each at its
    sentence's true length; the final partial batch is kept."""
    order = np.random.default_rng(shuffle_seed).permutation(len(encoded))
    return [
        [encoded[i] for i in order[start : start + batch_size]]
        for start in range(0, len(encoded), batch_size)
    ]


@dataclass
class AdamState:
    """Adam's moment vectors, laid out like the weights, its step count, and
    a scratch vector of one ADAM_CHUNK-element chunk (the whole vector if smaller)."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray = field(repr=False)
    step: int = 0

    @classmethod
    def init(cls, weights: np.ndarray) -> "AdamState":
        scratch = np.empty(min(weights.size, ADAM_CHUNK), dtype=weights.dtype)
        return cls(m=np.zeros_like(weights), v=np.zeros_like(weights), scratch=scratch)


def _chunks(size: int):
    """Consecutive slices of at most ADAM_CHUNK elements that cover range(size)."""
    return (slice(start, start + ADAM_CHUNK) for start in range(0, size, ADAM_CHUNK))


def adam_step(
    weights: np.ndarray, grad: np.ndarray, state: AdamState, config: TrainConfig
) -> None:
    """One bias-corrected Adam update of the weight vector, in place:
    weights -= lr * m_hat / (sqrt(v_hat) + eps), evaluated in that order,
    one ADAM_CHUNK-element slice at a time (elementwise, so the result does
    not depend on the chunk size). Consumes the caller's `grad` as its step
    buffer; allocates no weight-sized array."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for chunk in _chunks(weights.size):
        w, g, m, v = weights[chunk], grad[chunk], state.m[chunk], state.v[chunk]
        scratch = state.scratch[: g.size]
        np.multiply(g, 1.0 - b1, out=scratch)
        m *= b1
        m += scratch
        np.multiply(g, 1.0 - b2, out=scratch)
        scratch *= g
        v *= b2
        v += scratch
        step = np.divide(m, 1.0 - b1**t, out=g)  # m_hat
        step *= config.learning_rate
        denom = np.divide(v, 1.0 - b2**t, out=scratch)  # v_hat
        np.sqrt(denom, out=denom)
        denom += ADAM_EPSILON
        step /= denom
        w -= step


def _layout(config: TrainConfig, vocab_size: int, num_relations: int) -> dict[str, tuple]:
    """The shape of each trainable array by checkpoint name, in weight
    order; the pair layer's hidden width is 3 * emb_dim."""
    d, hidden = config.emb_dim, 3 * config.emb_dim
    return {
        "pair_proj": (hidden, 2 * d),
        "pair_bias": (hidden,),
        "rel_tag_emb": (hidden, NUM_TAGS * num_relations),
        "token_table": (vocab_size, d),
        "positional_table": (config.max_seq_len, d),
    }


_CHECKPOINT_ARRAYS = ("header_json", *_layout(TrainConfig(), 1, 1))


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
    a view into one flat vector, `weights`, laid out by `_layout`; `arrays`
    holds them by checkpoint name, and the scorer reads its three there."""

    weights: np.ndarray = field(repr=False)
    vocab: Vocab
    relations: RelationVocab
    config: TrainConfig
    arrays: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        layout = _layout(self.config, len(self.vocab), len(self.relations))
        self.arrays = _views(self.weights, layout)


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
    """Fresh weights, drawn in layout order: pair_proj, then rel_tag_emb,
    Glorot-uniform in +-sqrt(6 / (rows + cols)) from one derived seed, and
    pair_bias zero; token rows, then positional rows, uniform in
    [-0.1, 0.1] from another."""
    glorot = np.random.default_rng(_derived_seed(config.seed, 2))
    tables = np.random.default_rng(_derived_seed(config.seed, 1))
    drawn = []
    for name, shape in _layout(config, len(vocab), len(relations)).items():
        if name == "pair_bias":
            drawn.append(np.zeros(shape))
        elif name in ("pair_proj", "rel_tag_emb"):
            bound = np.sqrt(6.0 / sum(shape))
            drawn.append(glorot.uniform(-bound, bound, size=shape))
        else:
            drawn.append(tables.uniform(-0.1, 0.1, size=shape))
    return Model(np.concatenate([arr.ravel() for arr in drawn]), vocab, relations, config)


def train_step(
    model: Model, batch: list[tuple[np.ndarray, Sentence]], dropout_seeds: list[int], grad: np.ndarray
) -> float:
    """Forward/backward over one batch of (token indices, sentence) pairs,
    each sentence at its true length (so nothing depends on its batch
    companions) and its dense gold grid encoded only for its own scorer
    call; returns the mean loss. It zeroes `grad`, the caller's vector
    laid out like model.weights, and fills it with the mean gradient."""
    grad.fill(0.0)
    groups = _views(grad, {name: arr.shape for name, arr in model.arrays.items()})
    tokens, positional = model.arrays["token_table"], model.arrays["positional_table"]
    num_relations, batch_loss = len(model.relations), 0.0
    items = ((encode_indices(ids, tokens, positional), encode(sentence, num_relations)[0], seed)
             for (ids, sentence), seed in zip(batch, dropout_seeds))  # each grid as the scorer reaches it
    results = batch_grads(items, model.arrays, model.config.dropout_rate, groups)
    for (ids, _), (loss, d_emb) in zip(batch, results, strict=True):
        batch_loss += loss
        np.add.at(groups["token_table"], ids, d_emb)
        groups["positional_table"][: len(ids)] += d_emb
    size = len(batch)
    grad /= size
    if not all(np.isfinite(grad[chunk]).all() for chunk in _chunks(grad.size)):
        bad = next(name for name, arr in groups.items() if not np.isfinite(arr).all())
        raise NumericError(f"non-finite gradient in parameter group {bad!r}")
    return batch_loss / size


def train(
    corpus: list[Sentence],
    relations: RelationVocab,
    config: TrainConfig,
    vocab: Vocab | None = None,
    checkpoint_path: str | Path | None = None,
    on_epoch: Callable[[int, Model, float], bool] | None = None,
) -> tuple[Model, list[EpochRecord]]:
    """Run the full training loop; reproducible given the same seed.

    `on_epoch(epoch, model, mean_loss)` may return True to stop early (used
    by harnesses that fit to a target; no validation-based selection is done
    here). Given a path, the checkpoint is rewritten after every epoch, and `<path>.log`
    (write_loss_log) after the last one or when a KeyboardInterrupt, raised again, stops the run.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if vocab is None:
        vocab = build_vocab(corpus, min_count=config.min_count)
    model = init_model(relations, vocab, config)
    state = AdamState.init(model.weights)
    grad = np.empty_like(model.weights)  # filled by train_step, consumed by adam_step
    # gold collisions are tolerated (the codec's priority rule); gold the grid cannot hold is counted
    encoded = [(vocab.indices(s.tokens), s) for s in corpus]
    lossy = sum(not roundtrip_check(s, len(relations)).exact for s in corpus)
    if lossy:
        logger.warning("%d of %d training sentences have gold the tag grid cannot hold", lossy, len(corpus))

    log: list[EpochRecord] = []
    try:
        for epoch in range(1, config.epochs + 1):
            started = time.perf_counter()
            batches = make_batches(
                encoded, config.batch_size, shuffle_seed=_derived_seed(config.seed, 3, epoch)
            )
            weighted_loss = 0.0
            for b_idx, batch in enumerate(batches):
                size = len(batch)
                seeds = [0] * size  # read only when dropout is on
                if config.dropout_rate > 0.0:
                    seeds = [_derived_seed(config.seed, 4, epoch, b_idx, row) for row in range(size)]
                batch_loss = train_step(model, batch, seeds, grad)
                adam_step(model.weights, grad, state, config)
                weighted_loss += batch_loss * size
            mean_loss = weighted_loss / len(corpus)
            if not np.isfinite(mean_loss):
                raise NumericError(f"non-finite loss at epoch {epoch}")
            seconds = time.perf_counter() - started
            logger.info("epoch %d loss %.6f (%.2fs)", epoch, mean_loss, seconds)
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, model)
            # recorded once its checkpoint is in place: the log names no epoch the checkpoint lacks
            log.append(EpochRecord(epoch=epoch, mean_loss=mean_loss, seconds=seconds))
            if on_epoch is not None and on_epoch(epoch, model, mean_loss):
                break
    except KeyboardInterrupt:
        if checkpoint_path is not None and log:  # else an older run's log still matches its checkpoint
            write_loss_log(f"{checkpoint_path}.log", log)
        raise
    if checkpoint_path is not None:
        write_loss_log(f"{checkpoint_path}.log", log)
    return model, log


def predict(sentence: Sentence, model: Model) -> np.ndarray:
    """decode(tag_grid(embeddings)), dropout off: the predicted triples as
    (n, 5) int64 rows (k, hb, he, tb, te). A sentence longer than the
    positional table (max_seq_len) is a ValueError; build_sentence cuts one."""
    emb = encode_indices(
        model.vocab.indices(sentence.tokens), model.arrays["token_table"], model.arrays["positional_table"]
    )
    return decode(tag_grid(emb, model.arrays))


def write_loss_log(path: str | Path, log: list[EpochRecord]) -> None:
    """Plain-text per-epoch log: epoch, mean loss, wall-clock seconds."""
    write_lines(path, [f"{rec.epoch}\t{rec.mean_loss!r}\t{rec.seconds:.3f}" for rec in log])


def save_checkpoint(path: str | Path, model: Model) -> None:
    """Binary dump of all parameter arrays plus vocab, relations and config."""
    header = {
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_json(),
        "config_hash": _config_hash(model.config.to_json()),
        "relations": list(model.relations.names),
        "vocab": model.vocab.to_json(),
    }
    arrays = {**model.arrays, "header_json": np.array(json.dumps(header))}
    write_file(path, lambda fh: np.savez(fh, **arrays))


_HEADER_KEYS = {"version", "config", "config_hash", "relations", "vocab"}


def load_checkpoint(path: str | Path) -> Model:
    """The model a checkpoint holds; ValueError naming the file and its first
    defect when it is not a complete, self-consistent archive of the current
    version."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such checkpoint: {path}")

    def corrupt(reason) -> ValueError:
        return ValueError(f"corrupt checkpoint {path}: {reason}")

    try:
        # np.load leaves a file it opened itself open, and reads a non-zip as a pickle or .npy
        with open(path, "rb") as fh:
            if not zipfile.is_zipfile(fh):
                raise zipfile.BadZipFile("not an .npz archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as data:
                arrays = {name: data[name] for name in data.files}
    except (zipfile.BadZipFile, EOFError, NotImplementedError, TypeError, ValueError) as exc:
        raise corrupt(exc) from None
    missing = [name for name in _CHECKPOINT_ARRAYS if name not in arrays]
    if missing:
        raise corrupt(f"no {', '.join(missing)} array")
    try:
        header = json.loads(str(arrays["header_json"]), object_pairs_hook=unique_keys)
    except ValueError as exc:
        raise corrupt(f"unparsable header ({exc})") from None
    if not isinstance(header, dict):
        raise corrupt("header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise corrupt(f"unsupported version {header.get('version')!r}")
    if not _HEADER_KEYS <= header.keys():
        raise corrupt(f"header lacks {sorted(_HEADER_KEYS - header.keys())}")
    names = header["relations"]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise corrupt("relations must be a JSON list of strings")
    try:
        config = TrainConfig.from_json(header["config"])
    except ConfigError as exc:
        raise corrupt(f"invalid config: {exc}") from None
    # the hash covers the config as written, retired keys and all
    if _config_hash(header["config"]) != header["config_hash"]:
        raise corrupt("config hash mismatch")
    try:
        vocab = Vocab.from_json(header["vocab"])
        relations = RelationVocab(names=tuple(names))
    except ValueError as exc:
        raise corrupt(exc) from None
    layout = _layout(config, len(vocab), len(relations))
    for name, expected in layout.items():
        found = arrays[name]
        if found.shape != expected:
            raise corrupt(f"{name} shape {found.shape}, expected {expected}")
        if found.dtype != np.float64:
            raise corrupt(f"{name} dtype {found.dtype}, not float64")
        if not np.isfinite(found).all():
            raise corrupt(f"non-finite values in {name}")
    weights = np.concatenate([arrays[name].ravel() for name in layout])
    return Model(weights, vocab, relations, config)
