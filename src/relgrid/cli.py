"""Command-line surface: train / eval / tag / synth / stats.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
A training option of the wrong type or out of range, from a flag or from
the config file, is a usage error, and so is a config file that is not a
JSON object, names a key twice in any object, or holds a key that is not
an option of the subcommand or a value that flag would refuse. An
unreadable or unwritable file is a data error.
Flag values override config-file values; every command logs its fully
resolved configuration at startup, and train and synth their root seed.
Set RELGRID_LOG_LEVEL (DEBUG/INFO/WARNING/...) to control verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .config import ConfigError
from .corpus import (
    CorpusError,
    RelationVocab,
    canonical_rows,
    classify_pattern,
    corpus_stats,
    load_native,
    load_public,
    native_sentence,
    parse_record,
    read_text,
    save_native,
    write_lines,
)
from .encoder import Vocab
from .evaluation import MATCH_MODES, breakdown, export_relation_embeddings, stack_rows
from .synthetic import GenerationError, SynthConfig, default_mix, generate_corpus
from .tagging import render_relation_grid, roundtrip_check
from .trainer import NumericError, TrainConfig, load_checkpoint, predict, train, write_loss_log

logger = logging.getLogger("relgrid")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

GRID_HELP = (
    "The tag grid is printed per relation as a fixed-width table: rows are "
    "head tokens, columns are tail tokens, each cell shows HB-TB, HB-TE, "
    "HE-TE, or '-' for untagged."
)


class CliParser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def build_parser() -> CliParser:
    parser = CliParser(prog="relgrid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # command name -> its parser

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    p_train.add_argument("--data", help="training corpus path")
    p_train.add_argument("--format", choices=("native", "public"), default=None)
    p_train.add_argument("--relations", help="relation names, one per line")
    p_train.add_argument("--vocab", help="token vocab JSON to reuse")
    p_train.add_argument("--match", choices=MATCH_MODES, help="span resolution for public data maps to whole-span (exact) or last-token (partial)")
    p_train.add_argument("--out", "--checkpoint", dest="out", help="checkpoint output path")
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--batch-size", type=int)
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--dropout", type=float)
    p_train.add_argument("--max-len", type=int)
    p_train.add_argument("--emb-dim", type=int)
    p_train.add_argument("--min-count", type=int)

    p_eval = sub.add_parser("eval", help="score a checkpoint against a corpus")
    p_eval.add_argument("--data", help="evaluation corpus path")
    p_eval.add_argument("--format", choices=("native", "public"), default=None)
    p_eval.add_argument("--checkpoint", help="checkpoint path")
    p_eval.add_argument("--relations", help="relation names to cross-check")
    p_eval.add_argument("--vocab", help="token vocab JSON to cross-check")
    p_eval.add_argument("--match", choices=MATCH_MODES, help="report only this mode")
    p_eval.add_argument("--out", help="write the key=value report here")
    p_eval.add_argument(
        "--export-relations",
        help="also dump the relation/tag representation columns to this TSV",
    )

    p_tag = sub.add_parser(
        "tag",
        help="encode one sentence to tag grids, decode back, report roundtrip",
        epilog=GRID_HELP,
    )
    p_tag.add_argument(
        "--sentence",
        help="native-format JSON record; reads standard input when omitted",
    )
    p_tag.add_argument("--relations", help="relation names, one per line")

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--out", help="output corpus path")
    p_synth.add_argument("--count", type=int, help="number of sentences")
    p_synth.add_argument(
        "--mix",
        help="pattern proportions, e.g. normal=0.25,epo=0.25,seo=0.25,hto=0.25",
    )
    p_synth.add_argument("--num-relations", type=int)
    p_synth.add_argument("--min-len", type=int)
    p_synth.add_argument("--max-len", type=int)

    p_stats = sub.add_parser("stats", help="print corpus pattern/bucket statistics")
    p_stats.add_argument("--data", help="corpus path")
    p_stats.add_argument("--format", choices=("native", "public"), default=None)
    p_stats.add_argument("--relations", help="relation names (public format)")
    p_stats.add_argument("--match", choices=MATCH_MODES, help="span resolution for public data")

    for p in sub.choices.values():
        p.add_argument("--config", help="JSON config file; flags override it")
    for p in (p_train, p_synth):
        p.add_argument("--seed", type=int, help="root seed (default 0)")
    return parser


class RunConfig:
    """Flag values layered over an optional JSON config file, checked like the flags."""

    def __init__(self, args: argparse.Namespace, actions: list[argparse.Action]):
        self.args = args
        self.file: dict = {}
        if getattr(args, "config", None):
            path = Path(args.config)
            if not path.exists():
                raise CorpusError(f"no such config file: {path}")

            def unique_keys(pairs: list) -> dict:
                obj = {}
                for key, value in pairs:
                    if key in obj:
                        raise ConfigError(f"config file {path} repeats the key {key!r}")
                    obj[key] = value
                return obj

            try:
                self.file = json.loads(read_text(path, "config file"), object_pairs_hook=unique_keys)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
            except CorpusError as exc:  # not UTF-8
                raise ConfigError(f"config file {exc}") from None
            if not isinstance(self.file, dict):
                raise ConfigError(f"config file {path} must hold a JSON object")
            # keys are the subcommand's option names, as spelled on the command line
            options = {a.dest.replace("_", "-"): a for a in actions if a.dest in vars(args)}
            del options["config"]
            for key, value in self.file.items():
                action = options.get(key)
                if action is None:
                    raise ConfigError(f"unknown config key {key!r} in {path}")
                if action.choices is not None and value not in action.choices:
                    raise ConfigError(f"config key {key!r} in {path}: invalid choice {value!r} (choose from {', '.join(action.choices)})")
                # a --mix mapping goes to SynthConfig's checks as it is
                if action.type is None and key != "mix" and not isinstance(value, str):
                    raise ConfigError(f"config key {key!r} in {path} must be a string, not {type(value).__name__}")
        self.resolved: dict = {}

    def get(self, key: str, default=None):
        flag = getattr(self.args, key.replace("-", "_"), None)
        value = flag if flag is not None else self.file.get(key, default)
        self.resolved[key] = value
        return value

    def require(self, key: str):
        value = self.get(key)
        if value is None:
            raise CorpusError(f"missing required option --{key}")
        return value

    def log(self, command: str) -> None:
        logger.info("command=%s resolved config: %s", command, json.dumps(self.resolved, sort_keys=True))


def _read_relations(path: str) -> RelationVocab:
    names = [line.strip() for line in read_text(Path(path), "relations file").splitlines() if line.strip()]
    try:
        return RelationVocab(names=tuple(names))
    except ValueError as exc:
        raise CorpusError(f"bad relations file {path}: {exc}") from None


def _read_vocab(path: str) -> Vocab:
    text = read_text(Path(path), "vocab file")  # its CorpusError is a ValueError: read outside the try
    try:
        return Vocab.from_json(json.loads(text))
    except ValueError as exc:
        raise CorpusError(f"bad vocab file {path}: {exc}") from None


def _span_mode(match_mode: str | None) -> str:
    # partial-match datasets annotate only the last word of each entity
    return "last-token" if match_mode == "partial" else "whole-span"


def _load_corpus(
    cfg: RunConfig, max_seq_len: int | None, relations: RelationVocab | None = None, allow_empty: bool = False
):
    """Shared --data/--format/--relations handling for several commands;
    given `relations` take the place of the --relations file. A corpus with
    no sentences is a data error naming the file unless `allow_empty`."""
    data = cfg.require("data")
    fmt = cfg.get("format", "native")
    if relations is None and cfg.get("relations"):
        relations = _read_relations(cfg.get("relations"))
    if fmt == "public":
        if relations is None:
            raise CorpusError("public format requires --relations")
        corpus, warnings = load_public(
            data, relations, match_mode=_span_mode(cfg.get("match")), max_seq_len=max_seq_len
        )
    else:
        corpus, relations, warnings = load_native(data, relations, max_seq_len=max_seq_len)
    for w in warnings:
        logger.warning("%s", w)
    if not corpus and not allow_empty:
        raise CorpusError(f"{data}: empty corpus")
    return corpus, relations


def cmd_train(cfg: RunConfig) -> int:
    config = TrainConfig(
        epochs=cfg.get("epochs", TrainConfig.epochs),
        batch_size=cfg.get("batch-size", TrainConfig.batch_size),
        learning_rate=cfg.get("lr", TrainConfig.learning_rate),
        dropout_rate=cfg.get("dropout", TrainConfig.dropout_rate),
        max_seq_len=cfg.get("max-len", TrainConfig.max_seq_len),
        emb_dim=cfg.get("emb-dim", TrainConfig.emb_dim),
        min_count=cfg.get("min-count", TrainConfig.min_count),
        seed=cfg.get("seed", TrainConfig.seed),
    )
    out = cfg.get("out", "checkpoint.npz")
    cfg.log("train")
    logger.info("root seed %d", config.seed)

    corpus, relations = _load_corpus(cfg, config.max_seq_len)
    vocab = _read_vocab(cfg.get("vocab")) if cfg.get("vocab") else None

    model, log = train(corpus, relations, config, vocab=vocab, checkpoint_path=out)
    write_loss_log(f"{out}.log", log)
    print(f"trained {len(log)} epochs on {len(corpus)} sentences")
    print(f"final loss {log[-1].mean_loss:.6f}")
    print(f"checkpoint: {out}")
    print(f"loss log  : {out}.log")
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    checkpoint = cfg.require("checkpoint")
    cfg.log("eval")
    model = load_checkpoint(checkpoint)

    relations_path = cfg.get("relations")
    if relations_path:
        given = _read_relations(relations_path)
        if given.names != model.relations.names:
            raise CorpusError("relations file does not match checkpoint relations")
    vocab_path = cfg.get("vocab")
    if vocab_path:
        if _read_vocab(vocab_path).token_to_index != model.vocab.token_to_index:
            raise CorpusError("vocab file does not match checkpoint vocab")

    # reuse the checkpoint relations when loading
    corpus, _ = _load_corpus(cfg, model.config.max_seq_len, model.relations, allow_empty=True)

    started = time.perf_counter()
    predictions = stack_rows(predict(s, model) for s in corpus)
    elapsed = time.perf_counter() - started

    gold = stack_rows(s.triples for s in corpus)
    flags = [classify_pattern(s) for s in corpus]
    modes = [cfg.get("match")] if cfg.get("match") else list(MATCH_MODES)
    reports = breakdown(predictions, gold, flags, modes)
    for report in reports:
        print(report.to_text())
    per_sentence = f"{1000.0 * elapsed / len(corpus):.2f}ms per sentence" if corpus else "no sentences"
    print(f"inference wall-clock: {elapsed:.3f}s total, {per_sentence}")
    kv = [report.to_kv() for report in reports]
    out = cfg.get("out")
    if out:
        write_lines(out, kv)
    else:
        print("\n".join(kv))
    export_path = cfg.get("export-relations")
    if export_path:
        export_relation_embeddings(model.arrays["rel_tag_emb"], model.relations, export_path)
        print(f"relation representations: {export_path}")
    return EXIT_OK


def _triple_lines(rows, relations: RelationVocab) -> list[str]:
    """The text (hb..he, name, tb..te) of each distinct row (k, hb, he, tb, te),
    in the order of a sentence's gold rows."""
    return [
        f"({hb}..{he}, {relations.names[k]}, {tb}..{te})" for k, hb, he, tb, te in canonical_rows(rows).tolist()
    ]


def cmd_tag(cfg: RunConfig) -> int:
    raw = cfg.get("sentence")
    cfg.log("tag")
    if raw is None:
        raw = sys.stdin.read()
    relations = _read_relations(cfg.get("relations")) if cfg.get("relations") else None
    record = {"id": "stdin", "triples": [], **parse_record(raw, "tag input")}
    known = {name: i for i, name in enumerate(relations.names)} if relations else {}
    sentence = native_sentence(record, known, relations is None, "tag input")
    vocab = relations or RelationVocab(names=tuple(known) or ("none",))

    result = roundtrip_check(sentence, len(vocab))
    for k in np.flatnonzero(result.tags.any(axis=(0, 2))).tolist():
        print(f"relation: {vocab.names[k]}")
        print(render_relation_grid(result.tags, k, sentence.tokens))
        print()
    for c in result.collisions:
        print(f"collision at {c.cell}: kept {c.kept.name}, dropped {c.dropped.name}")

    print("decoded triples:")
    for line in _triple_lines(result.decoded, vocab):
        print(f"  {line}")
    if result.exact and len(sentence.triples) == 0:
        print("roundtrip: exact (empty)")
    elif result.exact:
        print("roundtrip: exact")
    else:
        print(f"roundtrip: {result}")
        for label, rows in (("missing ", result.missing), ("spurious", result.spurious)):
            for line in _triple_lines(rows, vocab):
                print(f"  {label}: {line}")
    return EXIT_OK


def _parse_mix(raw: str) -> dict[str, float]:
    mix = {}
    for part in raw.split(","):
        if not part.strip():
            continue
        try:
            name, value = part.split("=")
            value = float(value)
        except ValueError as exc:
            raise CorpusError(f"bad mix entry {part!r}") from exc
        if name.strip() in mix:
            raise CorpusError(f"bad mix entry {part!r}: {name.strip()!r} is named twice")
        mix[name.strip()] = value
    return mix


def cmd_synth(cfg: RunConfig) -> int:
    out = cfg.require("out")
    mix = cfg.get("mix", default_mix())  # a config-file value goes to the checks as is
    config = SynthConfig(
        sentences=cfg.get("count", SynthConfig.sentences),
        num_relations=cfg.get("num-relations", SynthConfig.num_relations),
        mix=_parse_mix(mix) if isinstance(mix, str) else mix,
        min_len=cfg.get("min-len", SynthConfig.min_len),
        max_len=cfg.get("max-len", SynthConfig.max_len),
        seed=cfg.get("seed", SynthConfig.seed),
    )
    cfg.log("synth")
    logger.info("root seed %d", config.seed)

    corpus, relations, counts = generate_corpus(config)
    save_native(corpus, relations, out)
    print(f"wrote {len(corpus)} sentences to {out}")
    print("intended pattern counts: " + json.dumps(counts, sort_keys=True))
    print(corpus_stats(corpus).to_text())
    return EXIT_OK


def cmd_stats(cfg: RunConfig) -> int:
    cfg.log("stats")
    corpus, _ = _load_corpus(cfg, max_seq_len=None)
    print(corpus_stats(corpus).to_text())
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "tag": cmd_tag,
    "synth": cmd_synth,
    "stats": cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("RELGRID_LOG_LEVEL", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            # a diverging run ends in one NumericError line, not NumPy's overflow warnings first;
            # filters are process-wide, so this covers the scorer's pool threads too
            warnings.filterwarnings("ignore", category=RuntimeWarning, module=r"relgrid\.")
            return COMMANDS[args.command](RunConfig(args, parser.subcommands[args.command]._actions))
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except (CorpusError, GenerationError, OSError, ValueError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
