"""Command-line surface: train / eval / tag / synth / stats.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure,
130 (128 + SIGINT) on Ctrl-C and 143 (128 + SIGTERM), each reported in one line,
and 141 (128 + SIGPIPE, the shell's code) when standard output is a pipe whose
reader has gone, as in `relgrid stats ... | head -1`; nothing is reported. An
interrupted train keeps the checkpoint and the `.log` of its last finished epoch.
A training option of the wrong type or out of range, from a flag or from
the config file, is a usage error, and so is a missing required option
(such as --data) or a config file that is not a JSON object, names a key
twice in any object, or holds a key that is not an option of the
subcommand or a value that flag would refuse. An unreadable
or unwritable file, or a record or vocab file naming a key twice, is a data error.
Every option is resolved once, before the command runs: its flag, else the
config file's value, else the parser's default. One INFO line logs them all
before the command reads any file; train and synth then log their root seed.
RELGRID_LOG_LEVEL sets verbosity to a logging level name in any case (DEBUG, INFO,
WARNING, ERROR, CRITICAL; default WARNING); any other value is a usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS
from .config import ConfigError
from .corpus import (
    CorpusError,
    RelationVocab,
    RepeatedKeyError,
    classify_pattern,
    corpus_stats,
    load_native,
    load_public,
    native_sentence,
    parse_record,
    read_text,
    save_native,
    unique_keys,
    write_lines,
)
from .encoder import Vocab
from .evaluation import MATCH_MODES, breakdown, export_relation_embeddings, stack_rows
from .synthetic import GenerationError, SynthConfig, default_mix, generate_corpus
from .tagging import render_relation_grid, roundtrip_check
from .trainer import NumericError, TrainConfig, load_checkpoint, predict, train

logger = logging.getLogger("relgrid")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_INTERRUPT = 130
EXIT_PIPE = 141
EXIT_TERM = 143

_EVAL_CHUNK_ROWS = 2**15  # predicted rows eval counts at once, give or take the last sentence

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
    p_train.add_argument("--format", choices=("native", "public"), default="native")
    p_train.add_argument("--relations", help="relation names, one per line")
    p_train.add_argument("--vocab", help="token vocab JSON to reuse")
    p_train.add_argument("--match", choices=MATCH_MODES, help="span resolution for public data maps to whole-span (exact) or last-token (partial)")
    p_train.add_argument("--out", "--checkpoint", dest="out", default="checkpoint.npz", help="checkpoint output path")
    p_train.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p_train.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p_train.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p_train.add_argument("--dropout", type=float, default=TrainConfig.dropout_rate)
    p_train.add_argument("--max-len", type=int, default=TrainConfig.max_seq_len)
    p_train.add_argument("--emb-dim", type=int, default=TrainConfig.emb_dim)
    p_train.add_argument("--min-count", type=int, default=TrainConfig.min_count)

    p_eval = sub.add_parser("eval", help="score a checkpoint against a corpus")
    p_eval.add_argument("--data", help="evaluation corpus path")
    p_eval.add_argument("--format", choices=("native", "public"), default="native")
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
    p_synth.add_argument("--count", type=int, default=SynthConfig.sentences, help="number of sentences")
    p_synth.add_argument(
        "--mix",
        default=default_mix(),
        help="pattern proportions, e.g. normal=0.25,epo=0.25,seo=0.25,hto=0.25",
    )
    p_synth.add_argument("--num-relations", type=int, default=SynthConfig.num_relations)
    p_synth.add_argument("--min-len", type=int, default=SynthConfig.min_len)
    p_synth.add_argument("--max-len", type=int, default=SynthConfig.max_len)

    p_stats = sub.add_parser("stats", help="print corpus pattern/bucket statistics")
    p_stats.add_argument("--data", help="corpus path")
    p_stats.add_argument("--format", choices=("native", "public"), default="native")
    p_stats.add_argument("--relations", help="relation names (public format)")
    p_stats.add_argument("--match", choices=MATCH_MODES, help="span resolution for public data")

    for p in sub.choices.values():
        p.add_argument("--config", help="JSON config file; flags override it")
    for p, seed in ((p_train, TrainConfig.seed), (p_synth, SynthConfig.seed)):
        p.add_argument("--seed", type=int, default=seed, help="root seed (default %(default)s)")
    return parser


# the options each command cannot run without, checked in this order
_REQUIRED = {"train": ("data",), "eval": ("checkpoint", "data"), "synth": ("out",), "stats": ("data",)}


def _read_config(path: str, parser: argparse.ArgumentParser) -> dict:
    """The values of a JSON config file by option dest, checked like the subcommand's flags."""
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"no such config file: {path}")
    try:
        values = json.loads(read_text(path, "config file"), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    except RepeatedKeyError as exc:
        raise ConfigError(f"config file {path} {exc}") from None
    except CorpusError as exc:  # not UTF-8
        raise ConfigError(f"config file {exc}") from None
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    # keys are the subcommand's option names, as spelled on the command line
    options = {a.dest.replace("_", "-"): a for a in parser._actions if a.dest not in ("help", "config")}
    for key, value in values.items():
        action = options.get(key)
        if action is None:
            raise ConfigError(f"unknown config key {key!r} in {path}")
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"config key {key!r} in {path}: invalid choice {value!r} (choose from {', '.join(action.choices)})")
        # a --mix mapping goes to SynthConfig's checks as it is
        if action.type is None and key != "mix" and not isinstance(value, str):
            raise ConfigError(f"config key {key!r} in {path} must be a string, not {type(value).__name__}")
    return {options[key].dest: value for key, value in values.items()}


def _resolve(args: argparse.Namespace, argv: list[str], parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Every option of the command once: its flag, else the --config file's value, else
    the parser's default. Checks the required options and logs them all."""
    if args.config:
        # file values fill the namespace first, so argparse sets a default only where both are silent
        rest = argv[argv.index(args.command) + 1 :]
        args = parser.parse_args(rest, argparse.Namespace(**_read_config(args.config, parser), command=args.command))
    for key in _REQUIRED.get(args.command, ()):
        if getattr(args, key) is None:
            raise ConfigError(f"missing required option --{key}")
    options = {dest.replace("_", "-"): value for dest, value in vars(args).items() if dest not in ("command", "config")}
    logger.info("command=%s resolved config: %s", args.command, json.dumps(options, sort_keys=True))
    return args


def _read_relations(path: str) -> RelationVocab:
    names = [line.strip() for line in read_text(Path(path), "relations file").splitlines() if line.strip()]
    try:
        return RelationVocab(names=tuple(names))
    except ValueError as exc:
        raise CorpusError(f"bad relations file {path}: {exc}") from None


def _read_vocab(path: str) -> Vocab:
    text = read_text(Path(path), "vocab file")  # its CorpusError is a ValueError: read outside the try
    try:
        return Vocab.from_json(json.loads(text, object_pairs_hook=unique_keys))
    except ValueError as exc:
        raise CorpusError(f"bad vocab file {path}: {exc}") from None


def _span_mode(match_mode: str | None) -> str:
    # partial-match datasets annotate only the last word of each entity
    return "last-token" if match_mode == "partial" else "whole-span"


def _load_corpus(
    args: argparse.Namespace, max_seq_len: int | None, relations: RelationVocab | None = None, allow_empty: bool = False
):
    """The corpus that --data, --format, --relations and --match name, shared by several
    commands; given `relations` take the place of the --relations file. A corpus with no
    sentences is a data error naming the file unless `allow_empty`."""
    if relations is None and args.relations:
        relations = _read_relations(args.relations)
    if args.format == "public":
        if relations is None:
            raise ConfigError("public format requires --relations")
        corpus, warnings = load_public(
            args.data, relations, match_mode=_span_mode(args.match), max_seq_len=max_seq_len
        )
    else:
        corpus, relations, warnings = load_native(args.data, relations, max_seq_len=max_seq_len)
    for w in warnings:
        logger.warning("%s", w)
    if not corpus and not allow_empty:
        raise CorpusError(f"{args.data}: empty corpus")
    return corpus, relations


def cmd_train(args: argparse.Namespace) -> int:
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        dropout_rate=args.dropout,
        max_seq_len=args.max_len,
        emb_dim=args.emb_dim,
        min_count=args.min_count,
        seed=args.seed,
    )
    logger.info("root seed %d", config.seed)

    corpus, relations = _load_corpus(args, config.max_seq_len)
    vocab = _read_vocab(args.vocab) if args.vocab else None

    model, log = train(corpus, relations, config, vocab=vocab, checkpoint_path=args.out)
    print(f"trained {len(log)} epochs on {len(corpus)} sentences")
    print(f"final loss {log[-1].mean_loss:.6f}")
    print(f"checkpoint: {args.out}")
    print(f"loss log  : {args.out}.log")
    return EXIT_OK


def _eval_reports(corpus: list, model, modes: list[str]) -> tuple[list, float]:
    """breakdown's reports on the corpus, and the seconds spent in predict, summed over chunks
    that each end once their predicted rows reach _EVAL_CHUNK_ROWS: one chunk's rows are held."""
    reports, seconds, start, predictions, held = None, 0.0, 0, [], 0
    for end, sentence in enumerate(corpus, 1):
        started = time.perf_counter()
        predictions.append(predict(sentence, model))
        seconds += time.perf_counter() - started
        held += len(predictions[-1])
        if held >= _EVAL_CHUNK_ROWS or end == len(corpus):
            chunk, pred = corpus[start:end], stack_rows(predictions)
            start, predictions, held = end, [], 0
            counted = breakdown(pred, stack_rows(s.triples for s in chunk), [classify_pattern(s) for s in chunk], modes)
            reports = counted if reports is None else [a + b for a, b in zip(reports, counted)]
    return reports or breakdown(stack_rows([]), stack_rows([]), [], modes), seconds  # or an empty corpus's


def cmd_eval(args: argparse.Namespace) -> int:
    model = load_checkpoint(args.checkpoint)

    if args.relations:
        if _read_relations(args.relations).names != model.relations.names:
            raise CorpusError("relations file does not match checkpoint relations")
    if args.vocab:
        if _read_vocab(args.vocab).token_to_index != model.vocab.token_to_index:
            raise CorpusError("vocab file does not match checkpoint vocab")

    # reuse the checkpoint relations when loading
    corpus, _ = _load_corpus(args, model.config.max_seq_len, model.relations, allow_empty=True)

    modes = [args.match] if args.match else list(MATCH_MODES)
    reports, elapsed = _eval_reports(corpus, model, modes)
    for report in reports:
        print(report.to_text())
    per_sentence = f"{1000.0 * elapsed / len(corpus):.2f}ms per sentence" if corpus else "no sentences"
    print(f"inference wall-clock: {elapsed:.3f}s total, {per_sentence}")
    kv = [report.to_kv() for report in reports]
    if args.out:
        write_lines(args.out, kv)
    else:
        print("\n".join(kv))
    if args.export_relations:
        export_relation_embeddings(model.arrays["rel_tag_emb"], model.relations, args.export_relations)
        print(f"relation representations: {args.export_relations}")
    return EXIT_OK


def _triple_lines(rows: np.ndarray, relations: RelationVocab) -> list[str]:
    """The text (hb..he, name, tb..te) of each row (k, hb, he, tb, te), in the given order."""
    return [f"({hb}..{he}, {relations.names[k]}, {tb}..{te})" for k, hb, he, tb, te in rows.tolist()]


def cmd_tag(args: argparse.Namespace) -> int:
    raw = sys.stdin.read() if args.sentence is None else args.sentence
    relations = _read_relations(args.relations) if args.relations else None
    record = {"id": "stdin", "triples": [], **parse_record(raw, "tag input")}
    known = {name: i for i, name in enumerate(relations.names)} if relations else {}
    sentence = native_sentence(record, known, relations is None, "tag input")
    vocab = relations or RelationVocab(names=tuple(known) or ("none",))

    result = roundtrip_check(sentence, len(vocab))
    for k in np.flatnonzero(result.tags.any(axis=(0, 2))).tolist():
        print(f"relation: {vocab.names[k]}")
        print(render_relation_grid(result.tags, k, sentence.tokens))
        print()
    for cell, kept, dropped in result.collisions:
        print(f"collision at {cell}: kept {kept.name}, dropped {dropped.name}")

    print("decoded triples:")
    for line in _triple_lines(result.decoded, vocab):
        print(f"  {line}")
    if result.exact:
        print("roundtrip: exact (empty)" if len(sentence.triples) == 0 else "roundtrip: exact")
    else:
        print(f"roundtrip: lossy (missing {len(result.missing)}, spurious {len(result.spurious)})")
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


def cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(
        sentences=args.count,
        num_relations=args.num_relations,
        # a flag's text is parsed; a config-file value or the default goes to the checks as is
        mix=_parse_mix(args.mix) if isinstance(args.mix, str) else args.mix,
        min_len=args.min_len,
        max_len=args.max_len,
        seed=args.seed,
    )
    logger.info("root seed %d", config.seed)

    corpus, relations, counts = generate_corpus(config)
    save_native(corpus, relations, args.out)
    print(f"wrote {len(corpus)} sentences to {args.out}")
    print("intended pattern counts: " + json.dumps(counts, sort_keys=True))
    print(corpus_stats(corpus).to_text())
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    corpus, _ = _load_corpus(args, max_seq_len=None)
    print(corpus_stats(corpus).to_text())
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "tag": cmd_tag,
    "synth": cmd_synth,
    "stats": cmd_stats,
}


def _discard_stdout() -> None:
    """Point standard output's descriptor at os.devnull, so that the interpreter's
    last flush of what is still buffered for a closed pipe stays quiet. An output
    with no descriptor, such as an in-memory stream, is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


class Terminated(KeyboardInterrupt):
    """SIGTERM, raised by main's handler: a KeyboardInterrupt, so Ctrl-C's cleanup runs for it too."""


def _terminate(signum, frame):
    raise Terminated


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("RELGRID_LOG_LEVEL", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):  # an unknown name maps to "Level <name>"
        sys.stderr.write(f"error: RELGRID_LOG_LEVEL {level!r} is not a logging level name such as INFO\n")
        return EXIT_USAGE
    logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
    logger.info("BLAS threads: %s", " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS if v in os.environ))
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    # only the main thread may set a handler; the old one is back on return, for in-process callers
    previous = signal.signal(signal.SIGTERM, _terminate) if threading.current_thread() is threading.main_thread() else None
    try:
        with warnings.catch_warnings():
            # a diverging run ends in one NumericError line, not NumPy's overflow warnings first;
            # filters are process-wide, so this covers the scorer's pool threads too
            warnings.filterwarnings("ignore", category=RuntimeWarning, module=r"relgrid\.")
            code = COMMANDS[args.command](_resolve(args, argv, parser.subcommands[args.command]))
        sys.stdout.flush()  # a gone reader shows here, not in the interpreter's last flush
        return code
    except Terminated:
        sys.stderr.write("terminated\n")
        return EXIT_TERM
    except KeyboardInterrupt:
        sys.stderr.write("interrupted\n")
        return EXIT_INTERRUPT
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_PIPE
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except (CorpusError, GenerationError, OSError, ValueError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    finally:
        if previous is not None:  # None too for a handler set outside Python, which Python cannot set back
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
