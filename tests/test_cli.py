import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relgrid.cli
from relgrid.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from relgrid.corpus import RelationVocab, load_native, save_native
from relgrid.encoder import build_vocab
from relgrid.evaluation import export_relation_embeddings
from relgrid.tagging import encode
from relgrid.trainer import EpochRecord, NumericError, TrainConfig, init_model, save_checkpoint, write_loss_log

from conftest import make_sentence, triple

FIG2A_RECORD = {
    "id": "fig2a",
    "tokens": ["New", "York", "City", "is", "located", "in", "New", "York", "State"],
    "triples": [{"head": [0, 2], "relation": "located_in", "tail": [6, 8]}],
}


def with_value(array, value):
    """A copy of `array` with `value` in its middle element."""
    array = array.copy()
    array.flat[array.size // 2] = value
    return array


def with_header_field(checkpoint, path, field, change):
    """Write to `path` a copy of `checkpoint` whose header field is
    change(field); return the path."""
    with np.load(checkpoint) as data:
        arrays = {name: data[name] for name in data.files}
    header = json.loads(str(arrays["header_json"]))
    header[field] = change(header[field])
    arrays["header_json"] = np.array(json.dumps(header))
    np.savez(path, **arrays)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def eval_report(capsys, data, checkpoint):
    """The stdout lines of a successful eval, the wall-clock line left out."""
    code, stdout, stderr = run(capsys, "eval", "--data", str(data), "--checkpoint", str(checkpoint))
    assert (code, stderr) == (EXIT_OK, "")
    return [line for line in stdout.splitlines() if "wall-clock" not in line]


@pytest.fixture(scope="module")
def synth_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.jsonl"
    code = main(
        [
            "synth",
            "--out",
            str(path),
            "--count",
            "16",
            "--num-relations",
            "3",
            "--seed",
            "5",
        ]
    )
    assert code == EXIT_OK
    return path


class TestSynth:
    def test_writes_corpus_and_reports_counts(self, capsys, tmp_path):
        out = tmp_path / "c.jsonl"
        code, stdout, _ = run(
            capsys, "synth", "--out", str(out), "--count", "12", "--seed", "3"
        )
        assert code == EXIT_OK
        assert out.exists()
        assert "intended pattern counts" in stdout
        assert len(out.read_text().splitlines()) == 12

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        outs = []
        for name in ("x.jsonl", "y.jsonl"):
            out = tmp_path / name
            code, _, _ = run(
                capsys, "synth", "--out", str(out), "--count", "10", "--seed", "9"
            )
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_infeasible_mix_is_data_error(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys,
            "synth",
            "--out",
            str(tmp_path / "z.jsonl"),
            "--count",
            "4",
            "--num-relations",
            "1",
            "--mix",
            "epo=1.0",
        )
        assert code == EXIT_DATA
        assert "relations" in stderr

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"count": "3"}, "sentences"),
            ({"mix": 5}, "mix"),
            ({"mix": {"normal": "1"}}, "mix"),
            ({"seed": 1.5}, "seed"),
            ({"min-len": "6"}, "min_len"),
            ({"mix": []}, "mix"),
            ({"mix": 0}, "mix"),
        ],
        ids=[
            "count-string", "mix-number", "mix-string-share", "seed-float", "min-len-string",
            "mix-empty-list", "mix-zero",
        ],
    )
    def test_config_value_of_wrong_type_is_usage_error(self, capsys, tmp_path, config, field):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "c.jsonl"
        code, stdout, stderr = run(capsys, "synth", "--out", str(out), "--config", str(path))
        assert code == EXIT_USAGE
        assert stderr.startswith(f"error: {field} must be ")
        assert stderr.count("\n") == 1
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--count", "4", "--mix", "normal=nan"], {}),
            (["--count", "4", "--mix", "normal=inf,epo=1"], {}),
            (["--count", "4"], {"mix": {"normal": 1e999}}),
            (["--count", "10", "--mix", "normal=1e308"], {}),
        ],
        ids=["nan", "inf", "config-1e999", "overflow"],
    )
    def test_non_finite_mix_is_one_line_data_error(self, capsys, tmp_path, flags, config):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(config))  # 1e999 is written as Infinity
        out = tmp_path / "z.jsonl"
        code, stdout, stderr = run(capsys, "synth", "--out", str(out), "--config", str(path), *flags)
        assert code == EXIT_DATA
        assert stderr == "error: mix proportions times the sentence count must be finite\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, key",
        [('{"count": 3, "count": 2}', "count"), ('{"mix": {"normal": 1, "normal": 0}}', "normal")],
        ids=["top-level", "nested-mix"],
    )
    def test_config_key_named_twice_is_usage_error(self, capsys, tmp_path, text, key):
        path = tmp_path / "synth.json"
        path.write_text(text)
        out = tmp_path / "c.jsonl"
        code, stdout, stderr = run(capsys, "synth", "--out", str(out), "--config", str(path))
        assert (code, stdout) == (EXIT_USAGE, "")
        assert stderr == f"error: config file {path} repeats the key {key!r}\n"
        assert not out.exists()

    def test_mix_naming_a_pattern_twice_is_data_error(self, capsys, tmp_path):
        out = tmp_path / "c.jsonl"
        code, stdout, stderr = run(capsys, "synth", "--out", str(out), "--mix", "normal=0.5,normal=0.5,epo=0")
        assert (code, stdout) == (EXIT_DATA, "")
        assert stderr == "error: bad mix entry 'normal=0.5': 'normal' is named twice\n"
        assert not out.exists()

    def test_empty_config_mix_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps({"mix": {}}))
        out = tmp_path / "c.jsonl"
        code, stdout, stderr = run(capsys, "synth", "--out", str(out), "--config", str(path))
        assert code == EXIT_DATA
        assert stderr == "error: mix proportions must be non-negative and sum > 0\n"
        assert stdout == ""
        assert not out.exists()


class TestStats:
    def test_prints_breakdown(self, capsys, synth_file):
        code, stdout, _ = run(capsys, "stats", "--data", str(synth_file))
        assert code == EXIT_OK
        for key in ("sentences", "triples", "normal", "epo", "seo", "hto", "N=1"):
            assert key in stdout

    def test_missing_file_is_data_error(self, capsys):
        code, _, stderr = run(capsys, "stats", "--data", "/nope/missing.jsonl")
        assert code == EXIT_DATA
        assert "missing.jsonl" in stderr

    def test_empty_corpus_is_data_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        relations = tmp_path / "rels.txt"
        relations.write_text("r0\n")
        out = tmp_path / "m.npz"
        for command in (["stats"], ["train", "--out", str(out)]):
            code, stdout, stderr = run(
                capsys, *command, "--data", str(empty), "--relations", str(relations)
            )
            assert (code, stdout) == (EXIT_DATA, "")
            assert stderr == f"error: {empty}: empty corpus\n"
        assert not out.exists()

    def test_eval_of_an_empty_corpus_reports_no_per_sentence_time(self, capsys, synth_file, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        ck = tmp_path / "m.npz"
        code, _, _ = run(
            capsys, "train", "--data", str(synth_file), "--epochs", "1", "--emb-dim", "4", "--out", str(ck)
        )
        assert code == EXIT_OK
        code, stdout, stderr = run(capsys, "eval", "--data", str(empty), "--checkpoint", str(ck))
        assert (code, stderr) == (EXIT_OK, "")
        [timing] = [line for line in stdout.splitlines() if "wall-clock" in line]
        total = timing.removeprefix("inference wall-clock: ").removesuffix("s total, no sentences")
        assert float(total) >= 0.0 and "per sentence" not in stdout

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1, 2]", "record must be a JSON object"),
            ('{"text": 5}', '"text" must be a string'),
            ('{"text": ["a", "b"]}', '"text" must be a string'),
            ('{"text": "a b", "triple_list": 5}', '"triple_list" must be a list'),
            ('{"text": "a b", "triple_list": null}', '"triple_list" must be a list'),
            ('{"id": null, "text": "a b"}', '"id" must be a string'),
            ('{"id": 7, "text": "a b"}', '"id" must be a string'),
            ('{"id": ["x"], "text": "a b"}', '"id" must be a string'),
            ('{"text": "a b", "triple_list": [["a", "nope", "b"]]}', "sentence '2': unknown relation 'nope'"),
        ],
        ids=["list-record", "number-text", "list-text", "number-triples", "null-triples",
             "null-id", "number-id", "list-id", "unknown-relation"],
    )
    def test_malformed_public_record_is_one_line_data_error(
        self, capsys, tmp_path, line, message
    ):
        data = tmp_path / "pub.jsonl"
        data.write_text('{"text": "a b", "triple_list": []}\n' + line + "\n")
        relations = tmp_path / "rels.txt"
        relations.write_text("r0\n")
        code, stdout, stderr = run(
            capsys, "stats", "--format", "public", "--data", str(data),
            "--relations", str(relations),
        )
        assert code == EXIT_DATA
        assert stderr == f"error: {data}:2: {message}\n"
        assert stdout == ""

    @pytest.mark.parametrize(
        "text, triple",
        [("x r y", "xry"), ("None r 1.5", [None, "r", 1.5]), ("a r c", ["a", "r", "c", "extra"])],
        ids=["string", "null-and-number", "four-elements"],
    )
    def test_public_triple_not_three_strings_is_one_line_data_error(
        self, capsys, tmp_path, text, triple
    ):
        # each one resolves to spans if read through str(): a triple must
        # be exactly a list of three strings
        data = tmp_path / "pub.jsonl"
        good = {"text": text, "triple_list": [[text.split()[0], "r", text.split()[2]]]}
        bad = {"id": "s2", "text": text, "triple_list": [good["triple_list"][0], triple]}
        data.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        relations = tmp_path / "rels.txt"
        relations.write_text("r\n")
        code, stdout, stderr = run(
            capsys, "stats", "--format", "public", "--data", str(data),
            "--relations", str(relations),
        )
        assert code == EXIT_DATA and stdout == ""
        assert stderr == (
            f"error: {data}:2: malformed triple 1 in sentence 's2': "
            "needs [head, relation, tail] as three strings\n"
        )


    @pytest.mark.parametrize(
        "names, reason",
        [("r\nr\n", "duplicate relation names"), ("\n \n", "relation vocabulary is empty")],
        ids=["duplicate", "empty"],
    )
    def test_bad_relations_file_is_data_error_naming_the_file(self, capsys, tmp_path, names, reason):
        data = tmp_path / "pub.jsonl"
        data.write_text('{"text": "a b", "triple_list": []}\n')
        relations = tmp_path / "rels.txt"
        relations.write_text(names)
        code, stdout, stderr = run(
            capsys, "stats", "--format", "public", "--data", str(data), "--relations", str(relations)
        )
        assert (code, stdout) == (EXIT_DATA, "")
        assert stderr == f"error: bad relations file {relations}: {reason}\n"

    @pytest.mark.parametrize("triples", ["5", "null", "{}"], ids=["number", "null", "object"])
    def test_native_triples_not_a_list_is_one_line_data_error(self, capsys, tmp_path, triples):
        data = tmp_path / "native.jsonl"
        data.write_text(
            '{"id": "a", "tokens": ["a", "b"], "triples": []}\n'
            f'{{"id": "b", "tokens": ["a", "b"], "triples": {triples}}}\n'
        )
        code, stdout, stderr = run(capsys, "stats", "--data", str(data))
        assert code == EXIT_DATA
        assert stderr == f'error: {data}:2: "triples" must be a list\n'
        assert stdout == ""


class TestTrainEval:
    def test_train_writes_checkpoint_and_log(self, capsys, synth_file, tmp_path):
        ck = tmp_path / "model.npz"
        code, stdout, _ = run(
            capsys,
            "train",
            "--data",
            str(synth_file),
            "--epochs",
            "2",
            "--seed",
            "7",
            "--out",
            str(ck),
        )
        assert code == EXIT_OK
        assert ck.exists()
        log_lines = (tmp_path / "model.npz.log").read_text().splitlines()
        assert len(log_lines) == 2

    def test_same_seed_same_loss_column(self, capsys, synth_file, tmp_path):
        columns = []
        for name in ("a.npz", "b.npz"):
            ck = tmp_path / name
            code, _, _ = run(
                capsys,
                "train",
                "--data",
                str(synth_file),
                "--epochs",
                "2",
                "--seed",
                "11",
                "--out",
                str(ck),
            )
            assert code == EXIT_OK
            lines = (tmp_path / f"{name}.log").read_text().splitlines()
            columns.append([line.split("\t")[:2] for line in lines])
        assert columns[0] == columns[1]

    def test_missing_data_names_path(self, capsys):
        code, _, stderr = run(capsys, "train", "--data", "/nope/data.jsonl")
        assert code == EXIT_DATA
        assert "/nope/data.jsonl" in stderr

    def test_config_file_with_flag_override(self, capsys, synth_file, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"data": str(synth_file), "epochs": 1, "seed": 2})
        )
        ck = tmp_path / "cfg.npz"
        code, _, _ = run(
            capsys,
            "train",
            "--config",
            str(config),
            "--epochs",
            "3",
            "--out",
            str(ck),
        )
        assert code == EXIT_OK
        assert len((tmp_path / "cfg.npz.log").read_text().splitlines()) == 3

    @pytest.mark.parametrize(
        "flags, config, field",
        [
            (["--epochs", "0"], None, "epochs"),
            ([], {"epochs": "1"}, "epochs"),
            (["--batch-size", "0"], None, "batch_size"),
            (["--lr", "nan"], None, "learning_rate"),
            (["--dropout", "1.0"], None, "dropout_rate"),
        ],
        ids=["epochs-zero", "epochs-string-in-config", "batch-size-zero", "lr-nan", "dropout-one"],
    )
    def test_invalid_train_config_is_usage_error(
        self, capsys, synth_file, tmp_path, flags, config, field
    ):
        argv = ["train", "--data", str(synth_file), "--out", str(tmp_path / "m.npz")]
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        code, stdout, stderr = run(capsys, *argv, *flags)
        assert code == EXIT_USAGE
        assert stderr.startswith(f"error: {field} must be ")
        assert stderr.count("\n") == 1
        assert stdout == ""
        assert not (tmp_path / "m.npz").exists()

    def test_corpus_tokens_spelled_pad_and_unk_train_a_checkpoint_eval_reads(
        self, capsys, tmp_path
    ):
        records = [
            {"id": "x", "tokens": ["a", "<pad>", "b"],
             "triples": [{"head": [0, 0], "relation": "r", "tail": [2, 2]}]},
            {"id": "y", "tokens": ["<unk>", "c", "b"], "triples": []},
        ]
        data, ck = tmp_path / "d.jsonl", tmp_path / "m.npz"
        data.write_text("".join(json.dumps(record) + "\n" for record in records))
        assert run(capsys, "train", "--data", str(data), "--epochs", "1", "--out", str(ck))[0] == EXIT_OK
        code, _, stderr = run(capsys, "eval", "--data", str(data), "--checkpoint", str(ck))
        assert (code, stderr) == (EXIT_OK, "")
        with np.load(ck) as saved:
            vocab = json.loads(str(saved["header_json"]))["vocab"]
        assert sorted(vocab.values()) == list(range(len(vocab)))
        assert (vocab["<pad>"], vocab["<unk>"]) == (0, 1)

    def test_out_of_memory_is_one_line_data_error(self, capsys, synth_file, tmp_path):
        # 2**52 positional rows of 64 float64s is 2 EiB, more than any user
        # address space holds, so the allocation fails before a page is touched
        ck = tmp_path / "m.npz"
        code, stdout, stderr = run(
            capsys, "train", "--data", str(synth_file), "--max-len", str(2**52), "--out", str(ck)
        )
        assert (code, stdout) == (EXIT_DATA, "")
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert not ck.exists()

    def test_eval_prints_both_modes(self, capsys, synth_file, tmp_path):
        ck = tmp_path / "e.npz"
        run(
            capsys,
            "train",
            "--data",
            str(synth_file),
            "--epochs",
            "1",
            "--seed",
            "3",
            "--out",
            str(ck),
        )
        code, stdout, _ = run(
            capsys, "eval", "--data", str(synth_file), "--checkpoint", str(ck)
        )
        assert code == EXIT_OK
        assert "match mode: partial" in stdout
        assert "match mode: exact" in stdout
        assert "inference wall-clock" in stdout
        assert "partial.f1=" in stdout and "exact.f1=" in stdout

    def test_eval_report_layout_is_pinned(self, capsys, tmp_path):
        # an epo+seo sentence (3 triples), a sentence without triples and one
        # in the 5+ bucket, scored by an untrained seeded model
        def t(head, relation, tail):
            return {"head": list(head), "relation": relation, "tail": list(tail)}

        records = [
            {"id": "multi", "tokens": list("abcdef"),
             "triples": [t((0, 0), "r0", (2, 2)), t((2, 2), "r1", (0, 0)), t((0, 0), "r1", (4, 4))]},
            {"id": "none", "tokens": list("abcd"), "triples": []},
            {"id": "five", "tokens": list("abcdefghij"),
             "triples": [t((i, i), "r0", (i + 5, i + 5)) for i in range(4)] + [t((4, 4), "r1", (9, 9))]},
        ]
        data, ck, report = tmp_path / "c.jsonl", tmp_path / "m.npz", tmp_path / "report.txt"
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        corpus, relations, _ = load_native(data)
        save_checkpoint(ck, init_model(relations, build_vocab(corpus), TrainConfig(emb_dim=8, seed=2)))
        code, stdout, stderr = run(capsys, "eval", "--data", str(data), "--checkpoint", str(ck), "--out", str(report))
        assert (code, stderr) == (EXIT_OK, "")
        assert [line for line in stdout.splitlines() if "wall-clock" not in line] == """\
match mode: partial
  overall     P 0.0526  R 0.2500  F1 0.0870  (correct 2 / pred 38 / gold 8)
  normal      P 0.0400  R 0.2000  F1 0.0667
  epo         P 0.1250  R 0.3333  F1 0.1818
  seo         P 0.1250  R 0.3333  F1 0.1818
  N=3         P 0.1250  R 0.3333  F1 0.1818
  N=5+        P 0.0400  R 0.2000  F1 0.0667
  entity-pair P 0.0606  R 0.2500  F1 0.0976
  relation    P 0.6667  R 1.0000  F1 0.8000
match mode: exact
  overall     P 0.0263  R 0.1250  F1 0.0435  (correct 1 / pred 38 / gold 8)
  normal      P 0.0000  R 0.0000  F1 0.0000
  epo         P 0.1250  R 0.3333  F1 0.1818
  seo         P 0.1250  R 0.3333  F1 0.1818
  N=3         P 0.1250  R 0.3333  F1 0.1818
  N=5+        P 0.0000  R 0.0000  F1 0.0000
  entity-pair P 0.0263  R 0.1250  F1 0.0435
  relation    P 0.6667  R 1.0000  F1 0.8000""".splitlines()
        assert report.read_bytes() == b"""\
partial.bucket.3.f1=0.18181818181818182
partial.bucket.5+.f1=0.06666666666666667
partial.correct=2
partial.entity_pair.f1=0.0975609756097561
partial.f1=0.08695652173913043
partial.gold=8
partial.pattern.epo.f1=0.18181818181818182
partial.pattern.normal.f1=0.06666666666666667
partial.pattern.seo.f1=0.18181818181818182
partial.precision=0.05263157894736842
partial.predicted=38
partial.recall=0.25
partial.relation.f1=0.8
exact.bucket.3.f1=0.18181818181818182
exact.bucket.5+.f1=0.0
exact.correct=1
exact.entity_pair.f1=0.043478260869565216
exact.f1=0.043478260869565216
exact.gold=8
exact.pattern.epo.f1=0.18181818181818182
exact.pattern.normal.f1=0.0
exact.pattern.seo.f1=0.18181818181818182
exact.precision=0.02631578947368421
exact.predicted=38
exact.recall=0.125
exact.relation.f1=0.8
"""

    def test_repeated_triple_counts_once(self, capsys, tmp_path):
        # three triples listed, one of them twice and out of canonical order
        record = {"id": "d", "tokens": list("abcdef"), "triples": [
            {"head": [3, 4], "relation": "r", "tail": [0, 0]},
            {"head": [0, 1], "relation": "r", "tail": [3, 4]},
            {"head": [3, 4], "relation": "r", "tail": [0, 0]},
        ]}
        data, ck, report = tmp_path / "d.jsonl", tmp_path / "d.npz", tmp_path / "report.txt"
        data.write_text(json.dumps(record) + "\n")
        code, stdout, _ = run(capsys, "stats", "--data", str(data))
        assert code == EXIT_OK
        assert "triples        2\n" in stdout and "N=2            1\n" in stdout

        assert run(capsys, "train", "--data", str(data), "--epochs", "1", "--out", str(ck))[0] == EXIT_OK
        code, _, _ = run(capsys, "eval", "--data", str(data), "--checkpoint", str(ck), "--out", str(report))
        assert code == EXIT_OK
        assert "exact.gold=2\n" in report.read_text()

        corpus, relations, _ = load_native(data)
        save_native(corpus, relations, tmp_path / "saved.jsonl")
        assert json.loads((tmp_path / "saved.jsonl").read_text())["triples"] == record["triples"][1:]

    def test_eval_vocab_mismatch_is_data_error(self, capsys, synth_file, tmp_path):
        ck = tmp_path / "m.npz"
        run(
            capsys,
            "train",
            "--data",
            str(synth_file),
            "--epochs",
            "1",
            "--seed",
            "3",
            "--out",
            str(ck),
        )
        bad_vocab = tmp_path / "vocab.json"
        bad_vocab.write_text(json.dumps({"<pad>": 0, "<unk>": 1, "stranger": 2}))
        code, _, stderr = run(
            capsys,
            "eval",
            "--data",
            str(synth_file),
            "--checkpoint",
            str(ck),
            "--vocab",
            str(bad_vocab),
        )
        assert code == EXIT_DATA
        assert "vocab" in stderr

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"bach-size": 0}, "unknown config key 'bach-size'"),
            ({"batch_size": 2}, "unknown config key 'batch_size'"),
            ([1, 2], "must hold a JSON object"),
            ("epochs", "must hold a JSON object"),
        ],
        ids=["misspelled-key", "underscore-key", "list", "string"],
    )
    def test_bad_config_file_is_usage_error(self, capsys, synth_file, tmp_path, config, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "m.npz"
        code, stdout, stderr = run(
            capsys, "train", "--data", str(synth_file), "--out", str(out), "--config", str(path)
        )
        assert code == EXIT_USAGE
        assert stderr.startswith("error: ") and message in stderr
        assert stderr.count("\n") == 1
        assert stdout == ""
        assert not out.exists()

    @pytest.fixture
    def checkpoint(self, capsys, synth_file, tmp_path):
        ck = tmp_path / "good.npz"
        code, _, _ = run(
            capsys, "train", "--data", str(synth_file), "--epochs", "1", "--out", str(ck)
        )
        assert code == EXIT_OK
        return ck

    def test_truncated_checkpoint_is_data_error(self, capsys, synth_file, tmp_path, checkpoint):
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(checkpoint.read_bytes()[:3000])
        code, stdout, stderr = run(
            capsys, "eval", "--data", str(synth_file), "--checkpoint", str(truncated)
        )
        assert code == EXIT_DATA
        assert stderr.startswith(f"error: corrupt checkpoint {truncated}")
        assert stderr.count("\n") == 1
        assert stdout == ""

    def test_truncated_checkpoint_leaves_no_file_open(self, synth_file, tmp_path, checkpoint):
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(checkpoint.read_bytes()[:3000])
        src = str(Path(relgrid.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "relgrid.cli",
             "eval", "--data", str(synth_file), "--checkpoint", str(truncated)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == EXIT_DATA
        assert "ResourceWarning" not in proc.stderr
        assert proc.stderr.startswith(f"error: corrupt checkpoint {truncated}")

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "text",
        ["[1]", '{"a": 5}', '{"<pad>": 0, "<unk>": 1, "a": 1}', '{"<pad>": 1, "<unk>": 0}', "{"],
        ids=["list", "no-pad-unk", "duplicate-index", "pad-unk-swapped", "not-json"],
    )
    def test_malformed_vocab_is_one_line_data_error(
        self, capsys, request, synth_file, tmp_path, command, text
    ):
        vocab = tmp_path / "vocab.json"
        vocab.write_text(text)
        out = tmp_path / "m.npz"
        if command == "train":
            argv = ["train", "--data", str(synth_file), "--epochs", "1", "--out", str(out)]
        else:
            ck = request.getfixturevalue("checkpoint")
            argv = ["eval", "--data", str(synth_file), "--checkpoint", str(ck)]
        code, stdout, stderr = run(capsys, *argv, "--vocab", str(vocab))
        assert code == EXIT_DATA
        assert stderr.startswith(f"error: bad vocab file {vocab}: ")
        assert stderr.count("\n") == 1
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--data", "{data}", "--checkpoint", "{dir}"],
            ["stats", "--data", "{dir}"],
            ["stats", "--data", "{data}", "--relations", "{dir}"],
            ["stats", "--data", "{data}", "--config", "{dir}"],
            ["eval", "--data", "{data}", "--checkpoint", "{checkpoint}", "--vocab", "{dir}"],
            ["eval", "--data", "{data}", "--checkpoint", "{checkpoint}", "--out", "{dir}"],
        ],
        ids=["eval-checkpoint", "stats-data", "stats-relations", "stats-config", "eval-vocab", "eval-out"],
    )
    def test_directory_in_place_of_a_file_is_one_line_data_error(
        self, request, synth_file, tmp_path, argv
    ):
        directory = tmp_path / "adir"
        directory.mkdir()
        paths = {"data": synth_file, "dir": directory}
        if "{checkpoint}" in argv:
            paths["checkpoint"] = request.getfixturevalue("checkpoint")
        src = str(Path(relgrid.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "relgrid.cli", *(arg.format(**paths) for arg in argv)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == EXIT_DATA
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, exit_code, message",
        [
            (["stats", "--data", "{bad}"], EXIT_DATA, "{bad}: not UTF-8 text"),
            (["stats", "--data", "{bad}", "--format", "public", "--relations", "{relations}"],
             EXIT_DATA, "{bad}: not UTF-8 text"),
            (["train", "--data", "{bad}", "--out", "{out}"], EXIT_DATA, "{bad}: not UTF-8 text"),
            (["eval", "--data", "{bad}", "--checkpoint", "{checkpoint}"], EXIT_DATA, "{bad}: not UTF-8 text"),
            (["train", "--data", "{data}", "--relations", "{bad}", "--out", "{out}"],
             EXIT_DATA, "{bad}: not UTF-8 text"),
            (["stats", "--data", "{data}", "--config", "{bad}"], EXIT_USAGE, "config file {bad}: not UTF-8 text"),
            (["train", "--data", "{data}", "--vocab", "{bad}", "--out", "{out}"], EXIT_DATA, "{bad}: not UTF-8 text"),
        ],
        ids=["stats-corpus", "stats-public-corpus", "train-corpus", "eval-corpus", "relations", "config", "vocab"],
    )
    def test_file_not_utf8_is_one_line_error_naming_it(
        self, capsys, request, synth_file, tmp_path, argv, exit_code, message
    ):
        bad, relations, out = tmp_path / "bad.txt", tmp_path / "relations.txt", tmp_path / "m.npz"
        bad.write_bytes(b'{"id": "\xff"}\n')
        relations.write_text("r\n")
        paths = {"bad": bad, "data": synth_file, "relations": relations, "out": out}
        if "{checkpoint}" in argv:
            paths["checkpoint"] = request.getfixturevalue("checkpoint")
        code, stdout, stderr = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == exit_code
        assert stderr.startswith("error: " + message.format(bad=bad))
        assert stderr.count("\n") == 1
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["stats", "--data", "{missing}"], "no such file: {missing}"),
            (["train", "--data", "{data}", "--relations", "{missing}", "--out", "{out}"],
             "no such relations file: {missing}"),
            (["train", "--data", "{data}", "--vocab", "{missing}", "--out", "{out}"], "no such vocab file: {missing}"),
            (["eval", "--data", "{data}", "--checkpoint", "{checkpoint}", "--vocab", "{missing}"],
             "no such vocab file: {missing}"),
        ],
        ids=["corpus", "relations", "train-vocab", "eval-vocab"],
    )
    def test_missing_file_is_one_line_data_error_naming_it(
        self, capsys, request, synth_file, tmp_path, argv, message
    ):
        out = tmp_path / "m.npz"
        paths = {"missing": tmp_path / "nope.json", "data": synth_file, "out": out}
        if "{checkpoint}" in argv:
            paths["checkpoint"] = request.getfixturevalue("checkpoint")
        code, stdout, stderr = run(capsys, *(arg.format(**paths) for arg in argv))
        assert (code, stdout) == (EXIT_DATA, "")
        assert stderr == f"error: {message.format(**paths)}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("train", {"vocab": 5}, "config key 'vocab' in {path} must be a string, not int"),
            ("stats", {"data": 5}, "config key 'data' in {path} must be a string, not int"),
            ("eval", {"out": 5}, "config key 'out' in {path} must be a string, not int"),
            ("stats", {"format": "xml"}, "config key 'format' in {path}: invalid choice 'xml'"),
            ("eval", {"match": "fuzzy"}, "config key 'match' in {path}: invalid choice 'fuzzy'"),
            ("tag", {"sentence": {"tokens": ["a"]}}, "config key 'sentence' in {path} must be a string"),
        ],
        ids=["train-vocab-int", "stats-data-int", "eval-out-int", "stats-format-xml",
             "eval-match-fuzzy", "tag-sentence-object"],
    )
    def test_config_value_meets_the_flag_checks(
        self, capsys, request, synth_file, tmp_path, command, config, message
    ):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = {
            "train": ["--data", str(synth_file), "--out", str(tmp_path / "m.npz")],
            "stats": [] if "data" in config else ["--data", str(synth_file)],
            "eval": ["--data", str(synth_file)],
            "tag": [],
        }[command]
        if command == "eval":
            argv += ["--checkpoint", str(request.getfixturevalue("checkpoint"))]
        code, stdout, stderr = run(capsys, command, *argv, "--config", str(path))
        assert code == EXIT_USAGE
        assert stderr.startswith("error: " + message.format(path=path))
        assert stderr.count("\n") == 1
        assert stdout == ""
        assert not (tmp_path / "m.npz").exists()

    def test_config_values_of_the_right_kind_are_used(self, capsys, synth_file, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"data": str(synth_file), "format": "native"}))
        code, stdout, _ = run(capsys, "stats", "--config", str(path))
        assert code == EXIT_OK
        assert stdout.startswith("sentences      16\n")

    def test_checkpoint_without_pair_proj_is_data_error(
        self, capsys, synth_file, tmp_path, checkpoint
    ):
        stripped = tmp_path / "stripped.npz"
        with zipfile.ZipFile(checkpoint) as src, zipfile.ZipFile(stripped, "w") as dst:
            for item in src.infolist():
                if item.filename != "pair_proj.npy":
                    dst.writestr(item, src.read(item))
        code, stdout, stderr = run(
            capsys, "eval", "--data", str(synth_file), "--checkpoint", str(stripped)
        )
        assert code == EXIT_DATA
        assert stderr == f"error: corrupt checkpoint {stripped}: no pair_proj array\n"
        assert stdout == ""

    @pytest.mark.parametrize(
        "name, change",
        [
            ("token_table", lambda a: a[:-1]),
            ("rel_tag_emb", lambda a: a[:, : 4 * 2]),
            ("pair_proj", lambda a: a.T),
            ("pair_bias", lambda a: np.append(a, 0.0)),
            ("positional_table", lambda a: a[:-1]),
            ("positional_table", None),
            ("pair_proj", lambda a: with_value(a, np.nan)),
            ("pair_bias", lambda a: with_value(a, np.inf)),
            ("rel_tag_emb", lambda a: with_value(a, np.nan)),
            ("token_table", lambda a: with_value(a, -np.inf)),
            ("positional_table", lambda a: with_value(a, np.nan)),
            ("pair_bias", lambda a: a.astype(str)),
            ("token_table", lambda a: a.astype(np.float32)),
        ],
        ids=["short-token-table", "two-of-three-relations", "transposed-pair-proj",
             "long-pair-bias", "short-positional", "no-positional", "nan-pair-proj",
             "inf-pair-bias", "nan-rel-tag-emb", "inf-token-table", "nan-positional",
             "string-pair-bias", "float32-token-table"],
    )
    def test_array_shape_against_header_is_data_error(
        self, capsys, synth_file, tmp_path, checkpoint, name, change
    ):
        """An array of the wrong shape, or of the right shape but not of
        float64 or holding a non-finite value, is named in one data error."""
        with np.load(checkpoint) as data:
            arrays = {key: data[key] for key in data.files}
        expected = arrays[name].shape
        if change is None:
            del arrays[name]
            reason = f"no {name} array"
        else:
            arrays[name] = found = change(arrays[name])
            if found.shape != expected:
                reason = f"{name} shape {found.shape}, expected {expected}"
            elif found.dtype != np.float64:
                reason = f"{name} dtype {found.dtype}, not float64"
            else:
                reason = f"non-finite values in {name}"
        edited = tmp_path / "edited.npz"
        np.savez(edited, **arrays)
        code, stdout, stderr = run(
            capsys, "eval", "--data", str(synth_file), "--checkpoint", str(edited)
        )
        assert code == EXIT_DATA
        assert stderr == f"error: corrupt checkpoint {edited}: {reason}\n"
        assert stdout == ""

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda config: {**config, "bogus": [1]}, "unknown keys ['bogus']"),
            (lambda config: list(config.values()), "config must be a JSON object"),
        ],
        ids=["unknown-key", "list"],
    )
    def test_header_config_not_of_train_config_fields_is_data_error(
        self, capsys, synth_file, tmp_path, checkpoint, change, message
    ):
        edited = with_header_field(checkpoint, tmp_path / "edited.npz", "config", change)
        code, stdout, stderr = run(
            capsys, "eval", "--data", str(synth_file), "--checkpoint", str(edited)
        )
        assert (code, stdout) == (EXIT_DATA, "")
        assert stderr == f"error: corrupt checkpoint {edited}: invalid config: {message}\n"

    @pytest.mark.parametrize(
        "field, change, reason",
        [
            ("relations", lambda names: names[:1] * len(names), "duplicate relation names"),
            ("relations", lambda names: [], "relation vocabulary is empty"),
            ("vocab", list, "vocab must be a JSON object mapping tokens to indices"),
            ("vocab", lambda vocab: {**vocab, "<unk>": 0},
             "vocab indices must be the distinct integers 0..{last}"),
            ("config_hash", lambda digest: "0" * len(digest), "config hash mismatch"),
            ("version", lambda version: 2, "unsupported version 2"),
        ],
        ids=["duplicate-relations", "no-relations", "list-vocab", "repeated-vocab-index",
             "wrong-config-hash", "version-2"],
    )
    def test_inconsistent_header_is_data_error_naming_the_file(
        self, capsys, synth_file, tmp_path, checkpoint, field, change, reason
    ):
        edited = with_header_field(checkpoint, tmp_path / "edited.npz", field, change)
        code, stdout, stderr = run(
            capsys, "eval", "--data", str(synth_file), "--checkpoint", str(edited)
        )
        with np.load(checkpoint) as data:
            last = len(json.loads(str(data["header_json"]))["vocab"]) - 1
        assert (code, stdout) == (EXIT_DATA, "")
        assert stderr == f"error: corrupt checkpoint {edited}: {reason.format(last=last)}\n"

    @pytest.mark.parametrize(
        "relations", [5, None, "rel0rel1", [0, 1, 2, 3]], ids=["number", "null", "string", "integers"]
    )
    def test_header_relations_not_a_list_of_strings_is_data_error(
        self, capsys, synth_file, tmp_path, checkpoint, relations
    ):
        edited = with_header_field(
            checkpoint, tmp_path / "edited.npz", "relations", lambda _: relations
        )
        code, stdout, stderr = run(
            capsys, "eval", "--data", str(synth_file), "--checkpoint", str(edited)
        )
        assert (code, stdout) == (EXIT_DATA, "")
        assert stderr == (
            f"error: corrupt checkpoint {edited}: relations must be a JSON list of strings\n"
        )

    def test_header_written_without_dims_and_read_with_them(
        self, capsys, synth_file, tmp_path, checkpoint
    ):
        with np.load(checkpoint) as data:
            arrays = {name: data[name] for name in data.files}
        header = json.loads(str(arrays["header_json"]))
        assert header.keys() == relgrid.trainer._HEADER_KEYS
        # checkpoints written before the dims block was dropped still carry it
        header["dims"] = {"emb_dim": 64, "hidden_dim": 192, "num_relations": 3, "vocab_size": 9}
        arrays["header_json"] = np.array(json.dumps(header))
        with_dims = tmp_path / "with_dims.npz"
        np.savez(with_dims, **arrays)

        assert eval_report(capsys, synth_file, with_dims) == eval_report(capsys, synth_file, checkpoint)

    @pytest.mark.parametrize("adam_beta1", [0.9, 0.5], ids=["as-written", "other-beta1"])
    def test_header_config_written_with_retired_keys_is_read(
        self, capsys, synth_file, tmp_path, checkpoint, adam_beta1
    ):
        """Checkpoints written before five settings became constants carry
        them in their config, hashed with it; prediction reads none of them."""
        with np.load(checkpoint) as data:
            arrays = {name: data[name] for name in data.files}
        header = json.loads(str(arrays["header_json"]))
        assert header["config"].keys() == TrainConfig.__dataclass_fields__.keys()
        header["config"].update(
            adam_beta1=adam_beta1, adam_beta2=0.999, adam_epsilon=1e-8,
            hidden_dim=None, use_positional=True,
        )
        blob = json.dumps(header["config"], sort_keys=True).encode("utf-8")
        header["config_hash"] = hashlib.sha256(blob).hexdigest()
        arrays["header_json"] = np.array(json.dumps(header))
        retired = tmp_path / "retired.npz"
        np.savez(retired, **arrays)

        assert eval_report(capsys, synth_file, retired) == eval_report(capsys, synth_file, checkpoint)

    def test_eval_missing_checkpoint(self, capsys, synth_file):
        code, _, _ = run(
            capsys, "eval", "--data", str(synth_file), "--checkpoint", "/nope/c.npz"
        )
        assert code == EXIT_DATA


class TestTag:
    def test_documented_cells_in_grid(self, capsys):
        code, stdout, _ = run(
            capsys, "tag", "--sentence", json.dumps(FIG2A_RECORD)
        )
        assert code == EXIT_OK
        lines = stdout.splitlines()
        grid_rows = [l for l in lines if l.startswith(("New", "City"))]
        assert "HB-TB" in grid_rows[0] and "HB-TE" in grid_rows[0]
        assert any("HE-TE" in row for row in grid_rows)
        assert "(0..2, located_in, 6..8)" in stdout
        assert "roundtrip: exact" in stdout

    def test_no_triples_reports_exact_empty(self, capsys):
        record = {"id": "x", "tokens": ["a", "b"], "triples": []}
        code, stdout, _ = run(capsys, "tag", "--sentence", json.dumps(record))
        assert code == EXIT_OK
        assert "roundtrip: exact (empty)" in stdout

    def test_record_without_id_and_triples_takes_the_defaults(self, capsys):
        code, stdout, _ = run(capsys, "tag", "--sentence", json.dumps({"tokens": ["a", "b"]}))
        assert code == EXIT_OK
        assert stdout == "decoded triples:\nroundtrip: exact (empty)\n"

    def test_hto_tags_near_diagonal(self, capsys):
        record = {
            "id": "hto",
            "tokens": ["New", "York", "City"],
            "triples": [{"head": [0, 2], "relation": "city_name", "tail": [0, 1]}],
        }
        code, stdout, _ = run(capsys, "tag", "--sentence", json.dumps(record))
        assert code == EXIT_OK
        lines = stdout.splitlines()
        new_row = next(l for l in lines if l.startswith("New "))
        city_row = next(l for l in lines if l.startswith("City"))
        assert "HB-TB" in new_row and "HB-TE" in new_row
        assert "HE-TE" in city_row
        assert "roundtrip: exact" in stdout

    def test_lossy_record_prints_in_triple_order(self, capsys):
        # (0..0, r, 8..8) overwrites the HB-TB of (0..5, r, 8..9), and the
        # nested head (2..3) splices (0..5) into (0..3, r, 9..9); relation s
        # sorts after r in the grid but between the heads in the lists
        record = {
            "id": "x",
            "tokens": list("abcdefghij"),
            "triples": [
                {"head": [0, 5], "relation": "r", "tail": [8, 9]},
                {"head": [2, 3], "relation": "r", "tail": [8, 9]},
                {"head": [0, 0], "relation": "r", "tail": [8, 8]},
                {"head": [1, 1], "relation": "s", "tail": [4, 4]},
            ],
        }
        code, stdout, stderr = run(capsys, "tag", "--sentence", json.dumps(record))
        assert (code, stderr) == (EXIT_OK, "")
        header = "        a       b       c       d       e       f       g       h       i       j      "
        blank = "-       -       -       -       -       -       -       -       -       -      "
        assert stdout.split("\n") == [
            "relation: r",
            header,
            "a       -       -       -       -       -       -       -       -       HB-TE   HB-TE  ",
            "b       " + blank,
            "c       -       -       -       -       -       -       -       -       HB-TB   HB-TE  ",
            "d       -       -       -       -       -       -       -       -       -       HE-TE  ",
            "e       " + blank,
            "f       -       -       -       -       -       -       -       -       -       HE-TE  ",
            *(f"{tok}       " + blank for tok in "ghij"),
            "",
            "relation: s",
            header,
            "a       " + blank,
            "b       -       -       -       -       HB-TE   -       -       -       -       -      ",
            *(f"{tok}       " + blank for tok in "cdefghij"),
            "",
            "collision at (0, 0, 8): kept HB_TE, dropped HB_TB",
            "decoded triples:",
            "  (0..0, r, 8..8)",
            "  (0..3, r, 9..9)",
            "  (1..1, s, 4..4)",
            "  (2..3, r, 8..9)",
            "roundtrip: lossy (missing 1, spurious 1)",
            "  missing : (0..5, r, 8..9)",
            "  spurious: (0..3, r, 9..9)",
            "",
        ]

    def test_encodes_the_sentence_once(self, capsys, monkeypatch):
        calls = []

        def counting_encode(sentence, num_relations):
            calls.append(sentence.id)
            return encode(sentence, num_relations)

        # wherever the command might look it up
        for module in (relgrid.tagging, relgrid.cli):
            monkeypatch.setattr(module, "encode", counting_encode, raising=False)
        code, _, _ = run(capsys, "tag", "--sentence", json.dumps(FIG2A_RECORD))
        assert code == EXIT_OK
        assert calls == ["fig2a"]

    def test_malformed_input_is_data_error(self, capsys):
        code, _, stderr = run(capsys, "tag", "--sentence", "{broken")
        assert code == EXIT_DATA
        assert "invalid" in stderr

    @pytest.mark.parametrize(
        "record, message",
        [
            (
                {"tokens": ["a", "b"], "triples": [{"head": [0, 0], "tail": [1, 1]}]},
                "malformed triple 0",
            ),
            (
                {"tokens": ["a", "b"], "triples": [{"head": [0], "relation": "r", "tail": [1, 1]}]},
                "malformed triple 0",
            ),
            ([1], "must be a JSON object"),
            (
                {"tokens": ["a", "b"], "triples": [{"head": [0, 0], "relation": "nope", "tail": [1, 1]}]},
                "tag input: sentence 'stdin': unknown relation 'nope'",
            ),
        ],
        ids=["no-relation", "one-index-head", "not-an-object", "unknown-relation"],
    )
    def test_malformed_record_is_one_line_data_error(self, capsys, tmp_path, record, message):
        relations = tmp_path / "rels.txt"
        relations.write_text("r\n")
        code, stdout, stderr = run(
            capsys, "tag", "--sentence", json.dumps(record), "--relations", str(relations)
        )
        assert code == EXIT_DATA
        assert stderr.startswith("error: ") and message in stderr
        assert stderr.count("\n") == 1
        assert stdout == ""


BAD_NATIVE_RECORDS = {
    "tokens-string": {"id": "b", "tokens": "abc", "triples": []},
    "tokens-number": {"id": "b", "tokens": ["a", 1], "triples": []},
    "span-floats": {"id": "b", "tokens": ["a", "b"],
                    "triples": [{"head": [0.9, 1.7], "relation": "r", "tail": [1, 1]}]},
    "span-bools": {"id": "b", "tokens": ["a", "b"],
                   "triples": [{"head": [False, True], "relation": "r", "tail": [1, 1]}]},
    "span-string": {"id": "b", "tokens": ["a", "b"],
                    "triples": [{"head": "01", "relation": "r", "tail": [1, 1]}]},
    "span-three": {"id": "b", "tokens": ["a", "b"],
                   "triples": [{"head": [0, 0, 1], "relation": "r", "tail": [1, 1]}]},
    "span-negative": {"id": "b", "tokens": ["a", "b"],
                      "triples": [{"head": [-1, 0], "relation": "r", "tail": [1, 1]}]},
    "span-reversed": {"id": "b", "tokens": ["a", "b"],
                      "triples": [{"head": [1, 0], "relation": "r", "tail": [1, 1]}]},
    "triples-object": {"id": "b", "tokens": ["a", "b"], "triples": {}},
    "record-array": [1, 2],
    "id-null": {"id": None, "tokens": ["a", "b"], "triples": []},
    "id-number": {"id": 7, "tokens": ["a", "b"], "triples": []},
    "id-list": {"id": ["x"], "tokens": ["a", "b"], "triples": []},
    "relation-list": {"id": "b", "tokens": ["a", "b"],
                      "triples": [{"head": [0, 0], "relation": ["r"], "tail": [1, 1]}]},
    "relation-null": {"id": "b", "tokens": ["a", "b"],
                      "triples": [{"head": [0, 0], "relation": None, "tail": [1, 1]}]},
}


class TestBadNativeRecord:
    """`stats` and `tag` read a native record through one parser, so each bad
    record is one data error under both: exit 2 and a single `error:` line on
    stderr (an exception escaping `main` would fail the test instead)."""

    @pytest.mark.parametrize("command", ["stats", "tag"])
    @pytest.mark.parametrize("record", BAD_NATIVE_RECORDS.values(), ids=BAD_NATIVE_RECORDS.keys())
    def test_bad_record_is_one_line_data_error(self, capsys, tmp_path, command, record):
        if command == "stats":
            data = tmp_path / "native.jsonl"
            good = {"id": "a", "tokens": ["a", "b"],
                    "triples": [{"head": [0, 0], "relation": "r", "tail": [1, 1]}]}
            data.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
            argv = ["stats", "--data", str(data)]
        else:
            argv = ["tag", "--sentence", json.dumps(record)]
        code, stdout, stderr = run(capsys, *argv)
        assert code == EXIT_DATA
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert stdout == ""
        if command == "stats":
            assert stderr.startswith(f"error: {data}:2: ")


class TestUsage:
    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--nonsense"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["eval", "tag", "stats"])
    def test_seed_is_not_an_option(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "5"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

    def test_missing_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_numeric_failure_exits_three(self, capsys, synth_file, monkeypatch):
        def blow_up(*args, **kwargs):
            raise NumericError("non-finite gradient in parameter group 'pair_proj'")

        monkeypatch.setattr(relgrid.cli, "train", blow_up)
        code, _, stderr = run(capsys, "train", "--data", str(synth_file), "--epochs", "1")
        assert code == EXIT_NUMERIC
        assert "pair_proj" in stderr

    def test_diverging_run_is_one_line_numeric_failure(self, capsys, tmp_path):
        # sentences past one 16-row block, so the scorer's pool threads run too;
        # NumPy's overflow warnings must not precede (or, as errors, replace) the one line
        data, checkpoint = tmp_path / "long.jsonl", tmp_path / "m.npz"
        code, _, _ = run(capsys, "synth", "--out", str(data), "--count", "3",
                         "--min-len", "40", "--max-len", "60", "--seed", "2")
        assert code == EXIT_OK
        code, _, stderr = run(capsys, "train", "--data", str(data), "--out", str(checkpoint), "--lr", "1e300",
                              "--epochs", "2", "--batch-size", "1", "--emb-dim", "8")
        assert code == EXIT_NUMERIC
        assert stderr == "numeric failure: non-finite gradient in parameter group 'pair_proj'\n"
        assert not checkpoint.exists()

    def test_eval_can_export_relation_columns(self, capsys, synth_file, tmp_path):
        ck = tmp_path / "x.npz"
        run(capsys, "train", "--data", str(synth_file), "--epochs", "1",
            "--seed", "3", "--out", str(ck))
        tsv = tmp_path / "rel.tsv"
        code, stdout, _ = run(
            capsys, "eval", "--data", str(synth_file), "--checkpoint", str(ck),
            "--match", "exact", "--export-relations", str(tsv),
        )
        assert code == EXIT_OK
        lines = tsv.read_text().splitlines()
        assert len(lines) == 3 * 4  # relations x tag classes
        assert lines[0].split("\t")[0] == "rel0/NONE"


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "writer",
        ["save_checkpoint", "write_loss_log", "export_relation_embeddings", "save_native", "eval-out"],
    )
    def test_failed_write_leaves_the_old_file(self, capsys, monkeypatch, tmp_path, writer):
        relations = RelationVocab(names=("r",))
        corpus = [make_sentence(3, [triple((0, 0), 0, (2, 2))])]
        model = init_model(relations, build_vocab(corpus), TrainConfig(emb_dim=4))
        data, checkpoint, target = tmp_path / "data.jsonl", tmp_path / "model.npz", tmp_path / "target"
        save_native(corpus, relations, data)
        save_checkpoint(checkpoint, model)
        target.write_bytes(b"old bytes\n")
        write = {
            "save_checkpoint": lambda: save_checkpoint(target, model),
            "write_loss_log": lambda: write_loss_log(target, [EpochRecord(1, 0.5, 0.1)]),
            "export_relation_embeddings": lambda: export_relation_embeddings(
                model.arrays["rel_tag_emb"], relations, target),
            "save_native": lambda: save_native(corpus, relations, target),
        }

        def disk_full(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        if writer == "eval-out":
            code, _, stderr = run(capsys, "eval", "--data", str(data), "--checkpoint", str(checkpoint),
                                  "--out", str(target))
            assert code == EXIT_DATA
            assert stderr == "error: [Errno 28] No space left on device\n"
        else:
            with pytest.raises(OSError, match="No space left"):
                write[writer]()
        assert target.read_bytes() == b"old bytes\n"
        assert list(tmp_path.glob(".*.tmp")) == []


class TestCorruptCheckpointFuzz:
    """Every single-byte flip or truncation of a small checkpoint either
    still evaluates or ends in one `error:` line and exit 2."""

    def test_flipped_or_truncated_bytes_never_raise(self, capsys, tmp_path):
        data, good = tmp_path / "c.jsonl", tmp_path / "m.npz"
        run(capsys, "synth", "--count", "4", "--num-relations", "3", "--min-len", "4",
            "--max-len", "6", "--seed", "1", "--out", str(data))
        code, _, _ = run(capsys, "train", "--data", str(data), "--out", str(good),
                         "--epochs", "1", "--emb-dim", "4")
        assert code == EXIT_OK
        original = good.read_bytes()
        # every byte of the zip central directory and end records, where a
        # flip can name an unsupported compression method or zip version,
        # plus a seeded sample of the archive's other bytes
        end = original.rfind(b"PK\x05\x06")
        central = int.from_bytes(original[end + 16 : end + 20], "little")
        rng = np.random.default_rng(17)
        flips = [*range(central, len(original)), *rng.integers(0, central, 150).tolist()]
        cases = [("flip", offset) for offset in flips]
        cases += [("truncate", size) for size in rng.integers(0, len(original), 100).tolist()]
        bad = tmp_path / "bad.npz"
        for kind, offset in cases:
            damaged = bytearray(original)
            if kind == "flip":
                damaged[offset] ^= int(rng.integers(1, 256))
            else:
                del damaged[offset:]
            bad.write_bytes(damaged)
            code, _, stderr = run(capsys, "eval", "--data", str(data), "--checkpoint", str(bad))
            assert code in (EXIT_OK, EXIT_DATA), (kind, offset)
            if code == EXIT_DATA:
                assert stderr.startswith("error: ") and stderr.count("\n") == 1, (kind, offset)


# --- fuzz: malformed records and config files ------------------------------

# Strings stay short and come from a small alphabet: a config value may name a
# path, and the commands run inside a fresh empty directory.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(alphabet="ab.-_/0 é", max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
GOOD_RECORD = {
    "id": "a",
    "tokens": ["a", "b", "c"],
    "triples": [{"head": [0, 0], "relation": "r", "tail": [2, 2]}],
}


@st.composite
def record_lines(draw):
    """One native record line: the good record with one field at some depth
    replaced or deleted, any JSON value, or text that may not be JSON."""
    kind = draw(st.sampled_from(["record", "triple", "span", "value", "text"]))
    if kind == "value":
        return json.dumps(draw(JSON_VALUES))
    if kind == "text":
        return draw(st.text(max_size=24).filter(lambda t: "\n" not in t and "\r" not in t))
    record = json.loads(json.dumps(GOOD_RECORD))
    triple = record["triples"][0]
    target, keys = {"record": (record, list(record)), "triple": (triple, list(triple)), "span": (triple["head"], [0, 1])}[kind]
    key = draw(st.sampled_from(keys))
    if kind != "span" and draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(JSON_VALUES)
    return json.dumps(record)


GOOD_PUBLIC_RECORD = {"id": "a", "text": "a b c", "triple_list": [["a", "r", "c"]]}
# entity and relation strings that resolve, resolve elsewhere or not at all
PUBLIC_STRINGS = st.sampled_from(["a", "b c", "c", "r", "z", ""])


@st.composite
def public_record_lines(draw):
    """One public record line: the good record with a field or a triple
    element replaced or deleted, any JSON value, or text that may not be
    JSON."""
    kind = draw(st.sampled_from(["record", "triple", "value", "text"]))
    if kind == "value":
        return json.dumps(draw(JSON_VALUES))
    if kind == "text":
        return draw(st.text(max_size=24).filter(lambda t: "\n" not in t and "\r" not in t))
    record = json.loads(json.dumps(GOOD_PUBLIC_RECORD))
    target = record if kind == "record" else record["triple_list"][0]
    key = draw(st.sampled_from(list(record) if kind == "record" else [0, 1, 2]))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(PUBLIC_STRINGS | JSON_VALUES)
    return json.dumps(record)


# per config key: values it accepts or nearly accepts, drawn two times in
# three; else any JSON value
CONFIG_VALUES = {
    "epochs": st.integers(1, 2),
    "emb-dim": st.integers(1, 6),
    "batch-size": st.integers(1, 4),
    "lr": st.floats(0, 0.1) | st.sampled_from([1e300, float("nan"), float("inf")]),
    "dropout": st.floats(0, 1),
    "max-len": st.integers(1, 8),
    "min-count": st.integers(1, 3),
    "seed": st.integers(-1, 2**64),
    "format": st.sampled_from(["native", "public"]),
    "match": st.sampled_from(["exact", "partial", "Exact"]),
    "relations": st.sampled_from(["", ".", "missing.txt"]),
    "vocab": st.sampled_from(["", ".", "data.jsonl"]),
}
CONFIG_KEYS = {
    "train": list(CONFIG_VALUES),
    "stats": ["format", "relations", "match"],
    "tag": ["relations"],
}
# training time grows with these; a train config always sets them, and
# never to an integer above these
WORK_LIMITS = {"epochs": 2, "emb-dim": 6}
SMALL_TRAIN_CONFIG = {"epochs": 1, "emb-dim": 4}


@st.composite
def configs(draw, command):
    """A config file's text for `command`: mostly a JSON object of its own
    keys, at times with an unknown key; else any JSON value or text."""
    kind = draw(st.sampled_from(["object", "object", "object", "value", "text"]))
    if kind == "value":
        return json.dumps(draw(JSON_VALUES))
    if kind == "text":
        return draw(st.text(max_size=24))
    keys = set(draw(st.lists(st.sampled_from(CONFIG_KEYS[command]), max_size=4)))
    if command == "train":
        keys |= set(WORK_LIMITS)
    config = {key: draw(st.one_of(CONFIG_VALUES[key], CONFIG_VALUES[key], JSON_VALUES)) for key in sorted(keys)}
    for key, largest in WORK_LIMITS.items():
        if key in config and type(config[key]) is int and config[key] > largest:
            config[key] = largest
    if draw(st.integers(0, 4)) == 0:
        config[draw(st.sampled_from(["bach-size", "batch_size", "data ", ""]))] = 1
    return json.dumps(config)


def run_in_empty_directory(command, lines, config, public=False, checkpoint=None):
    """Run `command` on the record lines and config text inside a fresh empty
    directory, public records with a relations file naming "r", eval
    against `checkpoint`; return its exit code and stderr."""
    previous, err = os.getcwd(), io.StringIO()
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        data, path = directory / "data.jsonl", directory / "config.json"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        path.write_text(config, encoding="utf-8")
        argv = {
            "stats": ["stats", "--data", str(data)],
            "train": ["train", "--data", str(data), "--out", str(directory / "m.npz")],
            "eval": ["eval", "--data", str(data), "--checkpoint", str(checkpoint)],
            "tag": ["tag", f"--sentence={lines[0]}"],
        }[command] + ["--config", str(path)]
        if public:
            relations = directory / "relations.txt"
            relations.write_text("r\n", encoding="utf-8")
            argv += ["--format", "public", "--relations", str(relations)]
        os.chdir(directory)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(previous)
    return code, err.getvalue()


def assert_one_line_failure(code, stderr):
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)
    assert "Traceback" not in stderr
    if code != EXIT_OK:
        failures = [line for line in stderr.splitlines() if line.startswith(("error: ", "numeric failure: "))]
        assert len(failures) == 1
        assert failures[0].startswith("numeric failure: " if code == EXIT_NUMERIC else "error: ")


COMMANDS = st.sampled_from(["stats", "train", "tag"])
RECORD_LINES = st.lists(record_lines() | st.just(json.dumps(GOOD_RECORD)), min_size=1, max_size=3)
PUBLIC_RECORD_LINES = st.lists(
    public_record_lines() | st.just(json.dumps(GOOD_PUBLIC_RECORD)), min_size=1, max_size=3
)


@pytest.fixture(scope="module")
def good_checkpoint(tmp_path_factory):
    """A small model of the relation "r", trained once on the good record."""
    directory = tmp_path_factory.mktemp("fuzz")
    data, checkpoint = directory / "good.jsonl", directory / "good.npz"
    data.write_text(json.dumps(GOOD_RECORD) + "\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["train", "--data", str(data), "--out", str(checkpoint),
                     "--epochs", "1", "--emb-dim", "4"])
    assert code == EXIT_OK
    return checkpoint


class TestMalformedInputFuzz:
    """`stats`, `train`, `eval` and `tag` on malformed native or public
    records or config files: a documented exit code, no traceback, and on
    failure exactly one failure line (`numeric failure:` for exit 3,
    `error:` otherwise). An exception escaping `main` fails the test too."""

    @settings(max_examples=200, deadline=None)
    @given(COMMANDS, RECORD_LINES)
    def test_malformed_records(self, command, lines):
        config = SMALL_TRAIN_CONFIG if command == "train" else {}
        assert_one_line_failure(*run_in_empty_directory(command, lines, json.dumps(config)))

    @settings(max_examples=200, deadline=None)
    @given(COMMANDS.flatmap(lambda command: st.tuples(st.just(command), configs(command))))
    def test_malformed_configs(self, case):
        command, config = case
        lines = [json.dumps(GOOD_RECORD), json.dumps({**GOOD_RECORD, "id": "b"})]
        assert_one_line_failure(*run_in_empty_directory(command, lines, config))

    @settings(max_examples=120, deadline=None)
    @given(lines=RECORD_LINES)
    def test_malformed_records_under_eval(self, good_checkpoint, lines):
        assert_one_line_failure(
            *run_in_empty_directory("eval", lines, "{}", checkpoint=good_checkpoint)
        )

    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(["stats", "train", "eval"]), lines=PUBLIC_RECORD_LINES)
    def test_malformed_public_records(self, good_checkpoint, command, lines):
        config = SMALL_TRAIN_CONFIG if command == "train" else {}
        assert_one_line_failure(*run_in_empty_directory(
            command, lines, json.dumps(config), public=True, checkpoint=good_checkpoint
        ))
