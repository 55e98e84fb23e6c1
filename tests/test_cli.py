import contextlib
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
from relgrid.tagging import encode
from relgrid.trainer import NumericError

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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, _, stderr = run(
            capsys, "stats", "--data", str(empty), "--relations", str(relations)
        )
        assert code == EXIT_DATA
        assert "empty corpus" in stderr

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
        else:
            arrays[name] = change(arrays[name])
        found = arrays[name].shape if name in arrays else None
        if found != expected:
            reason = f"{name} shape {found}, expected {expected}"
        elif arrays[name].dtype != np.float64:
            reason = f"{name} dtype {arrays[name].dtype}, not float64"
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
        with np.load(checkpoint) as data:
            arrays = {name: data[name] for name in data.files}
        header = json.loads(str(arrays["header_json"]))
        header["config"] = change(header["config"])
        arrays["header_json"] = np.array(json.dumps(header))
        edited = tmp_path / "edited.npz"
        np.savez(edited, **arrays)
        code, stdout, stderr = run(
            capsys, "eval", "--data", str(synth_file), "--checkpoint", str(edited)
        )
        assert (code, stdout) == (EXIT_DATA, "")
        assert stderr == f"error: invalid checkpoint config: {message}\n"

    @pytest.mark.parametrize(
        "relations", [5, None, "rel0rel1", [0, 1, 2, 3]], ids=["number", "null", "string", "integers"]
    )
    def test_header_relations_not_a_list_of_strings_is_data_error(
        self, capsys, synth_file, tmp_path, checkpoint, relations
    ):
        with np.load(checkpoint) as data:
            arrays = {name: data[name] for name in data.files}
        header = json.loads(str(arrays["header_json"]))
        header["relations"] = relations
        arrays["header_json"] = np.array(json.dumps(header))
        edited = tmp_path / "edited.npz"
        np.savez(edited, **arrays)
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

        def report(path):
            code, stdout, stderr = run(
                capsys, "eval", "--data", str(synth_file), "--checkpoint", str(path)
            )
            assert (code, stderr) == (EXIT_OK, "")
            return [line for line in stdout.splitlines() if "wall-clock" not in line]

        assert report(with_dims) == report(checkpoint)

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
            calls.append(sentence.sentence.id)
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


def run_in_empty_directory(command, lines, config):
    """Run `command` on the record lines and config text inside a fresh empty
    directory; return its exit code and stderr."""
    previous, err = os.getcwd(), io.StringIO()
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        data, path = directory / "data.jsonl", directory / "config.json"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        path.write_text(config, encoding="utf-8")
        argv = {
            "stats": ["stats", "--data", str(data)],
            "train": ["train", "--data", str(data), "--out", str(directory / "m.npz")],
            "tag": ["tag", f"--sentence={lines[0]}"],
        }[command] + ["--config", str(path)]
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


class TestMalformedInputFuzz:
    """`stats`, `train` and `tag` on malformed native records or config
    files: a documented exit code, no traceback, and on failure exactly one
    failure line (`numeric failure:` for exit 3, `error:` otherwise). An
    exception escaping `main` fails the test too."""

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
