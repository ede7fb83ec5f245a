import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import spantriplet
from spantriplet import data as dataio
from spantriplet.cli import _FLAGS, build_parser, main
from spantriplet.data import make_fixture
from spantriplet.encoder import Vocabulary
from spantriplet.errors import CheckpointError
from spantriplet.evaluation import triplet_prf
from spantriplet.model import ModelConfig, SpanModel

TINY_MODEL = {
    "embedding_dim": 6, "lstm_hidden": 4, "ffnn_hidden": 5,
    "width_dim": 3, "distance_dim": 3, "lstm_dropout": 0.0, "ffnn_dropout": 0.0,
}


@pytest.fixture
def corpus_path(tmp_path):
    fixture = make_fixture(np.random.default_rng(0), 10)
    path = str(tmp_path / "corpus.txt")
    dataio.write_corpus(path, fixture)
    return path


@pytest.fixture
def config_path(tmp_path, corpus_path):
    config = {
        "paths": {"train_path": corpus_path, "out": str(tmp_path / "run")},
        "model": TINY_MODEL,
        "training": {"epochs": 2, "seeds": [0]},
    }
    path = str(tmp_path / "config.json")
    with open(path, "w") as handle:
        json.dump(config, handle)
    return path


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def strip_paths(report):
    for row in report["seeds"]:
        row.pop("checkpoint", None)
    return report


class TestStats:
    def test_prints_table(self, corpus_path, capsys):
        assert main(["stats", corpus_path]) == 0
        out = capsys.readouterr().out
        assert "#SW" in out and "corpus.txt" in out

    def test_writes_machine_readable_output(self, corpus_path, tmp_path):
        out = str(tmp_path / "stats.json")
        assert main(["stats", corpus_path, "--out", out]) == 0
        stats = read_json(out)["corpus.txt"]
        assert stats["sentences"] == 10

    def test_corpora_sharing_a_file_name_keep_one_row_each(self, tmp_path, capsys):
        # The ASTE-Data-V2 layout: every dataset names its files alike.
        paths = []
        for dataset, size in (("14res", 5), ("14lap", 7)):
            (tmp_path / dataset).mkdir()
            paths.append(str(tmp_path / dataset / "train_triplets.txt"))
            dataio.write_corpus(paths[-1], make_fixture(np.random.default_rng(0), size))
        other = str(tmp_path / "dev.txt")
        dataio.write_corpus(other, make_fixture(np.random.default_rng(1), 3))
        out = str(tmp_path / "stats.json")
        assert main(["stats", *paths, other, "--out", out]) == 0
        stats = read_json(out)
        assert list(stats) == [*paths, "dev.txt"]
        assert [s["sentences"] for s in stats.values()] == [5, 7, 3]
        printed = capsys.readouterr().out
        assert all(label in printed for label in stats)

    def test_same_corpus_twice_exits_1_before_any_output(self, corpus_path, tmp_path,
                                                          capsys):
        out = tmp_path / "stats.json"
        assert main(["stats", corpus_path, corpus_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        lines = error_lines(captured.err)
        assert len(lines) == 1 and corpus_path in lines[0], lines
        assert captured.out == "" and not out.exists()

    def test_parse_error_exits_2_with_line_info(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("fine line####[]\nbroken line without separator\n")
        assert main(["stats", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["stats", "/nonexistent/corpus.txt"]) == 2

    def test_missing_out_directory_exits_2_before_any_output(self, corpus_path, tmp_path,
                                                              capsys):
        out = str(tmp_path / "missing_dir" / "s.json")
        assert main(["stats", corpus_path, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and out in captured.err


class TestTrain:
    def test_missing_train_path_is_usage_error(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path / "run")]) == 1
        assert "--train" in capsys.readouterr().err

    def test_fixture_run_writes_echo_report_and_checkpoint(self, config_path, tmp_path):
        assert main(["train", "--config", config_path]) == 0
        run = tmp_path / "run"
        assert (run / "config.json").exists()
        assert (run / "report.txt").exists()
        assert (run / "seed0.ckpt.npz").exists()
        report = read_json(run / "report.json")
        assert len(report["seeds"]) == 1
        # The report's dataclass fields are the file's keys, so a rename shows here.
        assert list(report) == ["model_config", "train_config", "seeds", "mean",
                                "pooled_counts"]
        assert list(report["seeds"][0]) == ["seed", "best_epoch", "dev_f1_curve", "test",
                                            "checkpoint"]
        echoed = read_json(run / "config.json")
        assert echoed["model"]["embedding_dim"] == 6
        assert echoed["training"]["epochs"] == 2

    def test_echo_holds_only_what_train_reads(self, config_path, tmp_path):
        assert main(["train", "--config", config_path, "--epochs", "1"]) == 0
        echoed = read_json(tmp_path / "run" / "config.json")
        assert set(echoed) == {"command", "paths", "model", "training"}

    def test_progress_goes_to_stderr(self, config_path):
        # A fresh interpreter: inside pytest the root logger already has
        # handlers, so the CLI's logging setup would not take effect.
        src = os.path.dirname(os.path.dirname(spantriplet.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-m", "spantriplet.cli", "train",
                               "--config", config_path], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert "seed 0 epoch 1: loss" in proc.stderr
        assert "seed 0 epoch" not in proc.stdout

    def test_corpus_with_the_unk_token_trains(self, tmp_path):
        corpus = tmp_path / "unk.txt"
        corpus.write_text("the <unk> is great .####[([1], [3], 'POS')]\n"
                          "an <UNK> was bad .####[([1], [3], 'NEG')]\n")
        assert main(["train", "--config", make_config(tmp_path, str(corpus)),
                     "--train", str(corpus), "--out", str(tmp_path / "run")]) == 0

    def test_rerun_from_echoed_config_reproduces_report(self, config_path, tmp_path):
        assert main(["train", "--config", config_path]) == 0
        first = strip_paths(read_json(tmp_path / "run" / "report.json"))
        echoed = str(tmp_path / "run" / "config.json")
        assert main(["train", "--config", echoed]) == 0
        second = strip_paths(read_json(tmp_path / "run" / "report.json"))
        assert first == second

    def test_flags_override_config_file(self, config_path, tmp_path, corpus_path):
        out = str(tmp_path / "run2")
        assert main(["train", "--config", config_path, "--out", out,
                     "--epochs", "1", "--seeds", "3", "--z", "1.0",
                     "--max-span-width", "2", "--span-mode", "mean_pool"]) == 0
        echoed = read_json(os.path.join(out, "config.json"))
        assert echoed["training"]["epochs"] == 1
        assert echoed["training"]["seeds"] == [3]
        assert echoed["model"]["z"] == 1.0
        assert echoed["model"]["max_span_gap"] == 2
        assert echoed["model"]["span_mode"] == "mean_pool"

    def test_bad_model_field_is_usage_error(self, tmp_path, corpus_path, capsys):
        config = {"paths": {"train_path": corpus_path, "out": str(tmp_path / "r")},
                  "model": {"embedding_dim": 6, "bogus_field": 1},
                  "training": {"epochs": 1, "seeds": [0]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path)]) == 1
        assert "bogus_field" in capsys.readouterr().err


    @pytest.mark.parametrize("field, value", [
        ("lr", -1e-3), ("lr", float("nan")), ("lr", "fast"), ("weight_decay", -0.5),
    ])
    def test_bad_optimizer_setting_is_usage_error(self, tmp_path, corpus_path, capsys,
                                                  field, value):
        config = {"paths": {"train_path": corpus_path, "out": str(tmp_path / "r")},
                  "model": TINY_MODEL,
                  "training": {"epochs": 1, "seeds": [0], field: value}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not (tmp_path / "r").exists()


class TestEvalPredict:
    @pytest.fixture
    def trained(self, config_path, tmp_path):
        assert main(["train", "--config", config_path]) == 0
        return str(tmp_path / "run" / "seed0.ckpt.npz")

    def test_eval_prints_mode_tables(self, trained, corpus_path, capsys):
        assert main(["eval", "--checkpoint", trained, "--test", corpus_path]) == 0
        out = capsys.readouterr().out
        assert "single_word" in out and "multi_word_opinion" in out
        assert "term extraction" in out

    def test_eval_same_checkpoint_twice_is_identical(self, trained, corpus_path,
                                                     tmp_path):
        out1, out2 = str(tmp_path / "e1"), str(tmp_path / "e2")
        assert main(["eval", "--checkpoint", trained, "--test", corpus_path,
                     "--out", out1]) == 0
        assert main(["eval", "--checkpoint", trained, "--test", corpus_path,
                     "--out", out2]) == 0
        assert read_json(os.path.join(out1, "eval.json")) == \
            read_json(os.path.join(out2, "eval.json"))

    def test_corrupted_checkpoint_exits_2(self, tmp_path, corpus_path, capsys):
        bad = tmp_path / "bad.ckpt.npz"
        bad.write_bytes(b"not a checkpoint at all")
        assert main(["eval", "--checkpoint", str(bad), "--test", corpus_path]) == 2

    def test_prediction_file_reparses_and_matches_eval(self, trained, corpus_path,
                                                       tmp_path):
        pred_path = str(tmp_path / "pred.txt")
        assert main(["predict", "--checkpoint", trained, "--test", corpus_path,
                     "--out", pred_path]) == 0
        gold = dataio.load_corpus(corpus_path)
        predicted = dataio.load_corpus(pred_path)  # format closure
        assert len(predicted) == len(gold)

        out_dir = str(tmp_path / "evalout")
        assert main(["eval", "--checkpoint", trained, "--test", corpus_path,
                     "--out", out_dir]) == 0
        reported = read_json(os.path.join(out_dir, "eval.json"))["triplet"]["all"]
        prf = triplet_prf({s.id: s.triplet_keys() for s in gold},
                          {s.id: s.triplet_keys() for s in predicted})
        assert (prf.tp, prf.fp, prf.fn) == (reported["tp"], reported["fp"],
                                            reported["fn"])

    def test_prediction_file_is_each_sentences_predict(self, trained, corpus_path, tmp_path):
        pred_path = tmp_path / "pred.txt"
        assert main(["predict", "--checkpoint", trained, "--test", corpus_path,
                     "--out", str(pred_path)]) == 0
        model = SpanModel.load(trained)
        expected = "".join(
            dataio.serialize_sentence(dataio.Sentence(s.id, s.tokens, [
                dataio.GoldTriplet(p.target, p.opinion, p.sentiment)
                for p in model.predict(s.tokens)])) + "\n"
            for s in dataio.load_corpus(corpus_path))
        assert pred_path.read_bytes() == expected.encode("utf-8")

    def test_empty_corpus_predicts_empty_file(self, trained, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = tmp_path / "pred.txt"
        assert main(["predict", "--checkpoint", trained, "--test", str(empty),
                     "--out", str(out)]) == 0
        assert out.read_text() == ""


class TestOverfitEval:
    def test_eval_after_overfit_reports_perfect_modes(self, tmp_path, capsys):
        # Small corpus, enough epochs to memorize it; every mode present in
        # the fixture must then score F1 = 1 when evaluating on it.
        fixture = make_fixture(np.random.default_rng(7), 10)
        corpus = str(tmp_path / "memorize.txt")
        dataio.write_corpus(corpus, fixture)
        config = {
            "paths": {"train_path": corpus, "out": str(tmp_path / "overfit")},
            "model": {"embedding_dim": 16, "lstm_hidden": 12, "ffnn_hidden": 16,
                      "width_dim": 4, "distance_dim": 6,
                      "lstm_dropout": 0.0, "ffnn_dropout": 0.0},
            "training": {"epochs": 60, "seeds": [0]},
        }
        config_path = tmp_path / "overfit.json"
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 0
        report = read_json(tmp_path / "overfit" / "report.json")
        assert report["seeds"][0]["test"]["f1"] == 1.0

        out_dir = str(tmp_path / "overfit-eval")
        assert main(["eval", "--checkpoint",
                     str(tmp_path / "overfit" / "seed0.ckpt.npz"),
                     "--test", corpus, "--out", out_dir]) == 0
        capsys.readouterr()
        by_mode = read_json(os.path.join(out_dir, "eval.json"))["triplet"]
        gold = {s.id: s.triplet_keys() for s in fixture}
        for mode in by_mode:
            has_gold = triplet_prf(gold, gold, mode).tp > 0
            if has_gold:
                assert by_mode[mode]["f1"] == 1.0, mode


class TestPruneSweep:
    def test_single_row_sweep(self, tmp_path, corpus_path, capsys):
        out = str(tmp_path / "sweep")
        assert main(["prune-sweep", "--train", corpus_path,
                     "--z-values", "0.5", "--sweep-modes", "dual",
                     "--epochs", "1", "--seeds", "0", "--out", out,
                     "--config", make_config(tmp_path, corpus_path)]) == 0
        rows = read_json(os.path.join(out, "sweep.json"))
        assert len(rows) == 1 and rows[0]["mode"] == "dual"
        assert (tmp_path / "sweep" / "pools.jsonl").exists()
        printed = capsys.readouterr().out
        assert "dev_F1" in printed

    def test_pair_count_column_is_pool_squared(self, tmp_path, corpus_path):
        out = str(tmp_path / "sweep2")
        assert main(["prune-sweep", "--train", corpus_path,
                     "--z-values", "0.5", "--sweep-modes", "single", "sc_adjusted",
                     "--epochs", "1", "--seeds", "0", "--out", out,
                     "--config", make_config(tmp_path, corpus_path)]) == 0
        rows = {r["mode"]: r for r in read_json(os.path.join(out, "sweep.json"))}
        ratio = rows["sc_adjusted"]["mean_pair_count"] / rows["single"]["mean_pair_count"]
        assert 3.0 <= ratio <= 4.0

    def test_empty_z_list_is_usage_error(self, tmp_path, corpus_path, capsys):
        assert main(["prune-sweep", "--train", corpus_path,
                     "--config", make_config(tmp_path, corpus_path)]) == 1
        assert "z-values" in capsys.readouterr().err

    def test_more_than_one_seed_is_usage_error(self, tmp_path, corpus_path, capsys):
        out = tmp_path / "sweep"
        assert main(["prune-sweep", "--train", corpus_path, "--z-values", "0.5",
                     "--seeds", "0", "1", "--out", str(out),
                     "--config", make_config(tmp_path, corpus_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_echo_holds_no_swept_model_field_and_reruns_the_sweep(self, tmp_path,
                                                                  corpus_path):
        out = str(tmp_path / "sweep")
        assert main(["prune-sweep", "--train", corpus_path, "--z-values", "0.5",
                     "--sweep-modes", "dual", "--out", out,
                     "--config", make_config(tmp_path, corpus_path)]) == 0
        echoed = read_json(os.path.join(out, "config.json"))
        assert "z" not in echoed["model"] and "channel_mode" not in echoed["model"]
        assert echoed["training"]["seeds"] == [0]
        first = read_json(os.path.join(out, "sweep.json"))
        # The file's sweep_modes and z_values are read: no flag repeats them.
        assert main(["prune-sweep", "--config", os.path.join(out, "config.json")]) == 0
        assert read_json(os.path.join(out, "sweep.json")) == first

    @pytest.mark.parametrize("field, value", [("z", 0.25), ("channel_mode", "single")])
    def test_config_setting_a_swept_model_field_is_usage_error(self, tmp_path, corpus_path,
                                                               capsys, field, value):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"model": dict(TINY_MODEL, **{field: value}),
                                    "z_values": [0.5]}))
        assert main(["prune-sweep", "--train", corpus_path, "--config", str(path)]) == 1
        assert field in capsys.readouterr().err


def make_config(tmp_path, corpus_path):
    path = str(tmp_path / "model_only.json")
    if not os.path.exists(path):
        with open(path, "w") as handle:
            json.dump({"model": TINY_MODEL,
                       "training": {"epochs": 1, "seeds": [0]}}, handle)
    return path


class TestCommandOptions:
    """Each command accepts only the flags and config keys it reads."""

    EXPECTED = {
        "train": {("--config",), ("--train",), ("--dev",), ("--out",), ("--seeds", "--seed"),
                  ("--span-mode",), ("--max-span-width",), ("--epochs",), ("--test",),
                  ("--embeddings",), ("--z",), ("--channel-mode",)},
        "eval": {("--checkpoint",), ("--test",), ("--out",), ("--modes",)},
        "predict": {("--checkpoint",), ("--test",), ("--out",)},
        "stats": {("corpora",), ("--out",)},
        "prune-sweep": {("--config",), ("--train",), ("--dev",), ("--out",),
                        ("--seeds", "--seed"), ("--span-mode",), ("--max-span-width",),
                        ("--epochs",), ("--z-values",), ("--sweep-modes",)},
    }

    def test_option_set_of_each_command(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        found = {name: {tuple(a.option_strings) or (a.dest,)
                        for a in p._actions if a.dest != "help"}
                 for name, p in sub.choices.items()}
        assert found == self.EXPECTED

    @pytest.mark.parametrize("command", ["train", "prune-sweep"])
    def test_every_training_flag_sets_a_config_key(self, command):
        # A dest outside the table would be parsed and then silently ignored.
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices[command]._actions if a.dest != "help"}
        unset = dests - set(_FLAGS) - {"command", "config", "z_values", "sweep_modes"}
        assert unset == set()

    @pytest.mark.parametrize("argv", [
        ["eval", "--checkpoint", "m.ckpt.npz", "--test", "c.txt", "--z", "1"],
        ["predict", "--checkpoint", "m.ckpt.npz", "--test", "c.txt", "--out", "p.txt",
         "--seeds", "1"],
        ["train", "--train", "c.txt", "--out", "run", "--modes", "all"],
        ["prune-sweep", "--train", "c.txt", "--z-values", "0.5", "--channel-mode", "single"],
    ], ids=["eval", "predict", "train", "prune-sweep"])
    def test_flag_the_command_does_not_read_is_usage_error(self, argv, tmp_path,
                                                           monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, section, key", [
        ("train", None, "trainng"),
        ("train", None, "modes"),
        ("train", "paths", "test"),
        ("train", "training", "lr_decay"),
        ("prune-sweep", None, "modes"),
        ("prune-sweep", "paths", "test_path"),
    ])
    def test_unread_config_key_is_usage_error(self, tmp_path, corpus_path, capsys,
                                              command, section, key):
        config = {"paths": {"train_path": corpus_path, "out": str(tmp_path / "run")},
                  "model": TINY_MODEL, "training": {"epochs": 1, "seeds": [0]}}
        if command == "prune-sweep":
            config["z_values"] = [0.5]
        (config[section] if section else config)[key] = ["all"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err
        assert not (tmp_path / "run").exists()


class TestUsage:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_console_script_is_installed(self):
        import shutil
        import subprocess

        exe = shutil.which("spantriplet")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "prune-sweep" in proc.stdout


def tiny_checkpoint(tmp_path):
    path = str(tmp_path / "model.ckpt.npz")
    SpanModel(ModelConfig(**TINY_MODEL), Vocabulary.build([["the"]])).save(path)
    return path


def count_forwards(monkeypatch):
    """A list that gets one entry per ``SpanModel.forward`` call from here on."""
    calls = []
    forward = SpanModel.forward

    def counted(self, *args, **kwargs):
        calls.append(1)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(SpanModel, "forward", counted)
    return calls


def error_lines(err):
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


class TestBadInput:
    """Bad settings exit 1 and unreadable inputs exit 2, each with one error line."""

    @pytest.mark.parametrize("command, bad, name", [
        ("train", {"paths": "x"}, "paths"),
        ("train", {"model": []}, "model"),
        ("train", {"model": {"embedding_dim": "six"}}, "embedding_dim"),
        ("train", {"model": {"embedding_dim": 2.5}}, "embedding_dim"),
        ("train", {"model": {"use_width_distance": "no"}}, "use_width_distance"),
        ("train", {"model": {"z": True}}, "z"),
        ("train", {"model": {"z": float("nan")}}, "z"),
        ("train", {"model": {"z": float("inf")}}, "z"),
        ("train", {"paths": {"dev_path": 3}}, "dev_path"),
        ("train", {"training": {"seeds": 3}}, "seeds"),
        ("train", {"training": {"seeds": ["a"]}}, "seeds"),
        ("train", {"training": {"epochs": "2"}}, "epochs"),
        ("train", {"training": {"epochs": 1.5}}, "epochs"),
        ("prune-sweep", {"z_values": "0.5"}, "z_values"),
        ("prune-sweep", {"z_values": [0]}, "z"),
        ("prune-sweep", {"z_values": [float("inf")]}, "z"),
        ("prune-sweep", {"sweep_modes": ["bogus"]}, "sweep_modes"),
    ])
    def test_bad_config_value_exits_1_before_any_directory(self, tmp_path, corpus_path,
                                                           capsys, command, bad, name):
        config = {"paths": {"train_path": corpus_path, "out": str(tmp_path / "run")},
                  "model": dict(TINY_MODEL), "training": {"epochs": 1, "seeds": [0]}}
        if command == "prune-sweep":
            config["z_values"] = [0.5]
        for section, value in bad.items():
            if isinstance(value, dict):
                config[section].update(value)
            else:
                config[section] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "run")]) == 1
        lines = error_lines(capsys.readouterr().err)
        assert len(lines) == 1 and re.search(rf"\b{name}\b", lines[0]), lines
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "prune-sweep"])
    def test_negative_seed_exits_1_before_any_directory(self, tmp_path, corpus_path, capsys,
                                                        command):
        argv = [command, "--train", corpus_path, "--out", str(tmp_path / "run"),
                "--seeds", "-1"]
        if command == "prune-sweep":
            argv += ["--z-values", "0.5"]
        assert main(argv) == 1
        lines = error_lines(capsys.readouterr().err)
        assert len(lines) == 1 and re.search(r"\bseeds\b", lines[0]), lines
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, flags, name", [
        ("train", ["--seeds", "0", "0"], "seeds"),
        ("prune-sweep", ["--z-values", "0.5", "0.5"], "z_values"),
        ("prune-sweep", ["--z-values", "0.5", "--sweep-modes", "dual", "dual"],
         "sweep_modes"),
    ])
    def test_repeated_setting_exits_1_before_any_directory(self, tmp_path, corpus_path,
                                                           capsys, command, flags, name):
        assert main([command, "--train", corpus_path, "--out", str(tmp_path / "run"),
                     "--config", make_config(tmp_path, corpus_path)] + flags) == 1
        lines = error_lines(capsys.readouterr().err)
        assert len(lines) == 1 and re.search(rf"\b{name}\b.*more than once", lines[0]), lines
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, flag, key", [
        ("train", "--dev", "dev_path"), ("train", "--test", "test_path"),
        ("train", "--embeddings", "embeddings"), ("prune-sweep", "--dev", "dev_path"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_input_path_exits_1_before_any_directory(self, tmp_path, corpus_path,
                                                           capsys, command, flag, key,
                                                           source):
        config = {"model": TINY_MODEL, "training": {"epochs": 1, "seeds": [0]}}
        argv = [command, "--train", corpus_path, "--out", str(tmp_path / "run")]
        if source == "flag":
            argv += [flag, ""]
        else:
            config["paths"] = {key: ""}
        if command == "prune-sweep":
            config["z_values"] = [0.5]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(argv + ["--config", str(path)]) == 1
        lines = error_lines(capsys.readouterr().err)
        assert lines == [f"error: paths [{key!r}] must not be empty"]
        assert not (tmp_path / "run").exists()

    def test_config_naming_a_directory_exits_1(self, tmp_path, corpus_path, capsys):
        assert main(["train", "--config", str(tmp_path), "--train", corpus_path,
                     "--out", str(tmp_path / "run")]) == 1
        lines = error_lines(capsys.readouterr().err)
        assert len(lines) == 1 and str(tmp_path) in lines[0]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "prune-sweep", "eval"])
    def test_out_naming_a_file_exits_2(self, tmp_path, corpus_path, capsys, monkeypatch,
                                       command):
        with open(corpus_path) as handle:
            before = handle.read()
        forwards = count_forwards(monkeypatch)
        if command == "eval":
            argv = ["eval", "--checkpoint", tiny_checkpoint(tmp_path), "--test", corpus_path]
        else:
            argv = [command, "--config", make_config(tmp_path, corpus_path),
                    "--train", corpus_path]
            if command == "prune-sweep":
                argv += ["--z-values", "0.5"]
        assert main(argv + ["--out", corpus_path]) == 2
        captured = capsys.readouterr()
        lines = error_lines(captured.err)
        assert len(lines) == 1 and corpus_path in lines[0], lines
        assert forwards == [] and captured.out == ""
        with open(corpus_path) as handle:
            assert handle.read() == before

    @pytest.mark.parametrize("command", ["stats", "eval", "predict", "prune-sweep"])
    def test_empty_out_exits_2_before_any_forward(self, tmp_path, corpus_path, capsys,
                                                  monkeypatch, command):
        if command == "stats":
            argv = ["stats", corpus_path]
        elif command == "prune-sweep":
            argv = [command, "--config", make_config(tmp_path, corpus_path),
                    "--train", corpus_path, "--z-values", "0.5"]
        else:
            argv = [command, "--checkpoint", tiny_checkpoint(tmp_path), "--test", corpus_path]
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        forwards = count_forwards(monkeypatch)
        assert main(argv + ["--out", ""]) == 2
        captured = capsys.readouterr()
        assert len(error_lines(captured.err)) == 1
        assert forwards == [] and captured.out == ""
        assert list(work.iterdir()) == []

    def test_predict_into_a_missing_directory_exits_2_before_any_forward(
            self, tmp_path, corpus_path, capsys, monkeypatch):
        forwards = count_forwards(monkeypatch)
        out = str(tmp_path / "missing_dir" / "p.txt")
        assert main(["predict", "--checkpoint", tiny_checkpoint(tmp_path),
                     "--test", corpus_path, "--out", out]) == 2
        captured = capsys.readouterr()
        lines = error_lines(captured.err)
        assert len(lines) == 1 and out in lines[0], lines
        assert forwards == [] and captured.out == ""
        assert not (tmp_path / "missing_dir").exists()

    @pytest.mark.parametrize("command", ["stats", "predict"])
    def test_out_naming_a_directory_exits_2_before_any_output(self, tmp_path, corpus_path,
                                                              capsys, monkeypatch, command):
        out = tmp_path / "outdir"
        out.mkdir()
        forwards = count_forwards(monkeypatch)
        if command == "stats":
            argv = ["stats", corpus_path]
        else:
            argv = ["predict", "--checkpoint", tiny_checkpoint(tmp_path), "--test", corpus_path]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        lines = error_lines(captured.err)
        assert len(lines) == 1 and str(out) in lines[0], lines
        assert forwards == [] and captured.out == ""
        assert list(out.iterdir()) == []

    def test_stats_on_a_directory_exits_2(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path)]) == 2
        lines = error_lines(capsys.readouterr().err)
        assert len(lines) == 1 and str(tmp_path) in lines[0]

    def test_non_utf8_corpus_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "latin1.txt"
        corpus.write_bytes("café is great .####[([0], [2], 'POS')]\n".encode("latin-1"))
        assert main(["train", "--train", str(corpus), "--out", str(tmp_path / "run"),
                     "--config", make_config(tmp_path, str(corpus))]) == 2
        lines = error_lines(capsys.readouterr().err)
        assert len(lines) == 1 and str(corpus) in lines[0]

    @pytest.mark.parametrize("change", [
        {"config": {"bogus_field": 1}}, {"config": {"embedding_dim": "6"}},
        {"vocab": 5}, {"vocab": ["the", "<unk>"]},
    ], ids=["unknown", "mistyped", "vocab_not_a_list", "vocab_unk_second"])
    def test_checkpoint_with_bad_stored_config_exits_2(self, tmp_path, corpus_path, capsys,
                                                       change):
        config = ModelConfig(**TINY_MODEL)
        model = SpanModel(config, Vocabulary.build([["the"]]))
        path = str(tmp_path / "bad.ckpt.npz")
        meta = {"config": dict(asdict(config), **change.get("config", {})),
                "vocab": change.get("vocab", model.vocab.tokens)}
        dataio.save_checkpoint(path, model.parameters(), meta)
        assert main(["eval", "--checkpoint", path, "--test", corpus_path]) == 2
        lines = error_lines(capsys.readouterr().err)
        name = next(iter(change.get("config", change)))
        assert len(lines) == 1 and path in lines[0] and name in lines[0], lines

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_checkpoint_with_a_nan_weight_exits_2(self, tmp_path, corpus_path, capsys,
                                                  command):
        model = SpanModel(ModelConfig(**TINY_MODEL), Vocabulary.build([["the"]]))
        model.relation_ffnn.weights[-1].data[0, 0] = np.nan
        path = str(tmp_path / "nan.ckpt.npz")
        model.save(path)
        out = str(tmp_path / "pred.txt")
        argv = [command, "--checkpoint", path, "--test", corpus_path]
        assert main(argv + (["--out", out] if command == "predict" else [])) == 2
        lines = error_lines(capsys.readouterr().err)
        assert len(lines) == 1 and path in lines[0] and "relation.w2" in lines[0], lines
        assert not os.path.exists(out)

    @pytest.mark.parametrize("name", ["lstm.fw.w_ih", "lstm.bw.w_hh", "lstm.fw.bias",
                                      "relation.w0", "distance.table"])
    def test_checkpoint_with_a_mis_shaped_weight_exits_2(self, tmp_path, corpus_path, capsys,
                                                         name):
        # The fused ops take these shapes on trust: loading is where they are checked.
        model = SpanModel(ModelConfig(**TINY_MODEL), Vocabulary.build([["the"]]))
        weight = next(p for p in model.parameters() if p.name == name)
        weight.data = np.zeros((weight.shape[0] + 1,) + weight.shape[1:])
        path = str(tmp_path / "misshaped.ckpt.npz")
        model.save(path)
        with pytest.raises(CheckpointError, match=re.escape(repr(name))):
            SpanModel.load(path)
        assert main(["eval", "--checkpoint", path, "--test", corpus_path]) == 2
        lines = error_lines(capsys.readouterr().err)
        assert len(lines) == 1 and repr(name) in lines[0], lines

    @pytest.mark.parametrize("command, flag, bad, code, message", [
        ("train", "--train", "missing", 2, "missing.txt"),
        ("train", "--dev", "missing", 2, "missing.txt"),
        ("train", "--test", "missing", 2, "missing.txt"),
        ("train", "--train", "malformed", 2, "missing '####' separator"),
        ("train", "--embeddings", "narrow", 1,
         "error: embedding file width 4 != configured embedding_dim 6"),
        ("prune-sweep", "--dev", "missing", 2, "missing.txt"),
    ])
    def test_unusable_input_exits_before_any_directory(self, tmp_path, corpus_path, capsys,
                                                       command, flag, bad, code, message):
        (tmp_path / "malformed.txt").write_text("no separator on this line\n")
        (tmp_path / "narrow.txt").write_text("the 0.1 0.2 0.3 0.4\n")
        bad_path = str(tmp_path / f"{bad}.txt")
        argv = [command, "--config", make_config(tmp_path, corpus_path),
                "--train", corpus_path, "--out", str(tmp_path / "run"), flag, bad_path]
        if command == "prune-sweep":
            argv += ["--z-values", "0.5"]
        assert main(argv) == code
        lines = error_lines(capsys.readouterr().err)
        assert len(lines) == 1 and message in lines[0], lines
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, flag", [
        ("train", "--dev"), ("train", "--embeddings"), ("eval", "--test"),
        ("predict", "--test"), ("stats", None),
    ])
    def test_parse_error_names_its_file(self, tmp_path, corpus_path, capsys, command, flag):
        bad = str(tmp_path / "bad.txt")
        with open(bad, "w") as handle:
            if flag == "--embeddings":
                handle.write("the 1 2 3 4 5 6\nfood 1 x 3 4 5 6\n")
                message = "line 2, column 6: non-numeric embedding value for token 'food'"
            else:
                handle.write("fine line####[]\nbroken line without separator\n")
                message = "line 2, column 30: missing '####' separator"
        if command == "train":
            argv = ["train", "--config", make_config(tmp_path, corpus_path),
                    "--train", corpus_path, "--out", str(tmp_path / "run"), flag, bad]
        elif command == "stats":
            argv = ["stats", bad]
        else:
            argv = [command, "--checkpoint", tiny_checkpoint(tmp_path), "--test", bad]
            if command == "predict":
                argv += ["--out", str(tmp_path / "pred.txt")]
        assert main(argv) == 2
        assert error_lines(capsys.readouterr().err) == [f"error: {bad}: {message}"]

    @pytest.mark.parametrize("bad", ["checkpoint", "unreadable_test", "malformed_test"])
    def test_eval_with_a_bad_input_leaves_no_out_directory(self, tmp_path, corpus_path,
                                                           capsys, monkeypatch, bad):
        checkpoint, test = tiny_checkpoint(tmp_path), corpus_path
        if bad == "checkpoint":
            checkpoint = str(tmp_path / "junk.ckpt.npz")
            with open(checkpoint, "w") as handle:
                handle.write("not a checkpoint")
            expected = f"error: {checkpoint}: unreadable checkpoint"
        elif bad == "unreadable_test":
            test = str(tmp_path / "missing.txt")
            expected = f"error: cannot read {test}: No such file or directory"
        else:
            test = str(tmp_path / "malformed.txt")
            with open(test, "w") as handle:
                handle.write("no separator on this line\n")
            expected = f"error: {test}: line 1, column 26: missing '####' separator"
        forwards = count_forwards(monkeypatch)
        out = tmp_path / "evout"
        assert main(["eval", "--checkpoint", checkpoint, "--test", test,
                     "--out", str(out)]) == 2
        lines = error_lines(capsys.readouterr().err)
        assert len(lines) == 1 and lines[0].startswith(expected), lines
        assert forwards == [] and not out.exists()

    def test_eval_out_under_a_file_exits_2_before_loading(self, tmp_path, corpus_path,
                                                          capsys, monkeypatch):
        loads = []
        monkeypatch.setattr(SpanModel, "load", lambda path: loads.append(path))
        out = os.path.join(corpus_path, "evout")
        assert main(["eval", "--checkpoint", "any.ckpt.npz", "--test", corpus_path,
                     "--out", out]) == 2
        lines = error_lines(capsys.readouterr().err)
        assert len(lines) == 1 and out in lines[0] and corpus_path in lines[0], lines
        assert loads == []

    @pytest.mark.parametrize("key, value", [("sweep_modes", []), ("sweep_modes", None),
                                            ("z_values", None)])
    def test_empty_or_null_sweep_list_exits_1_before_any_directory(self, tmp_path,
                                                                   corpus_path, capsys,
                                                                   key, value):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"model": TINY_MODEL, "z_values": [0.5], key: value}))
        assert main(["prune-sweep", "--train", corpus_path, "--out", str(tmp_path / "run"),
                     "--config", str(path)]) == 1
        lines = error_lines(capsys.readouterr().err)
        assert len(lines) == 1 and key in lines[0] and lines[0].endswith(f"got {value!r}")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("literal", ["{[0]}", "{[0]: 1}"], ids=["set", "dict"])
    @pytest.mark.parametrize("command", ["stats", "train", "eval", "predict"])
    def test_unhashable_literal_exits_2_before_any_output(self, tmp_path, corpus_path, capsys,
                                                          command, literal):
        # ast.literal_eval raises TypeError building such a set or dict.
        bad = str(tmp_path / "bad.txt")
        with open(bad, "w") as handle:
            handle.write(f"the food was great####{literal}\n")
        out = tmp_path / "out"
        if command == "stats":
            argv = ["stats", bad]
        elif command == "train":
            argv = ["train", "--config", make_config(tmp_path, corpus_path), "--train", bad]
        else:
            argv = [command, "--checkpoint", tiny_checkpoint(tmp_path), "--test", bad]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert error_lines(captured.err) == [
            f"error: {bad}: line 1, column 23: malformed triplet literal: {literal!r}"]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("text, line, column, token", [
        ("the 1_0 2 3 4 5 6\n", 1, 5, "the"),
        ("the 1 2 3 4 5 6\nfood ١٢ 2 3 4 5 6\n", 2, 6, "food"),
        ("the 1 2 3 4 5 6\nfood 1 ３ 3 4 5 6\n", 2, 6, "food"),
    ], ids=["underscore", "arabic_indic_digits", "fullwidth_digit"])
    def test_embedding_value_that_is_not_plain_ascii_decimal_exits_2(
            self, tmp_path, corpus_path, capsys, text, line, column, token):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(text, encoding="utf-8")
        assert main(["train", "--config", make_config(tmp_path, corpus_path),
                     "--train", corpus_path, "--out", str(tmp_path / "run"),
                     "--embeddings", str(vectors)]) == 2
        assert error_lines(capsys.readouterr().err) == [
            f"error: {vectors}: line {line}, column {column}: "
            f"non-numeric embedding value for token {token!r}"]
        assert not (tmp_path / "run").exists()


class TestExitCodeThree:
    def test_overflowing_training_exits_3_with_a_strict_json_snapshot(self, tmp_path,
                                                                       corpus_path, capsys):
        config = tmp_path / "lr.json"
        config.write_text(json.dumps({"model": TINY_MODEL,
                                      "training": {"epochs": 2, "seeds": [0], "lr": 1e300}}))
        run = tmp_path / "run"
        with np.errstate(all="ignore"):
            code = main(["train", "--config", str(config), "--train", corpus_path,
                         "--out", str(run)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = error_lines(captured.err)
        assert len(lines) == 1 and "non-finite" in lines[0], lines
        tail = captured.err[captured.err.index(lines[0]) + len(lines[0]):]

        def refuse(constant):
            raise ValueError(f"snapshot holds the non-JSON constant {constant}")

        snapshot = json.loads(tail, parse_constant=refuse)
        norms = snapshot["param_norms"]
        assert norms and all(isinstance(v, float) and 1e299 < v < 1e302
                             for v in norms.values()), norms
        assert not (run / "seed0.ckpt.npz").exists()


class TestReaderPaths:
    """Reader branches the other tests do not reach: each bad file exits with one error line."""

    def test_train_takes_the_embedding_file_vectors_bit_for_bit(self, tmp_path, corpus_path):
        # lr 1e-300 moves no weight near 1, so the best-dev checkpoint keeps the file's rows.
        rows = {"the": [0.125, -1.5, 3e-7, 2.0, 0.1, -0.3], "is": [1, 2, 3, 4, 5, 6]}
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("The 9 9 9 9 9 9\n"
                           + "".join(f"{w} {' '.join(map(repr, v))}\n" for w, v in rows.items())
                           + "IS 7 7 7 7 7 7\n")
        config = tmp_path / "tiny_lr.json"
        config.write_text(json.dumps({"model": TINY_MODEL,
                                      "training": {"epochs": 1, "seeds": [0], "lr": 1e-300}}))
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--train", corpus_path,
                     "--out", str(run), "--embeddings", str(vectors)]) == 0
        arrays, meta = dataio.load_checkpoint(str(run / "seed0.ckpt.npz"))
        vocab = Vocabulary(meta["vocab"])
        for word, vector in rows.items():
            assert vocab.lookup(word) != 0, word
            row = arrays["embedding.table"][vocab.lookup(word)]
            assert row.tobytes() == np.array(vector, dtype=np.float64).tobytes(), word

    def test_embedding_line_without_values_exits_2(self, tmp_path, corpus_path, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("the 1 2 3 4 5 6\nfood\n")
        assert main(["train", "--config", make_config(tmp_path, corpus_path),
                     "--train", corpus_path, "--out", str(tmp_path / "run"),
                     "--embeddings", str(vectors)]) == 2
        assert error_lines(capsys.readouterr().err) == [
            f"error: {vectors}: line 2, column 1: "
            "embedding line needs a token and at least one value"]

    @pytest.mark.parametrize("tag, message", [
        (None, "missing format tag, not a checkpoint"),
        ("spantriplet-checkpoint-v0", "unsupported format 'spantriplet-checkpoint-v0'"),
    ], ids=["no_tag", "unknown_tag"])
    def test_checkpoint_format_tag_is_checked(self, tmp_path, corpus_path, capsys, tag,
                                              message):
        path = str(tmp_path / "tagged.ckpt.npz")
        arrays = {"param/w": np.zeros(2)}
        if tag is not None:
            arrays["__format__"] = np.array(tag)
        np.savez(path, **arrays)
        assert main(["eval", "--checkpoint", path, "--test", corpus_path]) == 2
        assert error_lines(capsys.readouterr().err) == [f"error: {path}: {message}"]

    @pytest.mark.parametrize("drop", ["config", "vocab"])
    def test_checkpoint_without_config_or_vocab_exits_2(self, tmp_path, corpus_path, capsys,
                                                        drop):
        model = SpanModel(ModelConfig(**TINY_MODEL), Vocabulary.build([["the"]]))
        meta = {"config": asdict(model.config), "vocab": model.vocab.tokens}
        del meta[drop]
        path = str(tmp_path / "partial.ckpt.npz")
        dataio.save_checkpoint(path, model.parameters(), meta)
        assert main(["predict", "--checkpoint", path, "--test", corpus_path,
                     "--out", str(tmp_path / "pred.txt")]) == 2
        assert error_lines(capsys.readouterr().err) == [
            f"error: {path}: checkpoint lacks model config or vocabulary"]
        assert not (tmp_path / "pred.txt").exists()

    @pytest.mark.parametrize("text", ["[1, 2]", '"run"', "null"])
    def test_config_file_holding_a_non_object_exits_1(self, tmp_path, corpus_path, capsys,
                                                      text):
        config = tmp_path / "list.json"
        config.write_text(text)
        assert main(["train", "--config", str(config), "--train", corpus_path,
                     "--out", str(tmp_path / "run")]) == 1
        assert error_lines(capsys.readouterr().err) == [
            f"error: config file {config} must hold a JSON object"]
        assert not (tmp_path / "run").exists()
