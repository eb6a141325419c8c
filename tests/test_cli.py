import csv
import importlib.resources
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lucidnet
from lucidnet import DatasetError, Network, load_dataset
from lucidnet.cli import OPTIONS, REQUIRED, build_parser, main
from lucidnet.data import ELECTION_FEATURE_NAMES, save_dataset
from lucidnet.transparency import RuleSet, fixtures_A1_A2

from conftest import (
    majority_dataset,
    make_dataset,
    single_neuron_net,
    single_question_rule_network,
)


def write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadDataset:
    def test_valid_file(self, tmp_path):
        path = write(tmp_path / "d.csv",
                     "a,b,class\n1,-1,P\nyes,no,O\n-1,+1,P\n")
        ds = load_dataset(path)
        assert ds.feature_names == ["a", "b"]
        assert ds.features.tolist() == [[1, -1], [1, -1], [-1, 1]]
        assert ds.labels == ["P", "O", "P"]
        assert ds.class_labels == ["P", "O"]

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,b,class\n1,maybe,P\n")
        with pytest.raises(DatasetError, match=r"row 2.*'b'.*'maybe'"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "")
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,b,class\n")
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_width_mismatch(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,b,class\n1,P\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_dataset(path)

    def test_missing_class_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,b,c\n1,1,1\n")
        with pytest.raises(DatasetError, match="class"):
            load_dataset(path)

    def test_round_trip(self, tmp_path):
        ds = majority_dataset()
        path = tmp_path / "synth.csv"
        save_dataset(ds, path)
        again = load_dataset(str(path))
        assert again.feature_names == ds.feature_names
        assert np.array_equal(again.features, ds.features)
        assert again.labels == ds.labels


def xor_csv(tmp_path):
    return write(tmp_path / "xor.csv",
                 "x0,x1,class\n-1,-1,neg\n-1,1,pos\n1,-1,pos\n1,1,neg\n")


class TestTrainCommand:
    def test_train_writes_network_and_reports(self, tmp_path, capsys):
        data = xor_csv(tmp_path)
        out = tmp_path / "run"
        code = main(["train", "--dataset", data, "--arch", "2,6,1",
                     "--labels", "pos,neg", "--lr", "0.3", "--momentum", "0.9",
                     "--epochs", "5000", "--seed", "1", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "converged=true" in captured
        net = Network.load(out / "network.json")
        assert net.input_dim == 2

    def test_train_is_bit_reproducible(self, tmp_path, capsys):
        data = xor_csv(tmp_path)
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = main(["train", "--dataset", data, "--arch", "2,6,1",
                         "--labels", "pos,neg", "--lr", "0.3", "--momentum",
                         "0.9", "--epochs", "5000", "--seed", "7",
                         "--out", str(out)])
            assert code == 0
            blobs.append((out / "network.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_convergence_failure_exit_code(self, tmp_path, capsys):
        data = xor_csv(tmp_path)
        code = main(["train", "--dataset", data, "--arch", "2,2,1",
                     "--labels", "pos,neg", "--lr", "0.0", "--epochs", "3",
                     "--out", str(tmp_path / "run")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_arch_mismatch_is_usage_error(self, tmp_path, capsys):
        data = xor_csv(tmp_path)
        code = main(["train", "--dataset", data, "--arch", "3,4,1",
                     "--out", str(tmp_path / "run")])
        assert code == 1

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        data = xor_csv(tmp_path)
        config = write(tmp_path / "run.json", json.dumps({
            "dataset": data,
            "network": {"arch": [2, 6, 1], "labels": ["pos", "neg"]},
            "train": {"learning_rate": 0.3, "momentum": 0.9, "max_epochs": 5000},
            "output_dir": str(tmp_path / "from_config"),
        }))
        code = main(["train", "--config", config, "--seed", "2"])
        assert code == 0
        assert (tmp_path / "from_config" / "network.json").exists()


class TestPruneCommand:
    def test_single_stage_prune(self, tmp_path, capsys):
        data = xor_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--dataset", data, "--arch", "2,6,1",
                     "--labels", "pos,neg", "--lr", "0.3", "--momentum", "0.9",
                     "--epochs", "5000", "--seed", "1", "--out", str(out)]) == 0
        code = main(["prune", "--network", str(out / "network.json"),
                     "--dataset", data, "--problem", "synapse-removal",
                     "--loop", "basic", "--acc-epochs", "3", "--lr", "0.3",
                     "--momentum", "0.9", "--epochs", "500",
                     "--out", str(out / "pruned")])
        captured = capsys.readouterr().out
        assert code == 0
        assert "stop=failed-at-m1" in captured
        log_lines = (out / "pruned" / "prune_log.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in log_lines]
        assert all({"step", "M", "refs", "accepted", "loss", "epochs_used"}
                   <= set(r) for r in records)
        assert any(not r["accepted"] for r in records)
        pruned = Network.load(out / "pruned" / "network.json")
        assert pruned.input_dim == 2


    def test_untrained_network_exits_three(self, tmp_path, capsys):
        data = xor_csv(tmp_path)
        out = tmp_path / "run"
        code = main(["train", "--dataset", data, "--arch", "2,2,1",
                     "--labels", "pos,neg", "--lr", "0.0", "--epochs", "0",
                     "--seed", "3", "--out", str(out)])
        assert code == 3  # written, but not trained
        capsys.readouterr()
        code = main(["prune", "--network", str(out / "network.json"),
                     "--dataset", data, "--problem", "synapse-removal",
                     "--out", str(out / "pruned")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: pruning requires")

    @pytest.mark.parametrize("label, epochs, want", [("zzz", 5000, 2), ("neg", 0, 3)],
                             ids=["unknown-row-label", "untrained"])
    def test_a_prune_refused_at_entry_leaves_no_log(self, tmp_path, capsys,
                                                    label, epochs, want):
        out = tmp_path / "run"
        main(["train", "--dataset", xor_csv(tmp_path), "--arch", "2,6,1",
              "--labels", "pos,neg", "--lr", "0.3", "--momentum", "0.9",
              "--epochs", str(epochs), "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        data = write(tmp_path / "rows.csv",
                     f"x0,x1,class\n-1,-1,neg\n-1,1,pos\n1,-1,pos\n1,1,{label}\n")
        code = main(["prune", "--network", str(out / "network.json"),
                     "--dataset", data, "--problem", "synapse-removal",
                     "--out", str(tmp_path / "pruned")])
        assert code == want
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not list((tmp_path / "pruned").rglob("prune_log.jsonl"))

    @pytest.mark.parametrize("argv", [
        ["prune", "--problem", "synapse-removal"],
        ["prune", "--problem", "synapse-removal",
         "--criterion", "loss-below-threshold"],
        ["indicators", "--element-class", "weight"],
    ], ids=["prune", "prune-by-loss", "indicators"])
    def test_a_row_label_the_network_cannot_output(self, tmp_path, capsys, argv):
        # a data error under either criterion, before any criterion check
        out = tmp_path / "run"
        assert main(["train", "--dataset", xor_csv(tmp_path), "--arch", "2,6,1",
                     "--labels", "pos,neg", "--lr", "0.3", "--momentum", "0.9",
                     "--epochs", "5000", "--seed", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        data = write(tmp_path / "foreign.csv",
                     "x0,x1,class\n-1,-1,neg\n-1,1,pos\n1,-1,zzz\n1,1,neg\n")
        code = main(argv + ["--network", str(out / "network.json"),
                            "--dataset", data, "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: label 'zzz' is not one of the network's output labels "
            "['pos', 'neg']"]


class TestIndicatorsCommand:
    def test_indicator_table(self, tmp_path, capsys):
        data = xor_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--dataset", data, "--arch", "2,4,1",
                     "--labels", "pos,neg", "--lr", "0.3", "--momentum", "0.9",
                     "--epochs", "5000", "--seed", "3", "--out", str(out)]) == 0
        code = main(["indicators", "--network", str(out / "network.json"),
                     "--dataset", data, "--element-class", "weight",
                     "--mode", "max", "--acc-epochs", "4", "--lr", "0.05",
                     "--out", str(out)])
        assert code == 0
        with open(out / "indicators.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["element", "class", "indicator", "mode"]
        assert len(rows) == 1 + 4 * 2 + 4 + 4 + 1  # synapses + biases
        assert all(r[1] == "weight" and r[3] == "max" for r in rows[1:])

    def test_network_file_untouched(self, tmp_path, capsys):
        data = xor_csv(tmp_path)
        out = tmp_path / "run"
        main(["train", "--dataset", data, "--arch", "2,4,1",
              "--labels", "pos,neg", "--lr", "0.3", "--momentum", "0.9",
              "--epochs", "5000", "--seed", "3", "--out", str(out)])
        before = (out / "network.json").read_bytes()
        main(["indicators", "--network", str(out / "network.json"),
              "--dataset", data, "--element-class", "input", "--out", str(out)])
        assert (out / "network.json").read_bytes() == before


def untrained_network(tmp_path):
    from lucidnet import build_network

    path = tmp_path / "untrained.json"
    build_network((2, 2, 1), output_labels=["pos", "neg"], seed=0).save(path)
    return str(path)


def trained_xor(tmp_path):
    data = xor_csv(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--dataset", data, "--arch", "2,4,1",
                 "--labels", "pos,neg", "--lr", "0.3", "--momentum", "0.9",
                 "--epochs", "5000", "--seed", "3", "--out", str(out)]) == 0
    return data, out


PRUNE = ["prune", "--network", "{net}", "--dataset", "{data}"]
INDICATORS = ["indicators", "--network", "{net}", "--dataset", "{data}"]
BAD_OPTION_FLAGS = [
    ("train-momentum", ["train", "--dataset", "{data}", "--arch", "2,4,1",
                        "--momentum", "1.5"], "momentum must lie in [0, 1)"),
    ("train-arch", ["train", "--dataset", "{data}", "--arch", "3,x,1"],
     "'arch' must be a list of layer sizes"),
    ("train-layer-size", ["train", "--dataset", "{data}", "--arch", "2,0,1"],
     "layer sizes must be positive"),
    ("train-seed", ["train", "--dataset", "{data}", "--arch", "2,4,1", "--seed", "-1"],
     "invalid network options"),
    ("train-epochs", ["train", "--dataset", "{data}", "--arch", "2,4,1",
                      "--epochs", "-5"], "max_epochs must be nonnegative"),
    ("train-duplicate-labels", ["train", "--dataset", "{data}", "--arch", "2,4,1",
                                "--labels", "pos,pos"], "repeat a label"),
    ("train-threshold-nan", ["train", "--dataset", "{data}", "--arch", "2,4,1",
                             "--criterion", "loss-below-threshold", "--threshold", "nan"],
     "loss threshold must be a number, not nan"),
    ("train-margin-width-nan", ["train", "--dataset", "{data}", "--arch", "2,4,1",
                                "--loss", "margin", "--margin-width", "nan"],
     "margin width must be finite"),
    ("prune-margin-width-inf", PRUNE + ["--problem", "synapse-removal", "--loss", "margin",
                                        "--margin-width", "inf"],
     "margin width must be finite"),
    ("prune-valid-set", PRUNE + ["--problem", "precision-reduction", "--valid-set=a,b"],
     "'valid_set' must be a nonempty list of numbers"),
    ("prune-valid-set-nan", PRUNE + ["--problem", "precision-reduction",
                                     "--valid-set=nan,1"], "must be finite"),
    ("prune-acc-epochs", PRUNE + ["--problem", "synapse-removal",
                                  "--acc-epochs", "0"], "accumulation epoch"),
    ("prune-target-fan-in", PRUNE + ["--problem", "uniform-simplification",
                                     "--target-fan-in", "0"], "target fan-in"),
    ("prune-initial-m", PRUNE + ["--problem", "synapse-removal",
                                 "--initial-m", "0"], "initial M"),
    ("indicators-valid-set", INDICATORS + ["--element-class", "weight",
                                           "--valid-set=1,0"], "ascending"),
    ("indicators-acc-epochs", INDICATORS + ["--element-class", "input",
                                            "--acc-epochs", "0"],
     "accumulation epoch"),
    ("train-no-dataset", ["train", "--arch", "2,4,1"], "'dataset' is required"),
    ("train-no-arch", ["train", "--dataset", "{data}"], "'arch' in 'network' is required"),
    ("prune-no-network", ["prune", "--dataset", "{data}", "--problem", "synapse-removal"],
     "'file' in 'network' is required"),
]
BAD_PRUNE_CONFIGS = [
    ("unknown-problem", {"stages": [{"problem": "bogus"}]},
     "unknown pruning problem 'bogus'"),
    ("unknown-mode", {"stages": [{"problem": "synapse-removal", "mode": "median"}]},
     "unknown indicator mode 'median'"),
    ("initial-m-zero", {"stages": [{"problem": "synapse-removal", "initial_m": 0}]},
     "initial M is a count of at least 1"),
    ("stage-not-object", {"stages": ["synapse-removal"]}, "pruning stage"),
    ("config-is-list", [{"problem": "synapse-removal"}], "must hold a JSON object"),
]


class TestOptionValues:
    """A bad option value or config entry is a usage error (exit 1) with
    one ``error:`` line, raised before any training."""

    @staticmethod
    def _usage_error(capsys, argv, message):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert message in err[0]

    @pytest.mark.parametrize(
        "argv, message",
        [case[1:] for case in BAD_OPTION_FLAGS],
        ids=[case[0] for case in BAD_OPTION_FLAGS],
    )
    def test_bad_flag(self, tmp_path, capsys, argv, message):
        fill = {"net": untrained_network(tmp_path), "data": xor_csv(tmp_path)}
        argv = [a.format(**fill) for a in argv] + ["--out", str(tmp_path / "out")]
        self._usage_error(capsys, argv, message)
        assert not (tmp_path / "out" / "prune_log.jsonl").exists()

    @pytest.mark.parametrize(
        "config, message",
        [case[1:] for case in BAD_PRUNE_CONFIGS],
        ids=[case[0] for case in BAD_PRUNE_CONFIGS],
    )
    def test_bad_prune_config(self, tmp_path, capsys, config, message):
        path = write(tmp_path / "run.json", json.dumps(config))
        self._usage_error(capsys, [
            "prune", "--network", untrained_network(tmp_path),
            "--dataset", xor_csv(tmp_path), "--config", path,
            "--out", str(tmp_path / "out"),
        ], message)
        assert not (tmp_path / "out" / "prune_log.jsonl").exists()

    def test_refused_later_stage_writes_no_log(self, tmp_path, capsys):
        # every stage is checked before the log is opened
        path = write(tmp_path / "run.json", json.dumps({"stages": [
            {"problem": "synapse-removal"},
            {"problem": "synapse-removal", "accumulation_epochs": 0},
        ]}))
        self._usage_error(capsys, [
            "prune", "--network", untrained_network(tmp_path),
            "--dataset", xor_csv(tmp_path), "--config", path,
            "--out", str(tmp_path / "out"),
        ], "accumulation epoch")
        assert not (tmp_path / "out" / "prune_log.jsonl").exists()

    @pytest.mark.parametrize("config", [
        {"train": {"success_criterion": "loss-below-threshold",
                   "loss_threshold": math.nan}},
        {"loss": {"kind": "margin", "margin_width": math.nan}},
    ], ids=["loss-threshold", "margin-width"])
    def test_nan_in_a_train_config(self, tmp_path, capsys, config):
        # Python's json reads the NaN that json.dumps writes
        path = write(tmp_path / "run.json", json.dumps(config))
        self._usage_error(capsys, [
            "train", "--dataset", xor_csv(tmp_path), "--arch", "2,4,1",
            "--config", path, "--out", str(tmp_path / "out"),
        ], "invalid training options")
        assert not (tmp_path / "out" / "network.json").exists()

    def test_a_negative_threshold_runs_the_whole_budget(self, tmp_path, capsys):
        assert main([
            "train", "--dataset", xor_csv(tmp_path), "--arch", "2,4,1", "--epochs", "3",
            "--criterion", "loss-below-threshold", "--threshold", "-1",
            "--out", str(tmp_path / "out"),
        ]) == 3
        assert "epochs=3 " in capsys.readouterr().out

    @pytest.mark.parametrize("arch", ["2,4,2", "2,4,1"])
    def test_labels_that_miss_a_row_label(self, tmp_path, capsys, arch):
        self._usage_error(capsys, [
            "train", "--dataset", xor_csv(tmp_path), "--arch", arch,
            "--labels", "a,b", "--out", str(tmp_path / "out"),
        ], "label 'neg' is not one of the network's output labels ['a', 'b']")
        assert not (tmp_path / "out" / "network.json").exists()

    def test_a_network_too_large_to_allocate(self, tmp_path, capsys, monkeypatch):
        # whether the real allocation fails depends on the machine's
        # overcommit policy, so build_network is made to fail as numpy would
        def build_network(*args, **kwargs):
            raise MemoryError("Unable to allocate 224. GiB")

        monkeypatch.setattr(lucidnet.cli, "build_network", build_network)
        self._usage_error(capsys, [
            "train", "--dataset", xor_csv(tmp_path), "--arch", "2,9999999999,1",
            "--out", str(tmp_path / "out"),
        ], "invalid network options: no memory for layer sizes [2, 9999999999, 1]")
        assert not (tmp_path / "out" / "network.json").exists()

    @pytest.mark.parametrize("arch", [5, "", [], [2.0, 4, 1], [2, True, 1],
                                      {"sizes": [2, 4, 1]}, [2, None, 1]],
                             ids=["int", "empty-string", "empty-list", "float",
                                  "bool", "object", "null"])
    def test_bad_config_arch(self, tmp_path, capsys, arch):
        path = write(tmp_path / "run.json", json.dumps({"network": {"arch": arch}}))
        self._usage_error(capsys, [
            "train", "--dataset", xor_csv(tmp_path), "--config", path,
            "--out", str(tmp_path / "out"),
        ], "'arch' in 'network' must be a list of layer sizes")
        assert not (tmp_path / "out" / "network.json").exists()


# a config number of the wrong JSON type is refused, not truncated or parsed
WRONG_INTEGERS = [2.5, 2.0, True, "2"]
WRONG_NUMBERS = [True, "0.1", None, [0.1]]


class TestConfigNumberTypes:
    """A count in a config must be a JSON integer, a rate or threshold a
    JSON number and a path a JSON string; a bool, a string or (for a count)
    a fraction is a usage error with one ``error:`` line, raised before any
    output is written.  So is a key that no command reads."""

    @staticmethod
    def _refused(capsys, argv, key):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert repr(key) in err[0]

    def _train(self, tmp_path, capsys, config, key):
        path = write(tmp_path / "run.json", json.dumps(config))
        self._refused(capsys, ["train", "--dataset", xor_csv(tmp_path), "--arch", "2,4,1",
                               "--config", path, "--out", str(tmp_path / "out")], key)
        assert not (tmp_path / "out" / "network.json").exists()

    def _prune(self, tmp_path, capsys, config, key):
        path = write(tmp_path / "run.json", json.dumps(config))
        self._refused(capsys, ["prune", "--network", untrained_network(tmp_path),
                               "--dataset", xor_csv(tmp_path), "--config", path,
                               "--out", str(tmp_path / "out")], key)
        assert not (tmp_path / "out" / "prune_log.jsonl").exists()

    @pytest.mark.parametrize("value", WRONG_INTEGERS)
    @pytest.mark.parametrize("key", ["max_epochs", "accumulation_epochs",
                                     "target_fan_in", "initial_m", "seed"])
    def test_integer_fields(self, tmp_path, capsys, key, value):
        if key == "max_epochs":
            self._train(tmp_path, capsys, {"train": {key: value}}, key)
            self._prune(tmp_path, capsys, {"retrain": {key: value},
                                           "stages": [{"problem": "synapse-removal"}]}, key)
        elif key == "seed":
            self._train(tmp_path, capsys, {key: value}, key)
        else:
            stage = {"problem": "uniform-simplification", key: value}
            self._prune(tmp_path, capsys, {"stages": [stage]}, key)

    @pytest.mark.parametrize("value", WRONG_NUMBERS)
    @pytest.mark.parametrize("key", ["learning_rate", "momentum", "loss_threshold",
                                     "margin_width", "valid_set"])
    def test_number_fields(self, tmp_path, capsys, key, value):
        if key == "valid_set":  # a list of numbers
            stage = {"problem": "precision-reduction", key: [-1, value, 1]}
            self._prune(tmp_path, capsys, {"stages": [stage]}, key)
            return
        if key == "margin_width":
            config = {"loss": {"kind": "margin", key: value}}
        else:
            config = {"train": {key: value}}
        self._train(tmp_path, capsys, config, key)

    @pytest.mark.parametrize("value", [[False, "1"], "012", [], 0, None])
    def test_valid_set_is_a_list_of_numbers(self, tmp_path, capsys, value):
        stage = {"problem": "precision-reduction", "valid_set": value}
        self._prune(tmp_path, capsys, {"stages": [stage]}, "valid_set")

    @pytest.mark.parametrize("command, config, key", [
        ("train", {"dataset": 0}, "dataset"),
        ("train", {"output_dir": 7}, "output_dir"),
        ("prune", {"network": {"file": 0}, "stages": [{"problem": "synapse-removal"}]},
         "file"),
    ], ids=["dataset", "output-dir", "network-file"])
    def test_path_fields(self, tmp_path, capsys, monkeypatch, command, config, key):
        # a number read as a path would open a file descriptor or land here
        monkeypatch.chdir(tmp_path)
        data = xor_csv(tmp_path)
        path = write(tmp_path / "run.json", json.dumps(config))
        argv = {"train": ["train", "--arch", "2,4,1"],
                "prune": ["prune", "--dataset", data]}[command]
        if key != "dataset":
            argv += ["--dataset", data]
        self._refused(capsys, argv + ["--config", path], key)
        assert not list(tmp_path.rglob("network.json"))
        assert not list(tmp_path.rglob("prune_log.jsonl"))

    @pytest.mark.parametrize("config, message", [
        ({"outdir": "run"}, "unknown config key 'outdir'"),
        ({"train": {"lr": 0.3}}, "unknown config key 'lr' in 'train'"),
        ({"stages": [{"problem": "synapse-removal", "acc_epochs": 3}]},
         "unknown config key 'acc_epochs' in 'stages'"),
        ({"train": {"rng_seed": 7}}, "unknown config key 'rng_seed' in 'train'"),
        ({"train": 5}, "'train' must be an object, not 5"),
    ], ids=["top-level", "section", "stage", "section-extra", "section-not-object"])
    def test_unknown_keys(self, tmp_path, capsys, config, message):
        """Each command refuses the file, even where it would not read it."""
        path = write(tmp_path / "run.json", json.dumps(config))
        for argv in (["train", "--dataset", xor_csv(tmp_path), "--arch", "2,4,1"],
                     ["prune", "--network", untrained_network(tmp_path),
                      "--dataset", xor_csv(tmp_path), "--problem", "synapse-removal"]):
            assert main(argv + ["--config", path, "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0] == f"error: {message}"
        assert not (tmp_path / "out").exists()

    def test_integers_serve_as_numbers_and_flags_keep_their_types(self, tmp_path, capsys):
        path = write(tmp_path / "run.json", json.dumps({
            "train": {"learning_rate": 1, "momentum": 0, "max_epochs": 5000,
                      "loss_threshold": 0},
            "loss": {"kind": "mse", "margin_width": 1}}))
        assert main(["train", "--dataset", xor_csv(tmp_path), "--arch", "2,6,1",
                     "--config", path, "--lr", "0.3", "--momentum", "0.9", "--epochs",
                     "5000", "--seed", "1", "--out", str(tmp_path / "out")]) == 0
        net = str(tmp_path / "out" / "network.json")
        for m in ("2", "+2", " 2"):  # every spelling int() reads
            assert main(["prune", "--network", net, "--dataset", xor_csv(tmp_path),
                         "--problem", "synapse-removal", "--initial-m", m,
                         "--acc-epochs", "1", "--lr", "0.3", "--epochs", "50",
                         "--out", str(tmp_path / "pruned")]) == 0
        capsys.readouterr()
        for m in ("two", "2.5", "\u00b2", "--3"):
            assert main(["prune", "--network", net, "--dataset", xor_csv(tmp_path),
                         "--problem", "synapse-removal", f"--initial-m={m}",
                         "--out", str(tmp_path / "refused")]) == 1
            assert "'initial_m' must be an integer" in capsys.readouterr().err


class TestStageFromFlagsOrFile:
    """``prune --problem`` and its stage flags make the same stage as the
    config file's stage object with the same keys."""

    def test_flags_and_file_make_the_same_stage(self, tmp_path, capsys):
        data, out = trained_xor(tmp_path)
        retrain = ["--lr", "0.05", "--epochs", "200"]
        flags = ["--problem", "precision-reduction", "--valid-set", "-1,0,1",
                 "--mode", "max", "--acc-epochs", "2", "--loop", "accelerated",
                 "--initial-m", "2"]
        stage = {"problem": "precision-reduction", "valid_set": [-1, 0, 1], "mode": "max",
                 "accumulation_epochs": 2, "loop": "accelerated", "initial_m": 2}
        config = write(tmp_path / "run.json", json.dumps({"stages": [stage]}))
        outputs = []
        for k, extra in enumerate((flags, ["--config", config])):
            dest = tmp_path / f"pruned{k}"
            assert main(["prune", "--network", str(out / "network.json"), "--dataset", data,
                         *retrain, *extra, "--out", str(dest)]) == 0
            outputs.append(((dest / "network.json").read_bytes(),
                            (dest / "prune_log.jsonl").read_bytes()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][1].splitlines()[0])["M"] == 2


class TestValidSetSpelling:
    """``--valid-set -1,0,1`` as documented, and ``--valid-set=-1,0,1``,
    give the same run."""

    def test_prune(self, tmp_path, capsys):
        data, out = trained_xor(tmp_path)
        outputs = []
        for k, flag in enumerate((["--valid-set", "-1,0,1"], ["--valid-set=-1,0,1"])):
            dest = out / f"ternary{k}"
            assert main(["prune", "--network", str(out / "network.json"),
                         "--dataset", data, "--problem", "precision-reduction",
                         *flag, "--loop", "basic", "--acc-epochs", "2",
                         "--lr", "0.05", "--epochs", "200", "--out", str(dest)]) == 0
            outputs.append(((dest / "network.json").read_bytes(),
                            (dest / "prune_log.jsonl").read_bytes()))
        assert outputs[0] == outputs[1]
        net = Network.load(out / "ternary0" / "network.json")
        frozen = [w for _, w, trainable in net.iter_weights() if not trainable]
        assert frozen and set(frozen) <= {-1.0, 0.0, 1.0}

    def test_indicators(self, tmp_path, capsys):
        data, out = trained_xor(tmp_path)
        tables = []
        for k, flag in enumerate((["--valid-set", "-1,0,1"], ["--valid-set=-1,0,1"],
                                  [])):
            dest = out / f"indicators{k}"
            assert main(["indicators", "--network", str(out / "network.json"),
                         "--dataset", data, "--element-class", "weight", *flag,
                         "--acc-epochs", "2", "--out", str(dest)]) == 0
            tables.append((dest / "indicators.csv").read_bytes())
        assert tables[0] == tables[1]
        assert tables[0] != tables[2]  # the default valid set is {0}


class TestVerbalizeCompareEval:
    def test_verbalize_refuses_trainable_network(self, tmp_path, capsys):
        data = xor_csv(tmp_path)
        out = tmp_path / "run"
        main(["train", "--dataset", data, "--arch", "2,4,1",
              "--labels", "pos,neg", "--lr", "0.3", "--momentum", "0.9",
              "--epochs", "5000", "--seed", "3", "--out", str(out)])
        code = main(["verbalize", "--network", str(out / "network.json"),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "violation:" in err and "trainable" in err

    def test_verbalize_ternary_network(self, tmp_path, capsys):

        net = single_question_rule_network()
        net_path = tmp_path / "rule_net.json"
        net.save(net_path)
        names = ",".join(f"q{k}" for k in range(1, 13))
        code = main(["verbalize", "--network", str(net_path),
                     "--feature-names", names, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "transparent=false" in out  # five inputs exceed readable fan-in
        rules = RuleSet.load(tmp_path / "rules.json")
        assert rules.rules[0].k == 2
        text = (tmp_path / "rules.txt").read_text()
        assert "at least 2" in text

    @pytest.mark.parametrize("names", ["a,b,c", "a"])
    def test_verbalize_refuses_a_feature_name_count_off_the_inputs(
            self, tmp_path, capsys, names):
        net = single_neuron_net([1.0, -1.0], 0.0)  # two inputs
        net.save(tmp_path / "net.json")
        code = main(["verbalize", "--network", str(tmp_path / "net.json"),
                     "--feature-names", names, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "feature names for a network of 2 inputs" in err[0]
        assert not (tmp_path / "out" / "rules.json").exists()
        assert not (tmp_path / "out" / "rules.txt").exists()

    def test_compare_fixture_files(self, tmp_path, capsys):
        assert main(["export-fixtures", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        code = main(["compare", "--rules1", str(tmp_path / "a1.json"),
                     "--rules2", str(tmp_path / "a2.json"),
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "agree=98 r1P_r2O=19 r1O_r2P=11"
        with open(tmp_path / "disagreements.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-2:] == ["r1_class", "r2_class"]
        assert len(rows) == 31  # header + 30 disagreements

    def test_compare_refuses_three_classes(self, tmp_path, capsys):
        # on a = +1 one says X and the other P; neither ever says O
        paths = []
        for when_a, otherwise in (("X", "P"), ("P", "X")):
            doc = valid_rules_doc()
            doc["class_labels"] = ["P", "O", "X"]
            doc["rules"].append({"name": "no", "k": 1, "statements": [
                {"feature": "a", "affirmed": False}]})
            doc["output_rules"] = [{"label": when_a, "rule": "out"},
                                   {"label": otherwise, "rule": "no"}]
            paths.append(write(tmp_path / f"{when_a}.json", json.dumps(doc)))
        code = main(["compare", "--rules1", paths[0], "--rules2", paths[1],
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "['P', 'O', 'X']" in err[0]
        assert not (tmp_path / "out" / "disagreements.csv").exists()

    def test_export_fixtures_writes_packaged_files(self, tmp_path, capsys):
        assert main(["export-fixtures", "--out", str(tmp_path)]) == 0
        for name in ("a1.json", "a2.json"):
            packaged = (importlib.resources.files("lucidnet") / "fixtures" / name
                        ).read_bytes()
            assert (tmp_path / name).read_bytes() == packaged

    def test_eval_ruleset_consistent_dataset(self, tmp_path, capsys):
        a1, _ = fixtures_A1_A2()
        rules_path = tmp_path / "a1.json"
        a1.save(rules_path)
        # build a dataset labelled by A1 itself
        from lucidnet import evaluate_rules

        rows = []
        labels = []
        names = a1.attribute_universe
        rng = np.random.default_rng(0)
        for _ in range(12):
            bits = rng.choice([-1.0, 1.0], size=len(names))
            rows.append(bits)
            labels.append(evaluate_rules(a1, dict(zip(names, bits))))
        ds = make_dataset(rows, labels, class_labels=["P", "O"], names=names)
        data_path = tmp_path / "a1_data.csv"
        save_dataset(ds, data_path)
        code = main(["eval", "--rules", str(rules_path),
                     "--dataset", str(data_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "accuracy=1.0"

    def test_eval_network(self, tmp_path, capsys):
        data = xor_csv(tmp_path)
        out = tmp_path / "run"
        main(["train", "--dataset", data, "--arch", "2,6,1",
              "--labels", "pos,neg", "--lr", "0.3", "--momentum", "0.9",
              "--epochs", "5000", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        code = main(["eval", "--network", str(out / "network.json"),
                     "--dataset", data])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "accuracy=1.0"
        assert lines[1].startswith("sample=0 predicted=")

    def test_eval_requires_exactly_one_model(self, tmp_path, capsys):
        data = xor_csv(tmp_path)
        assert main(["eval", "--dataset", data]) == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["eval", "--rules", str(tmp_path / "nope.json"),
                     "--dataset", str(tmp_path / "nope.csv")]) == 2

    def test_usage_error_exit_code(self, capsys):
        assert main(["frobnicate"]) == 1


def valid_rules_doc():
    return {
        "class_labels": ["P", "O"],
        "rules": [
            {"name": "s", "k": 1,
             "statements": [{"feature": "a", "affirmed": True}]},
            {"name": "out", "k": 1,
             "statements": [{"rule": "s", "affirmed": True}]},
        ],
        "output_rules": [{"label": "O", "rule": "out"}],
    }


def _set(path, value):
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _duplicate_first_rule(doc):
    doc["rules"].insert(1, json.loads(json.dumps(doc["rules"][0])))


def _cite_later_rule(doc):
    doc["rules"][0]["statements"].append({"rule": "out", "affirmed": True})


MALFORMED_RULE_SETS = [
    ("undefined-rule", _set(("rules", 1, "statements", 0, "rule"), "nope"),
     "'nope', which is not a rule defined before it"),
    ("feature-and-rule", _set(("rules", 1, "statements", 0, "feature"), "a"),
     "exactly one of 'feature' or 'rule'"),
    ("output-rule-missing", _set(("output_rules", 0, "rule"), "nope"),
     "unknown rule 'nope'"),
    ("no-output-rules", lambda doc: doc.pop("output_rules"),
     "'output_rules' must be a list"),
    ("non-bool-affirmed", _set(("rules", 0, "statements", 0, "affirmed"), 1),
     "'affirmed' must be true or false"),
    ("non-integer-k", _set(("rules", 0, "k"), 1.5), "'k' must be an integer"),
    ("duplicate-name", _duplicate_first_rule, "rule 's' is defined twice"),
    ("self-citation", _set(("rules", 1, "statements", 0, "rule"), "out"),
     "'out', which is not a rule defined before it"),
    ("later-rule", _cite_later_rule,
     "'out', which is not a rule defined before it"),
    ("unknown-output-label", _set(("output_rules", 0, "label"), "X"),
     "output label 'X' is not a class label"),
    ("duplicate-class-label", _set(("class_labels",), ["O", "O"]),
     "'class_labels' must be distinct strings"),
    ("one-class-label", _set(("class_labels",), ["O"]),
     "'class_labels' needs at least two classes"),
    ("class-with-two-output-rules",
     lambda doc: doc["output_rules"].append({"label": "O", "rule": "s"}),
     "class 'O' has two output rules"),
    ("non-string-feature-text", _set(("feature_texts",), {"a": [1, 2]}),
     "'feature_texts' must map each feature to a pair of sentences"),
]


class TestMalformedRuleSets:
    """Each malformed rule-set document is a data error (exit 2) with one
    ``error:`` line, from both commands that load rule sets."""

    @pytest.mark.parametrize("command", ["compare", "eval"])
    @pytest.mark.parametrize(
        "edit, message",
        [case[1:] for case in MALFORMED_RULE_SETS],
        ids=[case[0] for case in MALFORMED_RULE_SETS],
    )
    def test_exit_code_two(self, tmp_path, capsys, command, edit, message):
        doc = valid_rules_doc()
        edit(doc)
        bad = write(tmp_path / "bad.json", json.dumps(doc))
        good = write(tmp_path / "good.json", json.dumps(valid_rules_doc()))
        if command == "compare":
            argv = ["compare", "--rules1", good, "--rules2", bad,
                    "--out", str(tmp_path)]
        else:
            data = write(tmp_path / "d.csv", "a,class\n1,O\n-1,P\n")
            argv = ["eval", "--rules", bad, "--dataset", data]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: rule set: ")
        assert message in err[0]

    def test_valid_document_loads(self, tmp_path, capsys):
        good = write(tmp_path / "good.json", json.dumps(valid_rules_doc()))
        data = write(tmp_path / "d.csv", "a,class\n1,O\n-1,P\n")
        assert main(["eval", "--rules", good, "--dataset", data]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "accuracy=1.0"


def valid_network_doc():
    """2 features -> 2 hidden tanh neurons -> 1 output, with a skip
    connection from feature 1 into the output."""
    def neuron(synapses):
        return {
            "bias": {"w": 0.25, "trainable": True},
            "synapses": [
                {"src_layer": sl, "src_index": si, "w": w, "trainable": True}
                for sl, si, w in synapses
            ],
            "activation": "tanh",
        }

    return {
        "input_dim": 2,
        "active_inputs": [True, True],
        "layers": [
            [neuron([(0, 0, 0.5), (0, 1, -0.5)]), neuron([(0, 1, 1.0)])],
            [neuron([(1, 0, 1.0), (1, 1, -1.0), (0, 1, 0.5)])],
        ],
        "output_labels": ["pos", "neg"],
    }


def _network_set(*path_and_value):
    *path, value = path_and_value
    return _set(tuple(path), value)


def _duplicate_source(doc):
    first = doc["layers"][1][0]["synapses"][0]
    doc["layers"][1][0]["synapses"].append(dict(first))


MALFORMED_NETWORKS = [
    ("layers-only", lambda doc: (doc.clear(), doc.update(layers=[])),
     "'input_dim' must be a nonnegative integer"),
    ("no-layers", lambda doc: doc.update(layers=[]), "'layers' must be a nonempty list"),
    ("empty-output-layer", _network_set("layers", 1, []), "the output layer has no neurons"),
    ("missing-input-dim", lambda doc: doc.pop("input_dim"),
     "'input_dim' must be a nonnegative integer"),
    ("own-layer-source", _network_set("layers", 1, 0, "synapses", 0, "src_layer", 2),
     "source layer 2 is not an earlier layer"),
    ("duplicate-source", _duplicate_source, "two synapses read source 1:0"),
    ("index-out-of-range", _network_set("layers", 1, 0, "synapses", 1, "src_index", 2),
     "source index 2 is out of range for layer 1"),
    ("unknown-activation", _network_set("layers", 0, 1, "activation", "relu"),
     "unknown activation 'relu'"),
    ("non-finite-weight", _network_set("layers", 0, 0, "synapses", 0, "w", float("nan")),
     "weight nan is not a finite number"),
    ("non-numeric-weight", _network_set("layers", 0, 0, "bias", "w", "0.5"),
     "weight '0.5' is not a finite number"),
    ("non-bool-trainable", _network_set("layers", 1, 0, "bias", "trainable", 1),
     "'trainable' must be true or false"),
    ("active-inputs-length", _network_set("active_inputs", [True]),
     "'active_inputs' must be a list of 2 booleans"),
    ("label-count", _network_set("output_labels", ["pos", "neg", "odd"]),
     "exactly two class labels"),
    ("duplicate-labels", _network_set("output_labels", ["pos", "pos"]),
     "repeat a label"),
    ("masked-source", _network_set("active_inputs", [True, False]),
     "sources a masked feature"),
]


class TestMalformedNetworks:
    """Each malformed network document is a data error (exit 2) with one
    ``error: network:`` line, never a traceback."""

    @pytest.mark.parametrize(
        "edit, message",
        [case[1:] for case in MALFORMED_NETWORKS],
        ids=[case[0] for case in MALFORMED_NETWORKS],
    )
    def test_exit_code_two(self, tmp_path, capsys, edit, message):
        doc = valid_network_doc()
        edit(doc)
        bad = write(tmp_path / "bad.json", json.dumps(doc))
        data = xor_csv(tmp_path)
        assert main(["eval", "--network", bad, "--dataset", data]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: network: ")
        assert message in err[0]

    def test_valid_document_loads(self, tmp_path, capsys):
        doc = valid_network_doc()
        good = write(tmp_path / "good.json", json.dumps(doc))
        assert main(["eval", "--network", good, "--dataset", xor_csv(tmp_path)]) == 0
        assert Network.load(good).to_doc() == doc


class TestElectionSchema:
    def test_twelve_questions(self):
        assert len(ELECTION_FEATURE_NAMES) == 12
        assert ELECTION_FEATURE_NAMES[0] == "q1"

    def test_template_export(self, tmp_path, capsys):
        assert main(["export-fixtures", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "election_template.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ELECTION_FEATURE_NAMES + ["class"]


class TestRoundTrips:
    def test_network_save_load_preserves_semantics(self, tmp_path):
        from lucidnet import build_network
        from sample_reference import forward

        source = build_network((4, 3, 2), seed=31)
        path = tmp_path / "net.json"
        source.save(path)
        again = Network.load(path)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.choice([-1.0, 1.0], size=4)
            assert np.array_equal(forward(source, x).outputs,
                                  forward(again, x).outputs)

    def test_ruleset_save_load_preserves_evaluations(self, tmp_path):
        from lucidnet import evaluate_rules

        a1, _ = fixtures_A1_A2()
        path = tmp_path / "r.json"
        a1.save(path)
        again = RuleSet.load(path)
        import itertools

        for bits in itertools.product((-1, 1), repeat=5):
            assignment = dict(zip(a1.attribute_universe, bits))
            assert evaluate_rules(again, assignment) == (
                evaluate_rules(a1, assignment)
            )


class TestUnreadableInput:
    """An input file that is not UTF-8 text, or a directory given as a
    file, is a data error (exit 2) with one ``error:`` line."""

    @pytest.mark.parametrize("case, message", [
        ("eval-dataset", "cannot decode"),
        ("verbalize-network", "cannot decode"),
        ("compare-rules1", "cannot decode"),
        ("dataset-directory", "Is a directory"),
    ])
    def test_exit_code_two(self, tmp_path, capsys, case, message):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b'{"\xff\xfe": 1}\na,class\n\xff,P\n')
        good = write(tmp_path / "good.json", json.dumps(valid_rules_doc()))
        argv = {
            "eval-dataset": ["eval", "--rules", good, "--dataset", str(bad)],
            "verbalize-network": ["verbalize", "--network", str(bad),
                                  "--out", str(tmp_path)],
            "compare-rules1": ["compare", "--rules1", str(bad), "--rules2", good,
                               "--out", str(tmp_path)],
            "dataset-directory": ["eval", "--rules", good,
                                  "--dataset", str(tmp_path)],
        }[case]
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert message in err[0]
        assert captured.out == ""


class TestVerbalizeTexts:
    """``verbalize --texts`` reads an object mapping each feature to a pair
    of sentences; any other document is a data error (exit 2) with one
    ``error:`` line and no rules written."""

    @staticmethod
    def _run(tmp_path, texts):

        net_path = tmp_path / "rule_net.json"
        single_question_rule_network().save(net_path)
        texts_path = write(tmp_path / "texts.json", json.dumps(texts))
        names = ",".join(f"q{k}" for k in range(1, 13))
        return main(["verbalize", "--network", str(net_path), "--feature-names",
                     names, "--texts", texts_path, "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("texts", [
        [1, 2], "q1", None, {"q1": 5}, {"q1": "ab"}, {"q1": ["only one"]},
        {"q1": ["yes", "no", "maybe"]}, {"q1": ["yes", 2]},
    ], ids=["list", "string", "null", "number", "string-pair", "one-sentence",
            "three-sentences", "non-string"])
    def test_malformed_document(self, tmp_path, capsys, texts):
        assert self._run(tmp_path, texts) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "pair of sentences" in err[0]
        assert not (tmp_path / "out" / "rules.json").exists()

    def test_sentence_pairs_reach_the_rules(self, tmp_path, capsys):
        texts = {"q1": ["Q1 holds", "Q1 fails"], "q9": ["Q9 holds", "Q9 fails"]}
        assert self._run(tmp_path, texts) == 0
        rules = RuleSet.load(tmp_path / "out" / "rules.json")
        assert rules.feature_texts == {k: tuple(v) for k, v in texts.items()}


class TestParserReuse:
    """``main`` builds its parser on the first call and reuses it; no call
    leaves anything behind for the next one."""

    def test_not_built_at_import(self):
        code = ("import lucidnet.cli as cli; "
                "print(cli.build_parser.cache_info().currsize)")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(lucidnet.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True)
        assert done.stdout.strip() == "0"

    def test_built_once(self, capsys):
        main(["frobnicate"])
        first = build_parser()
        main(["frobnicate"])
        assert build_parser() is first

    def test_left_out_option_takes_its_default_again(self, tmp_path, capsys):
        data, out = trained_xor(tmp_path)

        def prune_log(name, *extra):
            assert main(["prune", "--network", str(out / "network.json"),
                         "--dataset", data, "--problem", "synapse-removal",
                         "--loop", "basic", "--acc-epochs", "3", "--lr", "0.3",
                         "--momentum", "0.9", "--epochs", "200",
                         "--out", str(tmp_path / name), *extra]) == 0
            return (tmp_path / name / "prune_log.jsonl").read_text()

        with_max = prune_log("max", "--mode", "max")
        after_max = prune_log("after-max")
        build_parser.cache_clear()
        fresh = prune_log("fresh")
        assert after_max == fresh
        assert with_max != fresh  # so a leaked --mode max would show

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        data = write(tmp_path / "d.csv", "a,class\n1,O\n-1,P\n")
        rules = write(tmp_path / "good.json", json.dumps(valid_rules_doc()))
        # --network is parsed before the unknown flag fails the call
        assert main(["eval", "--network", rules, "--dataset", data,
                     "--bogus"]) == 1
        capsys.readouterr()
        assert main(["eval", "--rules", rules, "--dataset", data]) == 0
        reused = capsys.readouterr()
        build_parser.cache_clear()
        assert main(["eval", "--rules", rules, "--dataset", data]) == 0
        assert capsys.readouterr() == reused


class TestReadmeConfig:
    """The README's config example runs, and its key table is OPTIONS."""

    @staticmethod
    def _section():
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text[text.index("### Config files"):]
        return section[:section.index("\n## ")]

    def test_example_runs_train_then_prune(self, tmp_path, capsys):
        config = json.loads(re.search(r"```json\n(.*?)```", self._section(), re.S)[1])
        config.update(dataset=xor_csv(tmp_path), output_dir=str(tmp_path / "run"))
        path = write(tmp_path / "run.json", json.dumps(config))
        assert main(["train", "--config", path]) == 0
        net = str(tmp_path / "run" / "network.json")
        assert main(["prune", "--config", path, "--network", net,
                     "--out", str(tmp_path / "run" / "pruned")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines if line.startswith("stage=")] == [
            f"problem={stage['problem']}" for stage in config["stages"]]

    def test_key_table_is_the_option_table(self):
        rows = {}
        for line in self._section().splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if len(cells) != 5 or not cells[1].startswith("`"):
                continue
            sections, keys, json_type, _, default = cells
            for section in sections.split(", "):
                for key in keys.split(", "):
                    rows[None if section == "top level" else section.strip("`"),
                         key.strip("`")] = (json_type, default)
        assert rows.keys() == OPTIONS.keys()
        for option, (json_type, default) in OPTIONS.items():
            doc_type, doc_default = rows[option]
            assert doc_type == json_type.name.split(" ", 1)[1], option
            if default is REQUIRED:
                assert doc_default.startswith("required"), option
            elif default is not None:
                assert doc_default == f"`{json.dumps(default)}`", option
