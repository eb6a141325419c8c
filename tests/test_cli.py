import csv
import importlib.resources
import json

import numpy as np
import pytest

from lucidnet import DatasetError, Network, load_dataset
from lucidnet.cli import main
from lucidnet.data import ELECTION_FEATURE_NAMES, save_dataset
from lucidnet.transparency import RuleSet, fixtures_A1_A2

from conftest import majority_dataset, make_dataset


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
            # keys the CLI does not read, such as rng_seed, are ignored
            "train": {"learning_rate": 0.3, "momentum": 0.9,
                      "max_epochs": 5000, "rng_seed": 7},
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
        assert "certificate=true" in captured
        log_lines = (out / "pruned" / "prune_log.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in log_lines]
        assert all({"step", "M", "refs", "accepted", "loss", "epochs_used"}
                   <= set(r) for r in records)
        assert any(not r["accepted"] for r in records)
        pruned = Network.load(out / "pruned" / "network.json")
        assert pruned.input_dim == 2


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
        from lucidnet import single_question_rule_network

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
        from lucidnet import build_network, forward

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
