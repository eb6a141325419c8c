"""``tools/decision_diff.py`` compares two prune logs on what each step
decided and ignores the loss and the network digests."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "decision_diff.py"
_spec = importlib.util.spec_from_file_location("decision_diff", TOOL)
decision_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(decision_diff)

RECORD = {"step": 0, "M": 2, "refs": ["0:1"], "accepted": True, "loss": 0.5,
          "epochs_used": 3, "staleness": 0, "cascade": ["1:0:1"], "pool_size": 4,
          "save_hash": "aaaa", "net_hash_after": "bbbb"}


def log(tmp_path, name, *records):
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_loss_and_digests_are_ignored(tmp_path, capsys):
    other = dict(RECORD, loss=0.25, save_hash="cccc", net_hash_after="dddd")
    a = log(tmp_path, "a", RECORD, dict(RECORD, step=1))
    b = log(tmp_path, "b", other, dict(other, step=1))
    assert decision_diff.main([a, b]) == 0
    assert capsys.readouterr().out == "same decisions in 2 records\n"


@pytest.mark.parametrize("field, value", [
    ("refs", ["0:2"]), ("accepted", False), ("M", 1), ("epochs_used", 4),
    ("staleness", 1), ("cascade", []), ("pool_size", 3), ("reason", "diverged"),
])
def test_each_decision_field_counts(tmp_path, capsys, field, value):
    a = log(tmp_path, "a", RECORD, RECORD)
    b = log(tmp_path, "b", RECORD, dict(RECORD, **{field: value}))
    assert decision_diff.main([a, b]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"record 1 differs in {field}"
    assert [json.loads(line.split(": ", 1)[1])[field] for line in out[1:]] == \
        [RECORD.get(field), value]


def test_a_missing_record_differs(tmp_path, capsys):
    a = log(tmp_path, "a", RECORD)
    b = log(tmp_path, "b", RECORD, RECORD)
    assert decision_diff.main([a, b]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("record 1 differs in refs, accepted")
    assert out[1] == f"{a}: null"


def test_unreadable_input_is_exit_two(tmp_path, capsys):
    a = log(tmp_path, "a", RECORD)
    bad = tmp_path / "bad"
    bad.write_text("[1, 2]\n")
    assert decision_diff.main([a, str(tmp_path / "missing")]) == 2
    assert decision_diff.main([a, str(bad)]) == 2
    assert decision_diff.main([a]) == 2


def test_runs_as_a_script(tmp_path):
    a = log(tmp_path, "a", RECORD)
    b = log(tmp_path, "b", dict(RECORD, accepted=False))
    run = subprocess.run([sys.executable, str(TOOL), a, b], capture_output=True,
                         text=True)
    assert run.returncode == 1
    assert run.stdout.startswith("record 0 differs in accepted\n")


def output_dir(root, log_records, network="{}", rules=None, indicators=""):
    """An output tree: one stage directory with a log, a network and an
    indicators file, which is not compared, and a rules directory when
    ``rules`` is given."""
    stage = root / "net0" / "stage0"
    stage.mkdir(parents=True)
    log(stage, "prune_log.jsonl", *log_records)
    (stage / "network.json").write_text(network)
    (stage / "indicators.csv").write_text(indicators)
    if rules is not None:
        (root / "net0" / "rules").mkdir()
        (root / "net0" / "rules" / "rules.json").write_text(rules)
    return str(root)


class TestDirectories:
    def test_alike_trees_compare_equal(self, tmp_path, capsys):
        other = dict(RECORD, loss=0.25, save_hash="cccc", net_hash_after="dddd")
        a = output_dir(tmp_path / "a", [RECORD], rules="[1]")
        b = output_dir(tmp_path / "b", [other], rules="[1]", indicators="x")
        assert decision_diff.main([a, b]) == 0
        assert capsys.readouterr().out == \
            "same decisions in 1 logs and same bytes in 2 files\n"

    def test_every_difference_is_listed(self, tmp_path, capsys):
        a = output_dir(tmp_path / "a", [RECORD], network='{"w":1}', rules="[1]")
        b = output_dir(tmp_path / "b", [dict(RECORD, accepted=False)],
                       network='{"w":2}')
        extra = tmp_path / "b" / "net1"
        extra.mkdir()
        log(extra, "prune_log.jsonl", RECORD)
        assert decision_diff.main([a, b]) == 1
        out = capsys.readouterr().out.splitlines()
        logs = [tmp_path / side / "net0" / "stage0" / "prune_log.jsonl" for side in "ab"]
        first = [json.dumps(decision_diff.decisions(path)[0], sort_keys=True)
                 for path in logs]
        assert out == [
            f"net0/rules/rules.json: only in {a}",
            "net0/stage0/network.json: bytes differ",
            "net0/stage0/prune_log.jsonl: record 0 differs in accepted",
            f"net0/stage0/prune_log.jsonl: {logs[0]}: {first[0]}",
            f"net0/stage0/prune_log.jsonl: {logs[1]}: {first[1]}",
            f"net1/prune_log.jsonl: only in {b}",
        ]
        assert '"accepted": false' in out[4]

    def test_a_file_and_a_directory_or_a_bad_log_is_exit_two(self, tmp_path, capsys):
        a = output_dir(tmp_path / "a", [RECORD])
        b = output_dir(tmp_path / "b", [RECORD])
        assert decision_diff.main([a, log(tmp_path, "c", RECORD)]) == 2
        (tmp_path / "b" / "net0" / "stage0" / "prune_log.jsonl").write_text("[1]\n")
        assert decision_diff.main([a, b]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_runs_on_directories_as_a_script(self, tmp_path):
        a = output_dir(tmp_path / "a", [RECORD])
        b = output_dir(tmp_path / "b", [RECORD], network="[]")
        run = subprocess.run([sys.executable, str(TOOL), a, b], capture_output=True,
                             text=True)
        assert run.returncode == 1
        assert run.stdout == "net0/stage0/network.json: bytes differ\n"
