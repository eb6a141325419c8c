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
