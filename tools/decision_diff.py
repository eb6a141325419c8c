"""Compare the pruning decisions of two ``prune_log.jsonl`` files, or of two
output directories.

    python3 tools/decision_diff.py A B

Records are compared in order on the fields that say what a step decided:
``refs``, ``accepted``, ``M``, ``epochs_used``, ``staleness``, ``cascade``,
``pool_size`` and ``reason``.  ``loss``, ``save_hash`` and
``net_hash_after`` are left out, so two runs whose floating-point sums are
ordered differently but decide alike compare equal.

Given two directories, it pairs every ``prune_log.jsonl``, ``network.json``
and ``rules.json`` below them by relative path: the logs are compared on
their decisions and the other files byte for byte, and a file found on one
side only is a difference.  Each differing pair is listed.

Exit status: 0 when everything compared is alike, 1 when a record differs
or a file has more records (the first such record of each log is printed)
or a directory pair differs, 2 when a file cannot be read.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DECISION_FIELDS = ("refs", "accepted", "M", "epochs_used", "staleness",
                   "cascade", "pool_size", "reason")
LOG = "prune_log.jsonl"
BYTE_COMPARED = ("network.json", "rules.json")


def decisions(path):
    """The decision fields of each record of a prune log, in order."""
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if not all(isinstance(record, dict) for record in records):
        raise ValueError(f"{path}: a record is not a JSON object")
    return [{key: record.get(key) for key in DECISION_FIELDS} for record in records]


def first_difference(a, b):
    """(index, record of a or None, record of b or None) of the first record
    that differs, or None when the two lists decide alike."""
    for i in range(max(len(a), len(b))):
        left = a[i] if i < len(a) else None
        right = b[i] if i < len(b) else None
        if left != right:
            return i, left, right
    return None


def describe(diff, paths):
    """The lines that report a ``first_difference`` of the logs at ``paths``."""
    i, left, right = diff
    fields = [key for key in DECISION_FIELDS
              if left is None or right is None or left[key] != right[key]]
    return [f"record {i} differs in {', '.join(fields)}"] + [
        f"{path}: {json.dumps(record, sort_keys=True)}"
        for path, record in zip(paths, (left, right))]


def compared_files(root):
    """{relative path: path} of the logs and byte-compared files below a
    directory."""
    root = Path(root)
    return {path.relative_to(root).as_posix(): path for path in root.rglob("*")
            if path.name in (LOG, *BYTE_COMPARED) and path.is_file()}


def compare_dirs(a, b):
    """(lines reporting each difference, logs compared, files compared)."""
    left, right = compared_files(a), compared_files(b)
    lines, logs, files = [], 0, 0
    for rel in sorted(left.keys() | right.keys()):
        if rel not in right or rel not in left:
            lines.append(f"{rel}: only in {a if rel in left else b}")
        elif Path(rel).name == LOG:
            logs += 1
            diff = first_difference(decisions(left[rel]), decisions(right[rel]))
            if diff is not None:
                lines += [f"{rel}: " + line
                          for line in describe(diff, (left[rel], right[rel]))]
        else:
            files += 1
            if left[rel].read_bytes() != right[rel].read_bytes():
                lines.append(f"{rel}: bytes differ")
    return lines, logs, files


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: decision_diff.py A B", file=sys.stderr)
        return 2
    dirs = [Path(path).is_dir() for path in argv]
    try:
        if all(dirs):
            lines, logs, files = compare_dirs(*argv)
        elif any(dirs):
            raise ValueError("give two files or two directories")
        else:
            a, b = (decisions(path) for path in argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if all(dirs):
        print("\n".join(lines) if lines else
              f"same decisions in {logs} logs and same bytes in {files} files")
        return 1 if lines else 0
    diff = first_difference(a, b)
    if diff is None:
        print(f"same decisions in {len(a)} records")
        return 0
    print("\n".join(describe(diff, argv)))
    return 1


if __name__ == "__main__":
    sys.exit(main())
