"""Compare the pruning decisions of two ``prune_log.jsonl`` files.

    python3 tools/decision_diff.py A B

Records are compared in order on the fields that say what a step decided:
``refs``, ``accepted``, ``M``, ``epochs_used``, ``staleness``, ``cascade``,
``pool_size`` and ``reason``.  ``loss``, ``save_hash`` and
``net_hash_after`` are left out, so two runs whose floating-point sums are
ordered differently but decide alike compare equal.  Exit status: 0 when
every record decides alike, 1 when one differs or a file has more records
(the first such record is printed), 2 when a file cannot be read.
"""

from __future__ import annotations

import json
import sys

DECISION_FIELDS = ("refs", "accepted", "M", "epochs_used", "staleness",
                   "cascade", "pool_size", "reason")


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


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: decision_diff.py A B", file=sys.stderr)
        return 2
    try:
        a, b = (decisions(path) for path in argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = first_difference(a, b)
    if diff is None:
        print(f"same decisions in {len(a)} records")
        return 0
    i, left, right = diff
    fields = [key for key in DECISION_FIELDS
              if left is None or right is None or left[key] != right[key]]
    print(f"record {i} differs in {', '.join(fields)}")
    for path, record in zip(argv, (left, right)):
        print(f"{path}: {json.dumps(record, sort_keys=True)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
