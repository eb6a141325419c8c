"""Datasets of ±1-coded binary features with class labels.

CSV layout: a header row of feature names plus a final "class" column.
Feature cells accept -1, 1, +1, yes, or no (yes maps to +1, no to -1).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DatasetError

ELECTION_QUESTIONS = [
    ("q1", "Has the incumbent party been in office more than a single term?"),
    ("q2", "Did the incumbent party gain more than 50% of the vote cast in the previous election?"),
    ("q3", "Was there major third party activity during the election year?"),
    ("q4", "Was there a serious contest for the nomination of the incumbent party candidate?"),
    ("q5", "Was the incumbent party candidate the sitting president?"),
    ("q6", "Was the election year a time of recession or depression?"),
    ("q7", "Was there a growth in the gross national product of more than 2.1% in the year of the election?"),
    ("q8", "Did the incumbent president initiate major changes in national policy?"),
    ("q9", "Was there major social unrest in the nation during the incumbent administration?"),
    ("q10", "Was the incumbent administration tainted by major scandal?"),
    ("q11", "Is the incumbent party candidate charismatic or a national hero?"),
    ("q12", "Is the challenging party candidate charismatic or a national hero?"),
]

ELECTION_FEATURE_NAMES = [name for name, _ in ELECTION_QUESTIONS]
ELECTION_CLASS_LABELS = ["P", "O"]


@dataclass
class Dataset:
    feature_names: list
    features: np.ndarray
    labels: list
    class_labels: list

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2:
            raise DatasetError("features must be a 2-d array")
        if self.features.shape[1] != len(self.feature_names):
            raise DatasetError("feature width does not match feature names")
        if self.features.shape[0] != len(self.labels):
            raise DatasetError("one label per sample required")
        if not np.isin(self.features, (-1.0, 1.0)).all():
            raise DatasetError("binary features must be coded as -1 or +1")
        known = set(self.class_labels)
        for lab in self.labels:
            if lab not in known:
                raise DatasetError(f"label {lab!r} not among class labels")

    def __len__(self):
        return len(self.labels)


_CELL_VALUES = {"1": 1.0, "+1": 1.0, "-1": -1.0, "yes": 1.0, "no": -1.0}


def _parse_cell(text, row, column):
    value = _CELL_VALUES.get(text.strip().lower())
    if value is None:
        raise DatasetError(
            f"row {row}, column {column!r}: cell {text.strip()!r} is not one of "
            "-1, 1, yes, no"
        )
    return value


def load_dataset(path, class_labels=None) -> Dataset:
    """Read a CSV dataset; the last header column must be named 'class'."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise DatasetError(f"{path}: empty dataset file")
    header = [h.strip() for h in rows[0]]
    if len(header) < 2 or header[-1].lower() != "class":
        raise DatasetError(f"{path}: header must end with a 'class' column")
    feature_names = header[:-1]
    features = []
    labels = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DatasetError(
                f"row {r}: expected {len(header)} cells, found {len(row)}"
            )
        features.append(
            [_parse_cell(cell, r, feature_names[c]) for c, cell in enumerate(row[:-1])]
        )
        labels.append(row[-1].strip())
    if not features:
        raise DatasetError(f"{path}: no data rows")
    if class_labels is None:
        seen = []
        for lab in labels:
            if lab not in seen:
                seen.append(lab)
        class_labels = seen
    return Dataset(feature_names, np.array(features), labels, list(class_labels))


def save_dataset(dataset: Dataset, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.feature_names + ["class"])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([str(int(v)) for v in row] + [label])
