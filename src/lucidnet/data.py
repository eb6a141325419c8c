"""Datasets of ±1-coded binary features with class labels.

CSV layout: a header row of distinct feature names and a final "class" column.
Feature cells accept -1, 1, +1, yes, or no (yes maps to +1, no to -1).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain

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
        if self.features.shape[0] == 0:
            raise DatasetError("a dataset needs at least one row")
        if self.features.shape[1] != len(self.feature_names):
            raise DatasetError("feature width does not match feature names")
        names = self.feature_names
        if len(set(names)) != len(names):
            repeated = next(n for i, n in enumerate(names) if n in names[:i])
            raise DatasetError(f"feature name {repeated!r} is repeated")
        if self.features.shape[0] != len(self.labels):
            raise DatasetError("one label per sample required")
        if not np.isin(self.features, (-1.0, 1.0)).all():
            raise DatasetError("binary features must be coded as -1 or +1")
        # each row's index in class_labels, encoded once per dataset
        index = {lab: i for i, lab in enumerate(self.class_labels)}
        codes = [index.get(lab, -1) for lab in self.labels]
        if -1 in codes:
            raise DatasetError(f"label {self.labels[codes.index(-1)]!r} "
                               "not among class labels")
        self.label_codes = np.array(codes, dtype=int)

    def __len__(self):
        return len(self.labels)


_CELL_VALUES = {"1": 1.0, "+1": 1.0, "-1": -1.0, "yes": 1.0, "no": -1.0}


def load_dataset(path, class_labels=None) -> Dataset:
    """Read a CSV dataset; the last header column must be named 'class'.

    Blank lines are skipped and not counted in row numbers.  The first
    problem in file order is reported: a row of the wrong width, or a cell
    that is not one of the spellings in ``_CELL_VALUES`` (compared after
    stripping and lowercasing).
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise DatasetError(f"{path}: empty dataset file")
    header = [h.strip() for h in rows[0]]
    if len(header) < 2 or header[-1].lower() != "class":
        raise DatasetError(f"{path}: header must end with a 'class' column")
    feature_names = header[:-1]
    body = rows[1:]
    ragged = next((i for i, n in enumerate(map(len, body)) if n != len(header)),
                  None)
    grid = body if ragged is None else body[:ragged]
    # each distinct cell string is parsed once; a bad one becomes NaN
    cells = list(chain.from_iterable(row[:-1] for row in grid))
    value = {text: _CELL_VALUES.get(text.strip().lower(), np.nan)
             for text in set(cells)}
    features = np.fromiter(map(value.__getitem__, cells), float, len(cells))
    bad = np.flatnonzero(np.isnan(features))
    if bad.size:
        first = int(bad[0])
        r, c = divmod(first, len(feature_names))
        raise DatasetError(
            f"row {r + 2}, column {feature_names[c]!r}: cell "
            f"{cells[first].strip()!r} is not one of -1, 1, yes, no"
        )
    if ragged is not None:
        raise DatasetError(
            f"row {ragged + 2}: expected {len(header)} cells, "
            f"found {len(body[ragged])}"
        )
    if not body:
        raise DatasetError(f"{path}: no data rows")
    labels = [row[-1].strip() for row in body]
    if class_labels is None:
        class_labels = dict.fromkeys(labels)  # first-seen order
    return Dataset(feature_names, features.reshape(len(body), -1), labels,
                   list(class_labels))


def save_dataset(dataset: Dataset, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.feature_names + ["class"])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([str(int(v)) for v in row] + [label])
