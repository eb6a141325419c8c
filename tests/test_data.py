"""The CSV loader against a per-cell reference loop."""

import csv
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucidnet import Dataset, DatasetError, load_dataset
from lucidnet.data import _CELL_VALUES


def reference_load(path):
    """The loader as a plain loop: each cell parsed on its own, each row's
    width checked before its cells."""
    def parse(text, row, column):
        value = _CELL_VALUES.get(text.strip().lower())
        if value is None:
            raise DatasetError(
                f"row {row}, column {column!r}: cell {text.strip()!r} is not one of "
                "-1, 1, yes, no"
            )
        return value

    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise DatasetError(f"{path}: empty dataset file")
    header = [h.strip() for h in rows[0]]
    if len(header) < 2 or header[-1].lower() != "class":
        raise DatasetError(f"{path}: header must end with a 'class' column")
    feature_names = header[:-1]
    features, labels = [], []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DatasetError(
                f"row {r}: expected {len(header)} cells, found {len(row)}"
            )
        features.append([parse(cell, r, feature_names[c])
                         for c, cell in enumerate(row[:-1])])
        labels.append(row[-1].strip())
    if not features:
        raise DatasetError(f"{path}: no data rows")
    class_labels = []
    for lab in labels:
        if lab not in class_labels:
            class_labels.append(lab)
    return Dataset(feature_names, np.array(features), labels, class_labels)


def _case_variants(word):
    return sorted({"".join(chars) for chars in itertools.product(
        *[(ch.lower(), ch.upper()) for ch in word])})


# every accepted spelling in every mix of case, with 0-2 spaces either side
SPELLINGS = st.sampled_from([
    left + variant + right
    for word in ("1", "+1", "-1", "yes", "no")
    for variant in _case_variants(word)
    for left in ("", " ", "  ") for right in ("", " ", "  ")
])


@st.composite
def csv_texts(draw):
    """Header plus rows with blank lines between them, at most one ragged
    row and at most one bad cell, each placed at random."""
    width = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 8))
    last = max(n_rows - 1, 0)
    ragged = draw(st.none() | st.integers(0, last))
    bad = draw(st.none() | st.tuples(st.integers(0, last), st.integers(0, width)))
    lines = [",".join([f"f{k}" for k in range(width)] + ["class"])]
    for i in range(n_rows):
        lines.extend([""] * draw(st.integers(0, 2)))
        n = width + (draw(st.sampled_from([-1, 1])) if i == ragged else 0)
        cells = draw(st.lists(SPELLINGS, min_size=n, max_size=n))
        if bad is not None and bad[0] == i and bad[1] < n:
            cells[bad[1]] = draw(st.sampled_from(["maybe", " 2 ", "", "y es", "0"]))
        lines.append(",".join(cells + [draw(st.sampled_from(["P", " O", "x "]))]))
    return "\n".join(lines) + "\n"


def outcome(loader, path):
    try:
        ds = loader(path)
    except DatasetError as exc:
        return ("error", str(exc))
    return (ds.feature_names, ds.features.dtype, ds.features.tolist(),
            ds.labels, ds.class_labels)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


class TestDataset:
    def test_zero_rows_are_refused(self):
        # refused where a dataset is made, so no evaluation, training or
        # ledger ever meets one
        with pytest.raises(DatasetError, match="at least one row"):
            Dataset(["a", "b"], np.zeros((0, 2)), [], ["P", "O"])


class TestLoaderMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts())
    def test_same_dataset_or_same_error(self, csv_dir, text):
        path = csv_dir / "d.csv"
        path.write_text(text)
        assert outcome(load_dataset, path) == outcome(reference_load, path)

    @pytest.mark.parametrize("loader", [load_dataset, reference_load])
    @pytest.mark.parametrize("text, message", [
        # the blank line is not counted: the bad cell is on row 3
        ("a,b,class\n1,1,P\n\n1,maybe,P\n1,P\n",
         "row 3, column 'b': cell 'maybe' is not one of -1, 1, yes, no"),
        ("a,b,class\n1,1,P\n1,maybe\n1,maybe,P\n",
         "row 3: expected 3 cells, found 2"),
    ], ids=["bad-cell-first", "ragged-row-first"])
    def test_first_problem_in_file_order(self, tmp_path, loader, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DatasetError) as info:
            loader(str(path))
        assert str(info.value) == message

    @pytest.mark.parametrize("loader", [load_dataset, reference_load])
    def test_repeated_feature_name(self, tmp_path, loader):
        path = tmp_path / "d.csv"
        path.write_text("a,b,a,class\n1,1,-1,P\n")
        with pytest.raises(DatasetError) as info:
            loader(str(path))
        assert str(info.value) == "feature name 'a' is repeated"
