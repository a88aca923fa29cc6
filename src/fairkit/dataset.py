"""Tabular datasets, discretization grids, and (outcome, sensitive) cells.

A dataset is an immutable collection of columns with declared roles.  The
grid machinery discretizes the outcome and the sensitive attribute into
half-open cells [t_k, t_{k+1}) x [s_q, s_{q+1}); every other module consumes
the resulting cell index and the one group encoding, ``factorize``.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "DatasetError",
    "ColumnSpec",
    "TabularDataset",
    "DiscretizationGrid",
    "GroupCodes",
    "factorize",
    "parse_numbers",
    "read_table",
    "write_table",
    "write_blocks",
    "load_csv",
    "dataset_from_columns",
    "make_grid",
    "DATASET_REGISTRY",
    "describe_dataset",
]

ROLES = ("sensitive", "feature", "outcome", "task", "ignore")
OUTCOME_KINDS = ("regression", "classification")
# Largest float64 array built (`_refuse_above_cap`): a feature matrix, one-hot blocks included,
# an rbf kernel, a SEM sample's columns or a multitask quadratic (common-mean or A-step).
MAX_FEATURE_BYTES = 2**30
# Rows per CSV read or write step and per `factorize` step, which bounds the Python objects alive at once.
_BLOCK_ROWS = 512
_NEEDS_QUOTES = re.compile('[,"\r\n]')
_TEXT = np.dtypes.StringDType()


class DatasetError(ValueError):
    """Schema violation, parse failure, or invalid grid input."""


def _refuse_above_cap(error: type[Exception], what: str, rows: int, columns: int, detail: str = "") -> None:
    """Raise ``error`` for ``what``, rows x columns float64 values, above the MAX_FEATURE_BYTES cap."""
    size = rows * columns * 8
    if size > MAX_FEATURE_BYTES:
        raise error(f"{what} needs {size / 2**30:.1f} GiB, above the {MAX_FEATURE_BYTES / 2**30:g} GiB limit{detail}")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    role: str


@dataclass(frozen=True, eq=False)
class TabularDataset:
    """Validated tabular records with fixed column roles.

    ``columns`` holds canonical numeric arrays (categorical columns are
    stored as integer codes with their category list in ``categories``;
    ignored columns keep their StringDType text).  The feature matrix is
    derived lazily: when the feature columns are, in order, the columns of one
    float64 block (``load_csv`` reads numeric features into a C-order one) it
    is that block, without a copy; otherwise they are stacked, categoricals
    one-hot expanded.  The sensitive column never enters the feature block;
    callers that want it as a model input prepend it explicitly.
    """

    schema: tuple[ColumnSpec, ...]
    outcome_kind: str
    columns: Mapping[str, np.ndarray]
    categories: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        roles = [c.role for c in self.schema]
        if roles.count("sensitive") != 1:
            raise DatasetError("exactly one sensitive column is required")
        if roles.count("outcome") != 1:
            raise DatasetError("exactly one outcome column is required")
        if roles.count("task") > 1:
            raise DatasetError("at most one task column is allowed")
        if self.outcome_kind not in OUTCOME_KINDS:
            raise DatasetError(f"unknown outcome kind {self.outcome_kind!r}")
        sizes = {len(self.columns[c.name]) for c in self.schema}
        if len(sizes) != 1:
            raise DatasetError("columns must have equal length")
        if self.n_records == 0:
            raise DatasetError("dataset has no records")
        if self.outcome_kind == "classification":
            y = self.outcome
            if not set(np.unique(y)) <= {-1.0, 1.0}:
                raise DatasetError("classification outcomes must be in {-1, +1}")

    def _column_by_role(self, role: str) -> str:
        return next(c.name for c in self.schema if c.role == role)

    @property
    def n_records(self) -> int:
        return len(self.columns[self.schema[0].name])

    @property
    def sensitive_name(self) -> str:
        return self._column_by_role("sensitive")

    @property
    def outcome_name(self) -> str:
        return self._column_by_role("outcome")

    @property
    def sensitive(self) -> np.ndarray:
        return np.asarray(self.columns[self.sensitive_name], dtype=float)

    @property
    def outcome(self) -> np.ndarray:
        return np.asarray(self.columns[self.outcome_name], dtype=float)

    @property
    def task_ids(self) -> np.ndarray | None:
        names = [c.name for c in self.schema if c.role == "task"]
        if not names:
            return None
        return np.asarray(self.columns[names[0]], dtype=int)

    @cached_property
    def feature_names(self) -> tuple[str, ...]:
        names: list[str] = []
        for col in self.schema:
            if col.role != "feature":
                continue
            if col.name in self.categories:
                names.extend(f"{col.name}={c}" for c in self.categories[col.name])
            else:
                names.append(col.name)
        return tuple(names)

    @cached_property
    def features(self) -> np.ndarray:
        n, width = self.n_records, len(self.feature_names)
        coded = {c.name: len(self.categories[c.name]) for c in self.schema
                 if c.role == "feature" and c.name in self.categories}
        widest = max(coded, key=coded.get, default=None)
        _refuse_above_cap(DatasetError, f"feature matrix of {n} x {width}", n, width,
                         f"; column {widest!r} has {coded[widest]} categories" if widest else "")
        values = [self.columns[c.name] for c in self.schema if c.role == "feature"]
        owner = values[0].base if values else None
        if isinstance(owner, np.ndarray) and owner.dtype == np.float64 and owner.shape[1:] == (len(values),):
            block = owner[:self.n_records]  # the csv.reader fallback allocates a row per line
            # each column is the block's own: the same memory, dtype, shape and strides
            if all(v.base is owner and v.__array_interface__ == c.__array_interface__ for v, c in zip(values, block.T)):
                return block
        blocks: list[np.ndarray] = []
        for col in self.schema:
            if col.role != "feature":
                continue
            values = self.columns[col.name]
            if col.name in self.categories:
                codes = np.asarray(values, dtype=int)
                onehot = np.zeros((codes.size, len(self.categories[col.name])))
                onehot[np.arange(codes.size), codes] = 1.0
                blocks.append(onehot)
            else:
                blocks.append(np.asarray(values, dtype=float)[:, None])
        if not blocks:
            return np.zeros((self.n_records, 0))
        return np.hstack(blocks)

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class GroupCodes:
    """Distinct labels in first-appearance order, each record's label index, and group sizes."""

    labels: tuple
    codes: np.ndarray
    counts: np.ndarray


def factorize(values) -> GroupCodes:
    """Encode labels by first appearance, the one group encoding of the package.

    Labels are the keys of a Python dict filled from ``values.tolist()`` a
    block of rows at a time: each is taken from the record where it first
    appears, labels that compare equal (-0.0 and 0.0) collapse to the first,
    and every NaN is its own.
    """
    values = np.asarray(values).ravel()
    index: dict = {}
    codes = np.empty(values.size, dtype=np.intp)
    for lo in range(0, values.size, _BLOCK_ROWS):
        block = values[lo:lo + _BLOCK_ROWS].tolist()
        for label in dict.fromkeys(block):
            index.setdefault(label, len(index))
        codes[lo:lo + len(block)] = list(map(index.__getitem__, block))
    return GroupCodes(tuple(index), codes, np.bincount(codes, minlength=len(index)))


def parse_numbers(cells, name: str) -> np.ndarray:
    """Finite floats of a ``read_table`` column; errors name the row (the header is row 1) and column.

    A float64 column numpy's reader parsed passes through.  StringDType text is
    parsed cell by cell with ``float``, which also takes ``1_000`` and non-ASCII digits.
    """
    if isinstance(cells, np.ndarray) and cells.dtype == np.float64:
        return cells
    values = np.empty(len(cells))
    for i, cell in enumerate(cells):
        try:
            values[i] = float(cell)
        except ValueError:
            raise DatasetError(f"row {i + 2}, column {name!r}: cannot parse {cell!r} as a number") from None
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DatasetError(f"row {bad[0] + 2}, column {name!r}: non-finite value {cells[bad[0]]!r}")
    return values


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _classification_labels(values: np.ndarray) -> bool:
    """Whether ``values`` are class labels: all in {-1,+1}, or all in {0,1} with each 0 set to -1 in place."""
    got = set(np.unique(values)[:3].tolist())
    if not (got <= {-1.0, 1.0} or got <= {0.0, 1.0}):
        return False
    values[values == 0.0] = -1.0
    return True


def _check_missing(cells: Mapping[str, np.ndarray]) -> None:
    """Reject the first empty cell of the text columns, row by row."""
    hits = [(np.argmax(v == ""), j, name) for j, (name, v) in enumerate(cells.items())
            if v.dtype == _TEXT and (v == "").any()]
    if hits:
        row, _, name = min(hits)
        raise DatasetError(f"row {row + 2}, column {name!r}: missing value")


def _text(cells) -> np.ndarray:
    # not np.fromiter, which corrupts StringDType arrays of many distinct strings
    return np.array(list(map(str.strip, cells)), dtype=_TEXT)


def _empty_columns(header, floats: list[bool], rows: int, block) -> dict[str, np.ndarray]:
    """Columns of ``rows`` entries for a parser to fill, float64 where ``floats`` holds and text elsewhere;
    the float ones named in ``block`` are, in header order, the columns of one C-order float64 array."""
    names = [h for h, f in zip(header, floats) if f and h in block]
    views = dict(zip(names, np.empty((rows, len(names))).T))
    return {h: views[h] if h in views else np.empty(rows, np.float64 if f else _TEXT) for h, f in zip(header, floats)}


def _bulk_columns(path, header, skip: int, floats: list[bool], block) -> dict | None:
    """Columns parsed by numpy's reader a block of lines at a time into arrays
    allocated once (`_empty_columns`); None when it fails or its records are not the file's lines.
    """
    dtype = [(f"c{j}", np.float64 if f else object) for j, f in enumerate(floats)]
    with open(path, encoding="utf-8") as fh:  # universal newlines end every line in LF
        n = sum(1 for _ in fh) - skip
        columns = _empty_columns(header, floats, n, block)
        fh.seek(0)
        rest = itertools.islice(fh, skip, None)
        for lo in range(0, n, _BLOCK_ROWS):
            block = list(itertools.islice(rest, _BLOCK_ROWS))
            # numpy skips blank lines, joins quoted line breaks and closes a quote the
            # block leaves open, where csv.reader would take in the next line
            if "\n" in block or '"' in block[-1] and len(list(csv.reader([block[-1], "\n"]))) < 2:
                return None
            try:
                table = np.loadtxt(block, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1)
            except ValueError:
                return None
            if len(table) != len(block):
                return None
            for j, (h, f) in enumerate(zip(header, floats)):
                columns[h][lo:lo + len(block)] = table[f"c{j}"] if f else _text(table[f"c{j}"])
    return columns


def _finite_floats(cells) -> np.ndarray | None:
    """The stripped ``cells`` parsed as `parse_numbers` does, or None if one is not a finite number."""
    try:
        values = np.array([float(c.strip()) for c in cells])
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _read_cells(path, header, floats: list[bool], block) -> dict[str, np.ndarray]:
    """Columns from csv.reader, for the files numpy's reader does not take and
    those where it reads a numeric cell that is not a finite number.

    Records are read ``_BLOCK_ROWS`` at a time into columns of one entry per
    line (`_empty_columns`), as every record takes at least one line.  A ``floats``
    column is float64 until a cell is not a finite number; from there on it is a
    text column, its earlier values written as text that parses back to them.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
        columns = _empty_columns(header, floats, lines, block)
        fh.seek(0)
        records = csv.reader(fh)
        next(records)
        end, short = 0, None
        while short is None and (block := list(itertools.islice(records, _BLOCK_ROWS))):
            ragged = [i for i, row in enumerate(block) if len(row) != len(header)]
            if ragged:
                block, short = block[:ragged[0]], len(block[ragged[0]])
            for j, h in enumerate(header):
                cells = [row[j] for row in block]
                column = columns[h]
                values = _finite_floats(cells) if column.dtype == np.float64 else None
                if values is None and column.dtype == np.float64:
                    columns[h] = np.empty(lines, _TEXT)
                    columns[h][:end] = column[:end]
                columns[h][end:end + len(block)] = _text(cells) if values is None else values
            end += len(block)
    cells = {h: v[:end] for h, v in columns.items()}
    _check_missing(cells)
    if short is not None:
        raise DatasetError(f"row {end + 2}: expected {len(header)} cells, found {short}")
    return cells


def read_table(path, numeric, check_header, block=()) -> tuple[tuple[str, ...], dict[str, np.ndarray]]:
    """Header and columns of a comma-separated UTF-8 file with a header row and csv quoting.

    A leading byte-order mark is dropped; bytes that are not UTF-8 and a cell above csv's field
    size limit are a ``DatasetError``.  Header names are stripped and distinct;
    ``check_header`` may reject them.  Each row needs one cell per name (a
    blank line has none) and no cell may be empty once stripped.  numpy's reader parses
    ``_BLOCK_ROWS`` rows at a time; ``numeric`` columns come back as float64 when it
    parses them to finite values, all others as StringDType arrays of stripped
    text for ``parse_numbers``; the float64 ones named in ``block`` are filled into,
    and come back as views of, the columns of one C-order block.  The header is row 1.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DatasetError("empty file")
            header = tuple(h.strip() for h in header)
            check_header(header)
            if len(set(header)) < len(header):
                raise DatasetError(f"duplicate columns: {', '.join(sorted({h for h in header if header.count(h) > 1}))}")
            skip, first = reader.line_num, next(reader, None)
        if first is None:
            raise DatasetError("no data rows")
        # the first row picks each column's dtype for numpy; a wrong pick only costs the fallback
        floats = [h in numeric and (j >= len(first) or _is_number(first[j])) for j, h in enumerate(header)]
        columns = _bulk_columns(path, header, skip, floats, block) if first else None
        if columns is None or any(f and not np.isfinite(columns[h]).all() for h, f in zip(header, floats)):
            columns = _read_cells(path, header, floats, block)
        else:
            _check_missing(columns)
        return header, columns
    except UnicodeDecodeError as exc:
        raise DatasetError(f"not a UTF-8 text file: cannot decode byte 0x{exc.object[exc.start]:02x}") from None
    except csv.Error as exc:
        raise DatasetError(f"cannot read the CSV file: {exc}") from None


def load_csv(path, schema: Mapping[str, str], outcome_kind: str = "regression") -> TabularDataset:
    """Load and validate a comma-separated UTF-8 file with a header row.

    ``schema`` maps column name -> role in {sensitive, feature, outcome,
    task, ignore}; columns absent from the mapping are an error, as are
    missing, unparseable or non-finite cells, ragged rows and blank lines
    (see ``read_table``, which reads a block of rows at a time; ignored columns
    stay its StringDType text), and task ids that are not whole int64 values.
    Non-numeric sensitive or feature columns (detected from their first
    cell) are coded as categoricals in first-appearance order; categorical
    features are one-hot expanded when the feature matrix is built; without
    them it is the block whose columns the numeric features are read into.
    """
    for name, role in schema.items():
        if role not in ROLES:
            raise DatasetError(f"column {name!r}: unknown role {role!r}")

    def check_header(header):
        missing = [name for name in schema if name not in header]
        if missing:
            raise DatasetError(f"missing columns: {', '.join(sorted(missing))}")
        extra = [h for h in header if h not in schema]
        if extra:
            raise DatasetError(f"columns without a declared role: {', '.join(extra)}")

    header, table = read_table(path, {n for n, role in schema.items() if role != "ignore"}, check_header,
                               {n for n, role in schema.items() if role == "feature"})
    columns: dict[str, np.ndarray] = {}
    categories: dict[str, tuple[str, ...]] = {}
    for name in header:
        role, values = schema[name], table[name]
        if role == "ignore":
            columns[name] = values
        elif role in ("sensitive", "feature") and values.dtype == _TEXT and not _is_number(values[0]):
            enc = factorize(values)
            columns[name] = enc.codes
            categories[name] = enc.labels
        else:
            values = parse_numbers(values, name)
            if role == "task":
                bad = (values != np.trunc(values)) | (values < -2.0**63) | (values >= 2.0**63)
                if bad.any():
                    n = int(np.argmax(bad))
                    raise DatasetError(f"row {n + 2}, column {name!r}: task id {float(values[n])!r}"
                                       " is not a whole number in the int64 range")
                values = values.astype(np.int64)
            elif role == "outcome" and outcome_kind == "classification" and not _classification_labels(values):
                got = np.unique(values).tolist()
                more = f" and {len(got) - 5} more" if len(got) > 5 else ""  # the first five of a continuous column
                raise DatasetError(f"column {name!r}: classification labels must be in {{-1,+1}} or {{0,1}},"
                                   f" got {got[:5]}{more}")
            columns[name] = values

    spec = tuple(ColumnSpec(name, schema[name]) for name in header)
    return TabularDataset(schema=spec, outcome_kind=outcome_kind, columns=columns, categories=categories)


def _cells(values: np.ndarray, whole_as_int: bool) -> list[str]:
    """CSV cells of a column block, as csv.writer writes them."""
    if values.dtype.kind not in "iuf":
        cells = list(map(str, values.tolist()))
        if _NEEDS_QUOTES.search("".join(cells)):
            cells = [f'"{c.replace(chr(34), chr(34) * 2)}"' if _NEEDS_QUOTES.search(c) else c for c in cells]
        return cells
    x = values.astype(float)
    whole = (whole_as_int or values.dtype.kind != "f") & (x == np.round(x)) & (np.abs(x) < 1e15)
    whole &= (x != 0) | ~np.signbit(x)
    cells = np.empty(x.size, dtype=object)
    cells[whole] = list(map(repr, x[whole].astype(np.int64).tolist()))
    cells[~whole] = list(map(repr, x[~whole].tolist()))
    return cells.tolist()


def write_table(path, header: Sequence[str], columns: Sequence, whole_as_int: bool = False) -> None:
    """Write a header and two or more equal-length columns as csv.writer would, a block of rows at a time.

    Floats are written with ``repr`` and integers as ints; with ``whole_as_int``
    so is every whole float below 1e15 but -0.0.  Text is csv-quoted.
    """
    write_blocks(path, header, [columns], whole_as_int)


def write_blocks(path, header: Sequence[str], blocks: Iterable[Sequence], whole_as_int: bool = False) -> None:
    """``write_table`` of the rows of ``blocks``, each a sequence of equal-length columns, one after the other.

    Each block is formatted ``_BLOCK_ROWS`` rows at a time as it arrives, so
    a caller can make the next block after the last one is written.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_cells(np.array(header, dtype=object), False)) + "\r\n")
        for columns in blocks:
            columns = [np.asarray(c) for c in columns]
            for lo in range(0, len(columns[0]), _BLOCK_ROWS):
                rows = zip(*(_cells(c[lo:lo + _BLOCK_ROWS], whole_as_int) for c in columns))
                fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def dataset_from_columns(
    columns: Mapping[str, np.ndarray],
    roles: Mapping[str, str],
    outcome_kind: str = "regression",
    categories: Mapping[str, tuple[str, ...]] | None = None,
) -> TabularDataset:
    """Build a dataset from in-memory arrays (synthetic data, SEM samples)."""
    spec = tuple(ColumnSpec(n, roles[n]) for n in columns)
    cols = {n: np.asarray(v) for n, v in columns.items()}
    return TabularDataset(
        schema=spec,
        outcome_kind=outcome_kind,
        columns=cols,
        categories=dict(categories or {}),
    )


@dataclass(frozen=True, eq=False)
class DiscretizationGrid:
    """Strictly increasing edges t_1 < ... < t_{K+1} and s_1 < ... < s_{Q+1}.

    A record with outcome y and sensitive value s belongs to cell (k, q)
    when y falls in [t_k, t_{k+1}) and s in [s_q, s_{q+1}), both half-open.
    """

    y_edges: np.ndarray
    s_edges: np.ndarray

    def __post_init__(self):
        for name, edges in (("y", self.y_edges), ("s", self.s_edges)):
            e = np.asarray(edges, dtype=float)
            if e.size < 2:
                raise DatasetError(f"{name}_edges needs at least two entries")
            if not np.all(np.diff(e) > 0):
                raise DatasetError(f"{name}_edges must be strictly increasing")

    @property
    def n_y_bins(self) -> int:
        return self.y_edges.size - 1

    @property
    def n_s_bins(self) -> int:
        return self.s_edges.size - 1

    def _locate(self, edges: np.ndarray, values: np.ndarray, what: str) -> np.ndarray:
        idx = np.searchsorted(edges, values, side="right") - 1
        bad = (idx < 0) | (idx >= edges.size - 1)
        if np.any(bad):
            n = int(np.argmax(bad))
            raise DatasetError(f"record {n}: {what} value {values[n]!r} outside the grid")
        return idx

    def cell_of(self, y: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = np.asarray(y, dtype=float)
        s = np.asarray(s, dtype=float)
        return self._locate(self.y_edges, y, "outcome"), self._locate(self.s_edges, s, "sensitive")

    def cell_ids(self, y: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat cell id k * Q + q of every record and the (K, Q) table of cell counts."""
        cell, q = self.cell_of(y, s)
        cell *= self.n_s_bins  # k * Q + q, in k's buffer
        cell += q
        counts = np.bincount(cell, minlength=self.n_y_bins * self.n_s_bins)
        return cell, counts.reshape(self.n_y_bins, self.n_s_bins)


def _axis_edges(values: np.ndarray, bins: int, what: str) -> np.ndarray:
    distinct = np.unique(values)
    if distinct.size < bins:
        raise DatasetError(f"{what}: {distinct.size} distinct values cannot fill {bins} bins")
    if distinct.size == bins:
        # discrete axis: cut at midpoints, pad the outside by half a unit
        inner = (distinct[:-1] + distinct[1:]) / 2.0
        return np.concatenate(([distinct[0] - 0.5], inner, [distinct[-1] + 0.5]))
    lo, hi = float(distinct[0]), float(np.nextafter(distinct[-1], np.inf))
    if bins == 1:
        return np.array([lo, hi])
    inner = np.quantile(values, np.arange(1, bins) / bins)
    edges = np.concatenate(([lo], inner, [hi]))
    if not np.all(np.diff(edges) > 0):
        raise DatasetError(f"{what}: quantile edges collapse; use fewer bins")
    return edges


def make_grid(outcome: np.ndarray, sensitive: np.ndarray, k_bins: int, q_bins: int) -> DiscretizationGrid:
    """Build a discretization grid over the ``outcome`` and ``sensitive`` arrays of the records.

    Interior edges sit at empirical quantiles, the outer edges at the data
    minimum and just past the maximum, so the half-open cells cover every
    record.  When an axis has exactly as many distinct values as requested
    bins, edges sit at midpoints between consecutive values padded by 0.5
    outside; binary labels therefore get the edges {-1.5, 0, +1.5} and
    binary groups {-0.5, 0.5, 1.5}.
    """
    if k_bins < 1 or q_bins < 1:
        raise DatasetError("k_bins and q_bins must be >= 1")
    return DiscretizationGrid(
        _axis_edges(outcome, k_bins, "outcome"),
        _axis_edges(sensitive, q_bins, "sensitive"),
    )


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    reference: str
    n_samples: str
    n_features: str
    sensitive: tuple[str, ...]
    tasks: tuple[str, ...]


# Catalog of public tabular datasets commonly used in fairness work.  The
# library never downloads them; entries document expected sizes and which
# columns are conventionally treated as sensitive.
DATASET_REGISTRY: dict[str, RegistryEntry] = {
    e.name: e
    for e in (
        RegistryEntry("xAPI Students Performance", "Amrieh et al., 2015", "480", "16", ("Gender", "Nationality", "Native-Country"), ("MC",)),
        RegistryEntry("NLSY", "US Bureau of Labor Statistics, 2019", "~10K", "", ("Birth-date", "Ethnicity", "Gender"), ("BC", "MC", "R")),
        RegistryEntry("Wine Quality", "Cortez et al., 2009", "4898", "13", ("Color",), ("MC", "R")),
        RegistryEntry("Students Performance", "Cortez & Silva, 2014", "649", "33", ("Age", "Gender"), ("R",)),
        RegistryEntry("Drug Consumption", "Fehrman et al., 2016", "1885", "32", ("Age", "Ethnicity", "Gender", "Country"), ("MC",)),
        RegistryEntry("School Effectiveness", "Goldstein, 1987", "15362", "9", ("Ethnicity", "Gender"), ("R",)),
        RegistryEntry("Arrhythmia", "Guvenir et al., 1998", "452", "279", ("Age", "Gender"), ("MC",)),
        RegistryEntry("MovieLens", "Harper & Konstan, 2016", "~100K", "~20", ("Age", "Gender"), ("R",)),
        RegistryEntry("Heritage Health", "Heritage Provider Network, 2011", "~60K", "~20", ("Age", "Gender"), ("MC", "R")),
        RegistryEntry("German Credit", "Hofmann, 1994", "1K", "20", ("Age", "Gender/Marital-Stat"), ("MC",)),
        RegistryEntry("Student Academics Performance", "Hussain et al., 2018", "300", "22", ("Gender",), ("MC",)),
        RegistryEntry("Heart Disease", "Janosi et al., 1988", "303", "75", ("Age", "Gender"), ("MC", "R")),
        RegistryEntry("Census/Adult Income", "Kohavi, 1996", "48842", "14", ("Age", "Ethnicity", "Gender", "Native-Country"), ("BC",)),
        RegistryEntry("COMPAS", "Larson et al., 2016", "11758", "36", ("Age", "Ethnicity", "Gender"), ("BC", "MC")),
        RegistryEntry("Contraceptive Method Choice", "Lim, 1997", "1473", "9", ("Age", "Religion"), ("MC",)),
        RegistryEntry("CelebA Faces", "Liu et al., 2015", "~200K", "40", ("Gender", "Skin-Paleness", "Youth"), ("BC",)),
        RegistryEntry("Chicago Faces", "Ma et al., 2015", "597", "5", ("Ethnicity", "Gender"), ("MC",)),
        RegistryEntry("Diversity in Faces", "Merler et al., 2019", "1M", "47", ("Age", "Gender"), ("MC", "R")),
        RegistryEntry("Bank Marketing", "Moro et al., 2014", "45211", "17-20", ("Age",), ("BC",)),
        RegistryEntry("Stop, Question & Frisk", "NYPD, 2012", "84868", "~100", ("Age", "Ethnicity", "Gender"), ("BC", "MC")),
        RegistryEntry("Communities & Crime", "Redmond, 2009", "1994", "128", ("Ethnicity",), ("R",)),
        RegistryEntry("Diabetes US", "Strack et al., 2014", "101768", "55", ("Age", "Ethnicity"), ("BC", "MC")),
        RegistryEntry("Law School Admission", "Wightman, 1998", "21792", "5", ("Ethnicity", "Gender"), ("R",)),
        RegistryEntry("Credit Card Default", "Yeh, 2016", "30K", "24", ("Age", "Gender"), ("BC",)),
    )
}

_REGISTRY_ALIASES = {
    "adult": "Census/Adult Income",
    "compas": "COMPAS",
}


def describe_dataset(name: str) -> RegistryEntry:
    key = _REGISTRY_ALIASES.get(name.lower(), name)
    for candidate in DATASET_REGISTRY:
        if candidate.lower() == key.lower():
            return DATASET_REGISTRY[candidate]
    raise DatasetError(f"unknown dataset {name!r}; see the registry list")
