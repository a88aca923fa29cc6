import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fairkit import dataset
from fairkit.cli import _read_scores_csv
from fairkit.dataset import (
    MAX_FEATURE_BYTES,
    DatasetError,
    dataset_from_columns,
    describe_dataset,
    factorize,
    load_csv,
    make_grid,
    to_csv,
    write_table,
)
from oracles import ReferenceCsvError, reference_load_csv
from test_ferm import traced_peak


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


BASIC = "gender,x1,x2,y\nf,1.0,2.0,1\nm,0.5,1.5,-1\nf,0.25,0.75,1\n"
BASIC_SCHEMA = {"gender": "sensitive", "x1": "feature", "x2": "feature", "y": "outcome"}


class TestLoadCsv:
    def test_basic_classification(self, tmp_path):
        data = load_csv(write(tmp_path, BASIC), BASIC_SCHEMA, outcome_kind="classification")
        assert data.n_records == 3
        assert data.d == 2
        np.testing.assert_array_equal(data.sensitive, [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(data.outcome, [1.0, -1.0, 1.0])
        assert data.categories["gender"] == ("f", "m")

    def test_missing_value_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "gender,x1,x2,y\nf,1.0,,1\n")
        with pytest.raises(DatasetError, match=r"row 2, column 'x2'"):
            load_csv(path, BASIC_SCHEMA, outcome_kind="classification")

    def test_unparseable_cell_names_row(self, tmp_path):
        path = write(tmp_path, "gender,x1,x2,y\nf,1.0,2.0,1\nm,oops,1.0,-1\n")
        with pytest.raises(DatasetError, match=r"row 3, column 'x1'"):
            load_csv(path, BASIC_SCHEMA, outcome_kind="classification")

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "gender,x1,y\nf,1.0,1\n")
        with pytest.raises(DatasetError, match="missing columns: x2"):
            load_csv(path, BASIC_SCHEMA)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell_names_row(self, tmp_path, cell):
        path = write(tmp_path, f"gender,x1,x2,y\nf,1.0,2.0,1\nm,0.5,{cell},-1\n")
        with pytest.raises(DatasetError, match=rf"row 3, column 'x2': non-finite value '{cell}'"):
            load_csv(path, BASIC_SCHEMA, outcome_kind="classification")

    def test_non_finite_task_id_names_row(self, tmp_path):
        path = write(tmp_path, "t,gender,x1,y\n0,f,1.0,1\ninf,m,0.5,-1\n")
        schema = {"t": "task", "gender": "sensitive", "x1": "feature", "y": "outcome"}
        with pytest.raises(DatasetError, match=r"row 3, column 't': non-finite"):
            load_csv(path, schema)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "gender,x1,x2,y\nf,1.0,2.0,1\nm,0.5,-1\n")
        with pytest.raises(DatasetError, match=r"row 3: expected 4 cells"):
            load_csv(path, BASIC_SCHEMA)

    def test_one_hot_expansion_matches_hand_count(self, tmp_path):
        # census-style header: 6 numeric + 8 categorical columns; the
        # hand-expanded width is 6 + total distinct categories
        numeric = [f"n{i}" for i in range(6)]
        categorical = {f"c{i}": ["a", "b", "c"][: 2 + i % 2] for i in range(8)}
        header = ["sex"] + numeric + list(categorical) + ["income"]
        rows = []
        rng = np.random.default_rng(0)
        for i in range(40):
            row = ["m" if i % 2 else "f"]
            row += [f"{rng.normal():.3f}" for _ in numeric]
            row += [cats[i % len(cats)] for cats in categorical.values()]
            row += ["1" if i % 3 else "0"]
            rows.append(",".join(row))
        path = write(tmp_path, ",".join(header) + "\n" + "\n".join(rows) + "\n")
        schema = {"sex": "sensitive", "income": "outcome"}
        schema.update({n: "feature" for n in numeric})
        schema.update({c: "feature" for c in categorical})
        data = load_csv(path, schema, outcome_kind="classification")
        expected = len(numeric) + sum(len(v) for v in categorical.values())
        assert data.d == expected
        assert data.feature_names[6].startswith("c0=")

    def test_round_trip_bit_exact(self, tmp_path):
        text = "g,x1,y\n0,0.1,2.5\n1,-3.25,0.7\n0,1e-3,4.125\n"
        schema = {"g": "sensitive", "x1": "feature", "y": "outcome"}
        first = load_csv(write(tmp_path, text), schema)
        out = tmp_path / "echo.csv"
        to_csv(first, out)
        second = load_csv(out, schema)
        for name in ("g", "x1", "y"):
            np.testing.assert_array_equal(first.column(name), second.column(name))

    def test_column_order_preserved_on_emit(self, tmp_path):
        data = load_csv(write(tmp_path, BASIC), BASIC_SCHEMA, outcome_kind="classification")
        out = tmp_path / "echo.csv"
        to_csv(data, out)
        assert out.read_text().splitlines()[0] == "gender,x1,x2,y"

    def test_bad_classification_labels(self, tmp_path):
        path = write(tmp_path, "g,x,y\n0,1.0,3\n1,2.0,4\n")
        with pytest.raises(DatasetError, match="classification labels"):
            load_csv(path, {"g": "sensitive", "x": "feature", "y": "outcome"}, "classification")

    @pytest.mark.parametrize("text,row", [
        ("gender,x1,x2,y\nf,1.0,2.0,1\n\nm,0.5,1.5,-1\n", 3),
        ("gender,x1,x2,y\r\nf,1.0,2.0,1\r\n\r\nm,0.5,1.5,-1\r\n", 3),
        ("gender,x1,x2,y\nf,1.0,2.0,1\nm,0.5,1.5,-1\n\n", 4),
    ])
    def test_blank_line_is_a_row_of_no_cells(self, tmp_path, text, row):
        with pytest.raises(DatasetError, match=rf"^row {row}: expected 4 cells, found 0$"):
            load_csv(write(tmp_path, text), BASIC_SCHEMA, outcome_kind="classification")

    def test_python_number_syntax_numpy_does_not_take(self, tmp_path):
        text = "gender,x1,x2,y\nf,1_000,\u0661\u0662,1\nm,0.5,1.5,-1\n"
        data = load_csv(write(tmp_path, text), BASIC_SCHEMA, outcome_kind="classification")
        np.testing.assert_array_equal(data.column("x1"), [1000.0, 0.5])
        np.testing.assert_array_equal(data.column("x2"), [12.0, 1.5])

    def test_byte_order_mark_is_dropped(self, tmp_path):
        plain = load_csv(write(tmp_path, BASIC), BASIC_SCHEMA, outcome_kind="classification")
        marked = load_csv(write(tmp_path, "\ufeff" + BASIC, "bom.csv"), BASIC_SCHEMA,
                          outcome_kind="classification")
        assert marked.schema == plain.schema
        for c in plain.schema:
            np.testing.assert_array_equal(marked.column(c.name), plain.column(c.name))

    @pytest.mark.parametrize("body", [
        b"gender,x1,x2,y\nf,1.0,\xff2.0,1\n",  # in the first row, read with the header
        b"gender,x1,x2,y\n" + b"f,1.0,2.0,1\n" * 5000 + b"m,\xff,1.5,-1\n",  # past the header's read buffer
        b"gender,x1,\xffx2,y\nf,1.0,2.0,1\n",  # in a header name
    ])
    def test_bytes_that_are_not_utf8(self, tmp_path, body):
        path = tmp_path / "data.csv"
        path.write_bytes(body)
        with pytest.raises(DatasetError, match=r"^not a UTF-8 text file: cannot decode byte 0xff$"):
            load_csv(path, BASIC_SCHEMA, outcome_kind="classification")

    def test_duplicate_column_names(self, tmp_path):
        path = write(tmp_path, "gender,x1,x1,y\nf,1.0,2.0,1\n")
        with pytest.raises(DatasetError, match="duplicate columns: x1"):
            load_csv(path, {"gender": "sensitive", "x1": "feature", "y": "outcome"})

    def test_one_hot_size_checked_before_allocation(self):
        n = int(np.sqrt(MAX_FEATURE_BYTES / 8)) + 1
        data = dataset_from_columns(
            {"s": np.zeros(n), "x": np.arange(n), "y": np.zeros(n)},
            {"s": "sensitive", "x": "feature", "y": "outcome"},
            categories={"x": tuple(str(i) for i in range(n))},
        )
        with pytest.raises(DatasetError, match=rf"feature matrix of {n} x {n} needs .* GiB.*column 'x' has {n} categories"):
            data.features


# Cells of random tables for the reader-equivalence test: numbers in Python
# and numpy syntax, labels that need csv quoting, and faults in each class.
NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_000", "\u0661\u0662", " 2.5 ", '"3.25"', '" -1 "', "+7", ".5", "1e3", "-0.0"]),
)
LABEL_CELLS = st.sampled_from(["a", "b", " padded ", '"x,y"', '"say ""hi"""', "\u00e9", "two words",
                               '"multi\nline"', "q\"r"])
FAULT_CELLS = st.sampled_from(["", "  ", "oops", "nan", "inf", "-Infinity", "1e400", '""'])
ROLES = {"g": "sensitive", "x0": "feature", "x1": "feature", "t": "task", "note": "ignore", "y": "outcome"}


@st.composite
def csv_tables(draw):
    names = draw(st.permutations(["g", "y"] + draw(st.lists(st.sampled_from(["x0", "x1", "t", "note"]), unique=True))))
    kind = draw(st.sampled_from(["regression", "classification"]))
    faulty = draw(st.booleans())
    labels = draw(st.sampled_from([["1", "-1"], ["0", "1"], ["1", "-1", "0", "2"] if faulty else ["1"]]))
    pools = {
        "y": st.sampled_from(labels) if kind == "classification" else NUMBER_CELLS,
        "t": st.sampled_from(["0", "1", "2", "2.0"]),
        "note": LABEL_CELLS,
    }
    for name in ("g", "x0", "x1"):
        pools[name] = draw(st.sampled_from([NUMBER_CELLS, LABEL_CELLS]))
    if faulty:
        pools = {name: st.one_of(pool, FAULT_CELLS) for name, pool in pools.items()}
    rows = draw(st.lists(st.tuples(*(pools[name] for name in names)).map(list), min_size=1, max_size=6))
    if faulty:
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(rows)))
            rows.insert(i, draw(st.sampled_from([[], ["   "], rows[min(i, len(rows) - 1)][:-1],
                                                  rows[min(i, len(rows) - 1)] + ["1"]])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(",".join(row) for row in [names] + rows) + draw(st.sampled_from([end, ""]))
    return text, {name: ROLES[name] for name in names}, kind


def _loaded(fn):
    try:
        return fn()
    except (DatasetError, ReferenceCsvError) as exc:
        return str(exc)


def assert_loads_like_reference(path, reference_path, schema, kind):
    """load_csv(path) gives the reference's columns and categories for reference_path, or its error."""
    expected = _loaded(lambda: reference_load_csv(reference_path, schema, kind))
    got = _loaded(lambda: load_csv(path, schema, kind))
    if isinstance(expected, str):
        assert got == expected
        return
    assert not isinstance(got, str), got
    header, columns, categories = expected
    assert [c.name for c in got.schema] == header
    assert dict(got.categories) == categories
    for name in header:
        assert got.columns[name].dtype.kind == columns[name].dtype.kind
        assert got.columns[name].tolist() == columns[name].tolist()


NOTE_LAST = {"g": "sensitive", "y": "outcome", "note": "ignore"}


class TestCsvProperties:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_tables())
    def test_reader_matches_row_at_a_time_reference(self, tmp_path, table):
        text, schema, kind = table
        path = write(tmp_path, text)
        assert_loads_like_reference(path, path, schema, kind)

    @pytest.mark.filterwarnings("error")  # numpy warns of a block of blank lines
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=csv_tables(), block=st.integers(1, 3), bom=st.booleans())
    # numpy closes the quote the first block leaves open, and the next line has three cells
    @example(table=('g,y,note\na,1,"p\nq,2,r"\nb,3,s\n', NOTE_LAST, "regression"), block=1, bom=False)
    @example(table=('g,y,note\r\na,1," p "\r\n\r\nb,3,s\r\n', NOTE_LAST, "regression"), block=1, bom=True)
    @example(table=("g,y,note\na,1,p\n\nb,3,s\n", NOTE_LAST, "regression"), block=2, bom=False)
    def test_block_edges_match_row_at_a_time_reference(self, tmp_path, monkeypatch, table, block, bom):
        # blocks of 1-3 lines put quoted line breaks and blank lines on block edges
        monkeypatch.setattr(dataset, "_BLOCK_ROWS", block)
        text, schema, kind = table
        plain = write(tmp_path, text)
        assert_loads_like_reference(write(tmp_path, "\ufeff" + text, "bom.csv") if bom else plain, plain, schema, kind)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_to_csv_load_csv_round_trip_is_bit_exact(self, tmp_path, data):
        n = data.draw(st.integers(1, 8))
        floats = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([-0.0, 0.0, 1e15 - 1, 1e15, -1e15, 2.0**53 + 2, 5e-324, 2.2250738585072014e-308, 7.0]),
        )
        column = st.lists(floats, min_size=n, max_size=n)
        text = st.text(st.sampled_from('ab ,"\n\u00e9'), min_size=1, max_size=5)
        label = text.filter(lambda v: v == v.strip() and v and not _parses(v))
        picked = data.draw(st.lists(label, min_size=n, max_size=n))
        index = {v: i for i, v in enumerate(dict.fromkeys(picked))}
        dataset = dataset_from_columns(
            {"t": np.array(data.draw(st.lists(st.integers(0, 10**15), min_size=n, max_size=n))),
             "g": np.array(data.draw(column)), "x0": np.array(data.draw(column)),
             "c": np.array([index[v] for v in picked]), "y": np.array(data.draw(column))},
            {"t": "task", "g": "sensitive", "x0": "feature", "c": "feature", "y": "outcome"},
            categories={"c": tuple(index)},
        )
        path = tmp_path / "echo.csv"
        to_csv(dataset, path)
        back = load_csv(path, {c.name: c.role for c in dataset.schema})
        assert dict(back.categories) == {"c": tuple(index)}
        for name, values in dataset.columns.items():
            assert back.columns[name].dtype.kind == values.dtype.kind
            assert back.columns[name].tobytes() == values.tobytes(), name

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.text(min_size=0, max_size=6), st.floats(), st.integers(-10**9, 10**9)),
                    min_size=1, max_size=8))
    def test_writer_bytes_match_csv_writer(self, tmp_path, rows):
        text, floats, ints = (list(col) for col in zip(*rows))
        path = tmp_path / "out.csv"
        write_table(path, ["text", "float,x", 'q"'], [np.array(text, dtype=object), np.array(floats), np.array(ints)])
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["text", "float,x", 'q"'])
            writer.writerows([t, repr(f), i] for t, f, i in rows)
        assert path.read_bytes() == expected.read_bytes()


def _parses(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


class TestFactorize:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.lists(st.sampled_from(["a", "b", "zz", "", "B", "a b", "é"]), min_size=1, max_size=40).flatmap(
            lambda raw: st.sampled_from([np.array(raw), np.array(raw, dtype=np.dtypes.StringDType())])),
        st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan]),
                           st.floats(allow_nan=True)), min_size=1, max_size=40).map(np.array),
    ))
    def test_matches_dict_fromkeys(self, values):
        enc = factorize(values)
        listed = values.tolist()  # a new object per NaN, so each NaN is its own key
        reference = {label: i for i, label in enumerate(dict.fromkeys(listed))}
        assert [repr(v) for v in enc.labels] == [repr(v) for v in reference]
        assert [type(v) for v in enc.labels] == [type(v) for v in reference]
        expected = [reference[v] for v in listed]
        assert enc.codes.tolist() == expected
        assert enc.counts.tolist() == np.bincount(expected).tolist()
        for g, idx in enumerate(enc.members):
            assert idx.tolist() == [i for i, c in enumerate(expected) if c == g]


class TestTextColumnMemory:
    def test_scores_file_reads_and_factorizes_in_16_mib(self, tmp_path):
        rng = np.random.default_rng(4)
        labels = np.array([f"{s}-{r}-{a}" for s in "FM" for r in "NSEW" for a in range(4)])
        n = 200_000
        path = tmp_path / "scores.csv"
        write_table(path, ["id", "group", "score", "y"],
                    [np.arange(n), labels[rng.integers(0, labels.size, n)], rng.random(n), rng.integers(0, 2, n)])

        def read_and_factorize():
            ids, groups, scores, outcome = _read_scores_csv(path)
            return ids, scores, outcome, factorize(groups)

        (ids, scores, outcome, enc), peak = traced_peak(read_and_factorize)
        # the columns hold 2 x 3.2 MB of text and 2 x 1.6 MB of floats
        assert peak < 16 * 2**20
        assert ids[-1] == str(n - 1) and scores.size == outcome.size == n
        assert sorted(enc.labels) == sorted(labels.tolist())

    def test_many_distinct_20_character_cells(self, tmp_path):
        # the shape on which np.fromiter corrupted StringDType arrays
        rng = np.random.default_rng(5)
        cells = ["".join(rng.choice(list("abcdefghij"), 20)) for _ in range(10_000)]
        path = tmp_path / "text.csv"
        text = np.array(cells, dtype=object)
        write_table(path, ["g", "y", "note"], [text, np.arange(10_000.0), text])
        data = load_csv(path, NOTE_LAST)
        assert data.columns["note"].tolist() == cells
        assert data.categories["g"] == tuple(dict.fromkeys(cells))


def toy_dataset(y, s, **extra):
    cols = {"s": np.asarray(s, dtype=float), "y": np.asarray(y, dtype=float)}
    roles = {"s": "sensitive", "y": "outcome"}
    for name, values in extra.items():
        cols[name] = np.asarray(values, dtype=float)
        roles[name] = "feature"
    kind = "classification" if set(np.unique(cols["y"])) <= {-1.0, 1.0} else "regression"
    return dataset_from_columns(cols, roles, outcome_kind=kind)


class TestMakeGrid:
    def test_binary_binary_reproduces_half_unit_edges(self):
        data = toy_dataset([1, -1, 1, -1], [0, 1, 0, 1])
        grid = make_grid(data, 2, 2)
        np.testing.assert_allclose(grid.y_edges, [-1.5, 0.0, 1.5])
        np.testing.assert_allclose(grid.s_edges, [-0.5, 0.5, 1.5])

    def test_single_bin_covers_everything(self):
        rng = np.random.default_rng(1)
        data = toy_dataset(rng.normal(size=50), rng.integers(0, 2, 50))
        grid = make_grid(data, 1, 2)
        assert grid.n_y_bins == 1
        k, _ = grid.cell_of(data.outcome, data.sensitive)
        assert set(k) == {0}

    def test_quantile_edges_near_percentiles(self):
        rng = np.random.default_rng(2)
        y = rng.uniform(size=100)
        data = toy_dataset(y, rng.integers(0, 2, 100))
        grid = make_grid(data, 4, 2)
        np.testing.assert_allclose(grid.y_edges[1:4], np.quantile(y, [0.25, 0.5, 0.75]))

    def test_too_few_distinct_values(self):
        data = toy_dataset([1, -1, 1, -1], [0, 1, 0, 1])
        with pytest.raises(DatasetError, match="distinct"):
            make_grid(data, 3, 2)


class TestPartition:
    """``DiscretizationGrid.cell_ids``: each record's flat cell k * Q + q and the cell counts."""

    def test_four_singleton_cells(self):
        data = toy_dataset([1, 1, -1, -1], [0, 1, 0, 1])
        _, counts = make_grid(data, 2, 2).cell_ids(data.outcome, data.sensitive)
        assert counts.tolist() == [[1, 1], [1, 1]]

    def test_degenerate_single_cell(self):
        data = toy_dataset([1.0] * 5 + [2.0], [0.0] * 5 + [1.0])
        cell, counts = make_grid(data, 1, 1).cell_ids(data.outcome, data.sensitive)
        assert counts.tolist() == [[6]]
        assert cell.tolist() == [0] * 6

    def test_counts_match_double_loop(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=1000)
        s = rng.normal(size=1000)
        data = toy_dataset(y, s)
        grid = make_grid(data, 3, 3)
        cell, counts = grid.cell_ids(data.outcome, data.sensitive)
        brute = np.zeros((3, 3), dtype=int)
        for yi, si in zip(y, s):
            for k in range(3):
                for q in range(3):
                    if (
                        grid.y_edges[k] <= yi < grid.y_edges[k + 1]
                        and grid.s_edges[q] <= si < grid.s_edges[q + 1]
                    ):
                        brute[k, q] += 1
        np.testing.assert_array_equal(counts, brute)
        for k in range(3):
            for q in range(3):
                np.testing.assert_array_equal(np.flatnonzero(cell == k * 3 + q), np.flatnonzero(
                    (grid.y_edges[k] <= y) & (y < grid.y_edges[k + 1])
                    & (grid.s_edges[q] <= s) & (s < grid.s_edges[q + 1])))
        assert counts.sum() == 1000

    def test_record_outside_grid(self):
        data = toy_dataset([0.0, 10.0], [0, 1])
        grid = make_grid(toy_dataset([0.0, 1.0], [0, 1]), 2, 2)
        with pytest.raises(DatasetError, match="outside the grid"):
            grid.cell_ids(data.outcome, data.sensitive)


class TestRegistry:
    def test_compas_row(self):
        entry = describe_dataset("COMPAS")
        assert entry.n_samples == "11758"
        assert entry.n_features == "36"
        assert entry.tasks == ("BC", "MC")

    def test_adult_row(self):
        entry = describe_dataset("adult")
        assert entry.n_samples == "48842"
        assert entry.n_features == "14"

    def test_unknown_name(self):
        with pytest.raises(DatasetError):
            describe_dataset("nope")
