"""Workload inputs and output checks, run by the harness as a child.

Each workload turns a seed into input CSV files and checks the outputs of a
finished job (the commands in ``jobs.py``) with the benchmark's own numpy
code.  The program only ever sees the generated files (and, for
``sem sample``, the same seed as ``--seed``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from jobs import (CLS_FEATURES, CLS_ROWS, FERM_EPS, MTL_D, MTL_R, MTL_ROWS, MTL_TASKS,
                  PSE_SAMPLES, RBF_ROWS, REG_FEATURES, REG_GRID, REG_ROWS, SCORE_GROUPS,
                  SCORE_ROWS, SEM_ROWS, SWEEP, features)


class CheckFailed(Exception):
    """An output of a CLI command is missing, unparseable or wrong."""


@dataclass(frozen=True)
class Workload:
    generate: Callable[[int, Path], dict]  # (seed, input dir) -> input sizes
    check: Callable[[Path, Path], dict[str, str]]  # (inputs, outputs) -> {command: error}


# ---------------------------------------------------------------- helpers


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """Write columns with ``repr`` floats so the program parses them exactly."""
    cells = []
    for col in columns:
        col = np.asarray(col)
        if col.dtype.kind == "f":
            cells.append([repr(v) for v in col.tolist()])
        else:
            cells.append([str(v) for v in col.tolist()])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("\n".join(",".join(row) for row in zip(*cells)))
        fh.write("\n")


def _read_numeric(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float matrix of a numeric CSV file."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    if values.shape[1] != len(header):
        raise CheckFailed(f"{path.name}: ragged rows")
    return header, values


def _read_columns(path: Path, usecols: dict[str, type]) -> dict[str, np.ndarray]:
    """Selected columns of a CSV file that may hold non-numeric columns."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        idx = [header.index(name) for name in usecols]
        table = np.loadtxt(fh, delimiter=",", dtype=str, usecols=idx, ndmin=2)
    out = {}
    for j, (name, kind) in enumerate(usecols.items()):
        out[name] = table[:, j] if kind is str else table[:, j].astype(kind)
    return out


def _load_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _run_checks(checks: dict[str, Callable[[], None]]) -> dict[str, str]:
    errors = {}
    for name, fn in checks.items():
        try:
            fn()
        except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            errors[name] = f"{type(exc).__name__}: {exc}"
    return errors


def _quantile_table(values: np.ndarray, bins: int) -> np.ndarray:
    """q(i) = the smallest sample whose cumulative count c has c*B > (i-1)*N."""
    v = np.sort(values)
    return v[(np.arange(bins, dtype=np.int64) * v.size) // bins]


def _quantile_edges(values: np.ndarray, bins: int) -> np.ndarray:
    """Quantile grid edges over a continuous axis (more distinct values than bins)."""
    lo, hi = float(values.min()), float(np.nextafter(values.max(), np.inf))
    inner = np.quantile(values, np.arange(1, bins) / bins)
    return np.concatenate(([lo], inner, [hi]))


def _cell_mean_l1(f: np.ndarray, k_idx: np.ndarray, q_idx: np.ndarray, n_k: int, n_q: int) -> float:
    """Sum over outcome bins and pairs of non-empty cells of |mean f gap|."""
    cell = k_idx * n_q + q_idx
    counts = np.bincount(cell, minlength=n_k * n_q).reshape(n_k, n_q)
    sums = np.bincount(cell, weights=f, minlength=n_k * n_q).reshape(n_k, n_q)
    total = 0.0
    for k in range(n_k):
        present = np.nonzero(counts[k])[0]
        means = sums[k, present] / counts[k, present]
        total += float(np.abs(means[:, None] - means[None, :]).sum() / 2.0)
    return total


def _objective(loss: str, f: np.ndarray, y: np.ndarray, penalty: float) -> float:
    if loss == "squared":
        data = np.sum((f - y) ** 2)
    elif loss == "hinge":
        data = np.sum(np.maximum(0.0, 1.0 - y * f))
    else:
        data = np.sum(np.logaddexp(0.0, -y * f))
    return float(data + penalty)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# ------------------------------------------------------------ score_audit


def _gen_scores(seed: int, inputs: Path) -> dict:
    rng = np.random.default_rng([seed, 1])
    # 2 x 4 x 4 intersectional labels with uneven sizes (each >= n/64 in expectation)
    labels = np.array([f"{s}-{r}-{a}" for s in "FM" for r in "NSEW" for a in range(4)])
    p = 0.5 / SCORE_GROUPS + 0.5 * rng.dirichlet(np.full(SCORE_GROUPS, 4.0))
    g = rng.choice(SCORE_GROUPS, size=SCORE_ROWS, p=p)
    shape_a = rng.uniform(1.5, 5.0, SCORE_GROUPS)
    shape_b = rng.uniform(1.5, 5.0, SCORE_GROUPS)
    score = rng.beta(shape_a[g], shape_b[g])
    y = (rng.random(SCORE_ROWS) < score).astype(int)
    _write_csv(inputs / "scores.csv", ["id", "group", "score", "y"],
               [np.arange(SCORE_ROWS), labels[g], score, y])
    return {"scores.csv": {"rows": SCORE_ROWS, "groups": int(np.unique(g).size)}}


def _score_check(inp: Path, out: Path) -> dict[str, str]:
    cols = _read_columns(inp / "scores.csv", {"group": str, "score": float, "y": float})
    groups, score, y = cols["group"], cols["score"], cols["y"]
    codes, inverse, sizes = np.unique(groups, return_inverse=True, return_counts=True)
    bins = min(100, int(sizes.min()))

    def metrics():
        report = _load_json(out / "metrics.json")["results"]
        expected = ("strong_demographic_parity", "demographic_parity",
                    "equal_false_positive_rates", "equal_false_negative_rates",
                    "predictive_parity", "general_fairness", "loss_general_fairness_hard",
                    "loss_general_fairness_linear")
        for name in expected:
            _require(name in report, f"criterion {name} missing")
            _require(np.isfinite(report[name]["value"]), f"criterion {name} is not finite")
        rates = np.bincount(inverse, weights=(score > 0.5)) / sizes
        dp = float(rates.max() - rates.min())
        got = report["demographic_parity"]["value"]
        _require(_close(got, dp, 1e-12), f"demographic_parity {got} != recomputed {dp}")

    def repair_full():
        rep = _read_columns(out / "repaired.csv", {"group": str, "repaired_score": float})
        _require(rep["group"].size == score.size, "repaired.csv row count")
        tables = [_quantile_table(rep["repaired_score"][rep["group"] == c], bins) for c in codes]
        worst = max(float(np.mean(np.abs(a - b))) for i, a in enumerate(tables) for b in tables[i + 1:])
        _require(worst <= 2.0 / bins, f"max pairwise W1 {worst} > 2/B = {2.0 / bins}")
        with open(out / "sweep.csv", encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        pairs = len(codes) * (len(codes) - 1) // 2
        _require(len(rows) == len(SWEEP) * pairs, f"sweep.csv has {len(rows)} rows")
        at_one = [float(r.rsplit(",", 1)[1]) for r in rows if float(r.split(",", 1)[0]) == 1.0]
        _require(max(at_one) <= 2.0 / bins, "sweep at t=1 exceeds 2/B")
        _load_json(out / "repair_full.json")

    def repair_half():
        summary = _load_json(out / "repair_half.json")["results"]["groups"]
        _require(len(summary) == len(codes), "repair report misses groups")
        for code, entry in summary.items():
            before, after = entry["w_to_barycenter_before"], entry["w_to_barycenter_after"]
            _require(after <= before, f"group {code}: W after {after} > before {before}")

    return _run_checks({"metrics": metrics, "repair_full": repair_full, "repair_half": repair_half})


# ------------------------------------------------------------- fair_train


def _gen_fair_train(seed: int, inputs: Path) -> dict:
    rng = np.random.default_rng([seed, 2])
    s = (rng.random(CLS_ROWS) < 0.4).astype(int)
    shift = np.array([0.8, -0.5, 0.3, 0.0, 0.6])
    X = rng.standard_normal((CLS_ROWS, CLS_FEATURES)) + s[:, None] * shift
    w = rng.uniform(-1.0, 1.0, CLS_FEATURES)
    y = np.where(X @ w + 0.5 * s + 0.5 * rng.standard_normal(CLS_ROWS) > 0, 1, -1)
    header = ["s"] + features(CLS_FEATURES) + ["y"]
    _write_csv(inputs / "cls.csv", header, [s, *X.T, y])
    _write_csv(inputs / "cls_small.csv", header, [s[:RBF_ROWS], *X[:RBF_ROWS].T, y[:RBF_ROWS]])

    sc = rng.standard_normal(REG_ROWS)
    # weak enough dependence on s that all 10 x 10 cells stay populated
    Xr = rng.standard_normal((REG_ROWS, REG_FEATURES)) + sc[:, None] * np.array([0.4, -0.3, 0.2, 0.0])
    yr = Xr @ rng.uniform(-1.0, 1.0, REG_FEATURES) + 0.3 * sc + rng.standard_normal(REG_ROWS)
    _write_csv(inputs / "reg.csv", ["s"] + features(REG_FEATURES) + ["y"], [sc, *Xr.T, yr])
    return {
        "cls.csv": {"rows": CLS_ROWS, "features": CLS_FEATURES, "groups": 2},
        "cls_small.csv": {"rows": RBF_ROWS, "features": CLS_FEATURES, "groups": 2},
        "reg.csv": {"rows": REG_ROWS, "features": REG_FEATURES, "sensitive": "continuous"},
    }


def _fair_train_check(inp: Path, out: Path) -> dict[str, str]:
    _, table = _read_numeric(inp / "cls.csv")
    s, X, y = table[:, 0], table[:, 1:-1], table[:, -1]
    # 2 x 2 grid: binary labels and binary groups are their own bins
    k_idx, q_idx = (y > 0).astype(int), s.astype(int)

    def model(name):
        doc = _load_json(out / f"{name}.model.json")
        report = _load_json(out / f"{name}.json")["results"]
        _require(_close(report["objective_value"], doc["objective_value"], 0.0), f"{name}: objectives differ")
        return doc, report

    def linear(name, loss, eps):
        doc, report = model(name)
        beta = np.array(doc["coef"], dtype=float)
        f = X @ beta
        l1 = _cell_mean_l1(f, k_idx, q_idx, 2, 2)
        _require(l1 <= eps + 1e-6, f"{name}: cell-mean L1 {l1} > {eps} + 1e-6")
        obj = _objective(loss, f, y, float(beta @ beta))
        got = report["objective_value"]
        _require(_close(got, obj, 1e-9), f"{name}: objective {got} != recomputed {obj}")
        return beta, obj

    def iterative(name, loss):
        beta, obj = linear(name, loss, FERM_EPS)
        sq0 = np.array(_load_json(out / "sq0.model.json")["coef"], dtype=float)
        at_zero = _objective(loss, np.zeros_like(y), y, 0.0)
        at_sq0 = _objective(loss, X @ sq0, y, float(sq0 @ sq0))
        _require(obj <= at_zero and obj <= at_sq0,
                 f"{name}: objective {obj} above the feasible points 0 ({at_zero}) / sq0 ({at_sq0})")

    def rbf():
        doc, report = model("rbf0")
        _, small = _read_numeric(inp / "cls_small.csv")
        Z = np.array(doc["training_inputs"], dtype=float)
        _require(np.array_equal(Z, small[:, 1:-1]), "rbf0: training inputs differ from the file")
        alpha = np.array(doc["dual_coef"], dtype=float)
        sq = np.sum(Z * Z, axis=1)[:, None] + np.sum(Z * Z, axis=1)[None, :] - 2.0 * Z @ Z.T
        K = np.exp(-0.1 * np.maximum(sq, 0.0))
        f = K @ alpha
        ys = small[:, -1]
        l1 = _cell_mean_l1(f, (ys > 0).astype(int), small[:, 0].astype(int), 2, 2)
        _require(l1 <= 1e-6, f"rbf0: cell-mean L1 {l1} > 1e-6")
        obj = _objective("squared", f, ys, float(alpha @ K @ alpha))
        _require(_close(report["objective_value"], obj, 1e-7), f"rbf0: objective {obj} differs")

    def reg_grid():
        doc, report = model("reg_grid")
        _, reg = _read_numeric(inp / "reg.csv")
        sr, Xr, yr = reg[:, 0], reg[:, 1:-1], reg[:, -1]
        beta = np.array(doc["coef"], dtype=float)
        f = Xr @ beta
        ky = np.searchsorted(_quantile_edges(yr, REG_GRID), yr, side="right") - 1
        qs = np.searchsorted(_quantile_edges(sr, REG_GRID), sr, side="right") - 1
        l1 = _cell_mean_l1(f, ky, qs, REG_GRID, REG_GRID)
        _require(l1 <= 1e-6, f"reg_grid: cell-mean L1 {l1} > 1e-6")
        present = np.bincount(ky * REG_GRID + qs, minlength=REG_GRID ** 2).reshape(REG_GRID, REG_GRID) > 0
        pairs = int(sum(m * (m - 1) // 2 for m in present.sum(axis=1)))
        got = len(report["constraint_report"]["pairs"])
        _require(got == pairs, f"reg_grid: {got} constraint pairs, expected {pairs}")
        obj = _objective("squared", f, yr, float(beta @ beta))
        _require(_close(report["objective_value"], obj, 1e-9), f"reg_grid: objective {obj} differs")

    def common():
        residuals = _load_json(out / "common.json")["results"]["constraint_residuals"]
        _require(len(residuals) > 0, "common: no constraints")
        _require(max(residuals) <= 1e-8, f"common: residual {max(residuals)} > 1e-8")

    return _run_checks({
        "sq0": lambda: linear("sq0", "squared", 0.0),
        "sq05": lambda: linear("sq05", "squared", FERM_EPS),
        "hinge05": lambda: iterative("hinge05", "hinge"),
        "logistic05": lambda: iterative("logistic05", "logistic"),
        "rbf0": rbf,
        "reg_grid": reg_grid,
        "common": common,
    })


# ------------------------------------------------------- causal_multitask


def _gen_causal(seed: int, inputs: Path) -> dict:
    rng = np.random.default_rng([seed, 3])
    A_true = rng.standard_normal((MTL_D, MTL_R)) / np.sqrt(MTL_D)

    def task(n):
        s = (rng.random(n) < 0.5).astype(int)
        gap = 0.5 * rng.standard_normal(MTL_D)
        X = rng.standard_normal((n, MTL_D)) + s[:, None] * gap
        y = X @ A_true @ rng.standard_normal(MTL_R) + 0.5 * rng.standard_normal(n)
        return s, X, y

    blocks = [task(MTL_ROWS) for _ in range(MTL_TASKS)]
    t = np.repeat(np.arange(MTL_TASKS), MTL_ROWS)
    s = np.concatenate([b[0] for b in blocks])
    X = np.vstack([b[1] for b in blocks])
    y = np.concatenate([b[2] for b in blocks])
    _write_csv(inputs / "tasks.csv", ["t", "s"] + features(MTL_D) + ["y"], [t, s, *X.T, y])
    s1, X1, y1 = task(MTL_ROWS)
    _write_csv(inputs / "new_task.csv", ["s"] + features(MTL_D) + ["y"], [s1, *X1.T, y1])
    return {
        "sem sample": {"rows": SEM_ROWS, "scenario": "college"},
        "sem pse": {"mc_samples": PSE_SAMPLES},
        "tasks.csv": {"tasks": MTL_TASKS, "rows_per_task": MTL_ROWS, "features": MTL_D},
        "new_task.csv": {"rows": MTL_ROWS, "features": MTL_D},
    }


def _causal_check(inp: Path, out: Path) -> dict[str, str]:
    def sample_cols():
        header, table = _read_numeric(out / "sample.csv")
        _require(header == ["A", "Q", "D", "Y"], f"sample.csv header {header}")
        _require(table.shape[0] == SEM_ROWS, "sample.csv row count")
        return {name: table[:, j] for j, name in enumerate(header)}

    def sample():
        sample_cols()

    def fit():
        sem = _load_json(out / "sem.json")
        coeffs = [c for eq in sem["equations"] for c in eq["coeffs"]]
        _require(len(coeffs) == 5, "sem fit: expected five edge coefficients")
        _require(all(abs(c - 1.0) <= 0.05 for c in coeffs), f"sem fit: coefficients {coeffs}")

    def ferm():
        report = _load_json(out / "ferm.json")["results"]["constraint_report"]
        _require(report["achieved_l1"] <= 1e-6, f"ferm: achieved L1 {report['achieved_l1']}")

    def correct():
        cols = sample_cols()
        coef = np.array(_load_json(out / "ferm.model.json")["coef"], dtype=float)
        sem = _load_json(out / "sem.json")
        c_ad = next(eq["coeffs"][eq["parents"].index("A")] for eq in sem["equations"] if eq["name"] == "D")
        _, got = _read_numeric(out / "corrected.csv")
        A, Q, D = cols["A"], cols["Q"], cols["D"]
        # all unfair paths (A>Y, A>D>Y) switched to a_bar = 1: D moves, Q stays
        original = coef[0] * Q + coef[1] * D
        corrected = coef[0] * Q + coef[1] * (D + c_ad * (1.0 - A))
        for j, (name, want) in enumerate((("score", original), ("corrected_score", corrected)), start=2):
            err = float(np.max(np.abs(got[:, j] - want) / (1.0 + np.abs(want))))
            _require(err <= 1e-9, f"correct: {name} differs from the closed form by {err}")

    def pse():
        results = _load_json(out / "pse.json")["results"]
        _require(results["closed_form"] == 2.0, f"pse closed form {results['closed_form']}")
        _require(abs(results["monte_carlo"] - 2.0) <= 1e-9, f"pse Monte Carlo {results['monte_carlo']}")

    def train_rep():
        doc = _load_json(out / "rep.json")
        _require(doc["max_gap_alignment"] <= 1e-8, f"train-rep: gap alignment {doc['max_gap_alignment']}")
        h = np.array(doc["objective_history"])
        _require(bool(np.all(np.diff(h) <= 0.0)), "train-rep: objective history increases")

    def transfer():
        rep = _load_json(out / "rep.json")
        res = _load_json(out / "transfer.json")["results"]
        b = np.array(res["coefficients"])
        _require(b.shape == (MTL_R,) and np.all(np.isfinite(b)), "transfer: coefficients")
        w = np.array(rep["A"]) @ b
        _require(np.allclose(res["weights"], w, rtol=1e-12, atol=1e-14), "transfer: weights != A b")
        _require(np.isfinite(res["fairness_diagnostic"]), "transfer: diagnostic not finite")

    return _run_checks({"sample": sample, "fit": fit, "ferm": ferm, "correct": correct,
                        "pse": pse, "train_rep": train_rep, "transfer": transfer})


WORKLOADS = {
    "score_audit": Workload(_gen_scores, _score_check),
    "fair_train": Workload(_gen_fair_train, _fair_train_check),
    "causal_multitask": Workload(_gen_causal, _causal_check),
}


def _blas() -> dict:
    """The BLAS numpy links and the thread count it will use."""
    import ctypes
    import glob
    import os

    info = {"threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                break
    info["env"] = {k: os.environ.get(k) for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def main(argv: list[str]) -> int:
    """``generate NAME SEED DIR`` or ``check NAME INPUTS OUTPUTS``; prints JSON.

    The harness runs these in a child process so that its own memory stays
    small: a child's peak RSS includes the RSS of the process it forked from.
    """
    action, name, *rest = argv
    wl = WORKLOADS[name]
    if action == "generate":
        seed, inputs = int(rest[0]), Path(rest[1])
        inputs.mkdir(parents=True, exist_ok=True)
        doc = {"sizes": wl.generate(seed, inputs), "numpy": np.__version__, "blas": _blas()}
    elif action == "check":
        doc = {"errors": wl.check(Path(rest[0]), Path(rest[1]))}
    else:
        raise SystemExit(f"unknown action {action!r}")
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
