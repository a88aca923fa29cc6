import csv
import json
from pathlib import Path

import numpy as np
import pytest

from fairkit.cli import _rep_from_json, _rep_to_json, main
from fairkit.dataset import MAX_FEATURE_BYTES, load_csv
from fairkit.multitask import tasks_from_dataset, train_representation
from fairkit.transport import EmpiricalDistribution, geodesic_repair, wasserstein

GOLDEN = Path(__file__).parent / "golden"


def write_scores(path, rng, n_per_group=200, with_outcome=True):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "group", "score", "y"] if with_outcome else ["id", "group", "score"])
        i = 0
        for group, loc in (("a", 0.35), ("b", 0.6)):
            for _ in range(n_per_group):
                score = float(np.clip(rng.normal(loc, 0.12), 0.0, 1.0))
                row = [i, group, repr(score)]
                if with_outcome:
                    row.append(repr(1.0 if rng.random() < score else -1.0))
                writer.writerow(row)
                i += 1
    return path


def write_classification_csv(path, rng, n=120, d=3):
    header = ["g"] + [f"x{j}" for j in range(d)] + ["y"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for _ in range(n):
            g = int(rng.random() < 0.5)
            x = rng.normal(size=d)
            y = 1.0 if x[0] + 0.5 * g + 0.3 * rng.standard_normal() > 0 else -1.0
            x[d - 1] += 1.2 * g
            writer.writerow([g] + [repr(float(v)) for v in x] + [repr(y)])
    schema = {"g": "sensitive", "y": "outcome"}
    schema.update({f"x{j}": "feature" for j in range(d)})
    return path, json.dumps(schema)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["metrics", "--nope"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_dataset_is_data_error(self, capsys):
        assert main(["datasets", "describe", "nope"]) == 2

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["metrics", "--input", str(tmp_path / "none.csv")]) == 2

    def test_vanishing_ridge_hinge_is_solver_error(self, tmp_path, capsys):
        data, schema = write_classification_csv(tmp_path / "train.csv", np.random.default_rng(4))
        code = main([
            "ferm-train", "--input", str(data), "--schema", schema, "--loss", "hinge",
            "--lambda", "1e-300", "--epsilon", "0.1",
            "--model-output", str(tmp_path / "m.json"), "--output", str(tmp_path / "r.json"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure:") and err.count("\n") == 1

    def test_nan_feature_is_data_error(self, tmp_path, capsys):
        data, schema = write_classification_csv(tmp_path / "train.csv", np.random.default_rng(4))
        lines = data.read_text().splitlines()
        row = lines[5].split(",")
        row[1] = "nan"
        lines[5] = ",".join(row)
        data.write_text("\n".join(lines) + "\n")
        code = main([
            "ferm-train", "--input", str(data), "--schema", schema,
            "--model-output", str(tmp_path / "m.json"), "--output", str(tmp_path / "r.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: row 6, column 'x0': non-finite value 'nan'\n"


    def test_non_finite_score_is_data_error(self, tmp_path, capsys):
        scores = write_scores(tmp_path / "scores.csv", np.random.default_rng(0), n_per_group=5)
        lines = scores.read_text().splitlines()
        lines[3] = "2,a,inf,1.0"
        scores.write_text("\n".join(lines) + "\n")
        assert main(["metrics", "--input", str(scores)]) == 2
        assert capsys.readouterr().err == "error: row 4, column 'score': non-finite value 'inf'\n"

    def test_short_scores_row_is_data_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("id,group,score\n0,a,0.5\n1,b\n")
        assert main(["metrics", "--input", str(scores)]) == 2
        assert capsys.readouterr().err == "error: row 3: expected 3 cells, found 2\n"

    def test_blank_line_in_scores_file_is_data_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("id,group,score\n0,a,0.5\n\n1,b,inf\n")
        assert main(["metrics", "--input", str(scores)]) == 2
        assert capsys.readouterr().err == "error: row 3: expected 3 cells, found 0\n"

    def test_padded_scores_header_reads_like_load_csv(self, tmp_path, capsys):
        plain = write_scores(tmp_path / "plain.csv", np.random.default_rng(2), n_per_group=20)
        lines = plain.read_text().splitlines()
        padded = tmp_path / "padded.csv"
        padded.write_text("\n".join(["id, group ,score,y"] + lines[1:]) + "\n")
        for path in (plain, padded):
            assert main(["metrics", "--input", str(path), "--output", str(path.with_suffix(".json"))]) == 0
        assert padded.with_suffix(".json").read_text() == plain.with_suffix(".json").read_text()

    def test_one_hot_too_wide_is_data_error(self, tmp_path, capsys):
        n = int(np.sqrt(MAX_FEATURE_BYTES / 8)) + 1
        rows = [f"{i % 2},np.float64({i}),{1 if i % 3 else -1}" for i in range(n)]
        data = tmp_path / "wide.csv"
        data.write_text("\n".join(["g,x0,y"] + rows) + "\n")
        schema = json.dumps({"g": "sensitive", "x0": "feature", "y": "outcome"})
        code = main(["ferm-train", "--input", str(data), "--schema", schema,
                     "--model-output", str(tmp_path / "m.json"), "--output", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: feature matrix of {n} x {n} needs 1.0 GiB, above the 1 GiB limit")
        assert err.endswith(f"; column 'x0' has {n} categories\n") and err.count("\n") == 1

    def test_rbf_kernel_above_cap_is_data_error(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(4)
        small, schema = write_classification_csv(tmp_path / "small.csv", rng, n=40)
        large, _ = write_classification_csv(tmp_path / "large.csv", rng, n=120)
        monkeypatch.setattr("fairkit.dataset.MAX_FEATURE_BYTES", 50 * 50 * 8)
        model = tmp_path / "m.json"

        def train(path):
            return main(["ferm-train", "--input", str(path), "--schema", schema, "--kernel", "rbf",
                         "--gamma", "0.5", "--epsilon", "0", "--model-output", str(model),
                         "--output", str(tmp_path / "r.json")])

        def assert_one_line(shape):
            err = capsys.readouterr().err
            assert err.startswith(f"error: rbf kernel matrix of {shape} needs ") and err.count("\n") == 1

        assert train(large) == 2
        assert_one_line("120 x 120")
        assert train(small) == 0
        assert main(["ferm-predict", "--model", str(model), "--input", str(large), "--schema", schema,
                     "--scores-output", str(tmp_path / "s.csv")]) == 2
        assert_one_line("120 x 40")

    def test_sem_document_without_pi_is_data_error(self, tmp_path, capsys):
        doc = tmp_path / "sem.json"
        doc.write_text(json.dumps({"sensitive": "A"}))
        assert main(["sem", "pse", "--sem", str(doc)]) == 2
        assert capsys.readouterr().err == "error: SEM document lacks the field 'pi'\n"

    def test_representation_document_without_a_is_data_error(self, tmp_path, capsys):
        data, schema = write_multitask_csv(tmp_path / "one.csv", np.random.default_rng(0), T=1, n=10)
        doc = tmp_path / "rep.json"
        doc.write_text(json.dumps({"B": []}))
        code = main(["mtl", "transfer", "--model", str(doc), "--input", str(data), "--schema", schema])
        assert code == 2
        assert capsys.readouterr().err == "error: representation document lacks the field 'A'\n"

    @pytest.mark.parametrize("command", [
        ["repair", "--input", "s.csv", "--t", "1", "--sweep", "0,abc"],
        ["ferm-train", "--input", "d.csv", "--schema", "{}", "--epsilon-sweep", "0,abc"],
    ])
    def test_bad_sweep_number_is_usage_error(self, command, capsys):
        assert main(command) == 1
        err = capsys.readouterr().err
        flag = command[-2]
        assert f"argument {flag}: expected comma-separated numbers, got '0,abc'" in err
        assert "Traceback" not in err

    def test_sweep_t_outside_range_is_data_error(self, tmp_path, capsys):
        scores = write_scores(tmp_path / "scores.csv", np.random.default_rng(1), n_per_group=20)
        code = main([
            "repair", "--input", str(scores), "--t", "0.5", "--sweep", "0,1.5",
            "--sweep-output", str(tmp_path / "sweep.csv"), "--output", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: trade-off t=1.5 outside [0, 1]\n"


class TestDatasets:
    def test_describe_compas(self, tmp_path, capsys):
        assert main(["datasets", "describe", "COMPAS"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["n_samples"] == "11758"
        assert doc["results"]["n_features"] == "36"
        assert doc["results"]["tasks"] == ["BC", "MC"]

    def test_describe_adult(self, capsys):
        assert main(["datasets", "describe", "adult"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["n_samples"] == "48842"
        assert doc["results"]["n_features"] == "14"

    def test_list_contains_all_rows(self, capsys):
        assert main(["datasets", "list"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 24


class TestMetricsCommand:
    def test_report_and_determinism(self, tmp_path):
        scores = write_scores(tmp_path / "scores.csv", np.random.default_rng(0))
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            code = main([
                "metrics", "--input", str(scores), "--threshold", "0.5",
                "--grid-k", "2", "--output", str(out),
            ])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        for name in (
            "demographic_parity",
            "strong_demographic_parity",
            "equal_false_positive_rates",
            "equal_false_negative_rates",
            "predictive_parity",
            "general_fairness",
        ):
            assert name in doc["results"]

    def test_score_only_report(self, tmp_path):
        scores = write_scores(tmp_path / "s.csv", np.random.default_rng(1), with_outcome=False)
        out = tmp_path / "r.json"
        assert main(["metrics", "--input", str(scores), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert list(doc["results"]) == ["strong_demographic_parity"]


class TestRepairCommand:
    def test_full_repair_then_metrics(self, tmp_path):
        rng = np.random.default_rng(2)
        scores = write_scores(tmp_path / "scores.csv", rng)
        repaired = tmp_path / "repaired.csv"
        report = tmp_path / "repair.json"
        code = main([
            "repair", "--input", str(scores), "--t", "1.0", "--bins", "100",
            "--scores-output", str(repaired), "--output", str(report),
        ])
        assert code == 0
        with open(repaired) as fh:
            rows = list(csv.DictReader(fh))
        groups = np.array([r["group"] for r in rows])
        values = np.array([float(r["repaired_score"]) for r in rows])
        from fairkit.metrics import ScoreSet, strong_demographic_parity

        result = strong_demographic_parity(ScoreSet(values, groups), bins=100)
        assert result.max_w1 <= 2.0 / 100

    def test_sweep_rows(self, tmp_path):
        rng = np.random.default_rng(3)
        scores = write_scores(tmp_path / "scores.csv", rng, n_per_group=50)
        sweep = tmp_path / "sweep.csv"
        code = main([
            "repair", "--input", str(scores), "--t", "0.5", "--bins", "25",
            "--sweep", "0,0.25,0.5,0.75,1", "--sweep-output", str(sweep),
            "--output", str(tmp_path / "r.json"),
        ])
        assert code == 0
        lines = sweep.read_text().strip().splitlines()
        assert lines[0] == "x,series,value"
        assert len(lines) == 6  # one pair, five trade-off values


    def test_sweep_matches_one_repair_per_t(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        ts = (0.0, 0.25, 0.5, 1.0)
        assert main([
            "repair", "--input", str(GOLDEN / "scores.csv"), "--t", "0.7", "--order", "1",
            "--sweep", ",".join(map(str, ts)), "--sweep-output", str(sweep),
            "--output", str(tmp_path / "r.json"),
        ]) == 0
        with open(GOLDEN / "scores.csv") as fh:
            rows = list(csv.DictReader(fh))
        groups = np.array([r["group"] for r in rows])
        values = np.array([float(r["score"]) for r in rows])
        labels = list(dict.fromkeys(groups.tolist()))
        expected = ["x,series,value"]
        for t in ts:
            repaired, plan = geodesic_repair(values, groups, t=t, order=1)
            dists = [EmpiricalDistribution.from_samples(repaired[groups == g], bins=plan.bins)
                     for g in labels]
            expected += [
                f"{t!r},w1:{a}-{b},{wasserstein(dists[i], dists[j], order=1)!r}"
                for i, a in enumerate(labels) for j, b in enumerate(labels) if i < j
            ]
        assert sweep.read_text().splitlines() == expected


class TestGoldenReports:
    """Reports on a committed 600-row, 6-group scores file, byte for byte as first written."""

    def test_metrics_and_repairs_reproduce_golden_outputs(self, tmp_path):
        scores = str(GOLDEN / "scores.csv")
        for argv in (
            ["metrics", "--input", scores, "--threshold", "0.5", "--grid-k", "2", "--grid-q", "6",
             "--output", str(tmp_path / "metrics.json")],
            ["repair", "--input", scores, "--t", "1", "--scores-output", str(tmp_path / "repaired.csv"),
             "--sweep", "0,0.5,1", "--sweep-output", str(tmp_path / "sweep.csv"),
             "--output", str(tmp_path / "repair_full.json")],
            ["repair", "--input", scores, "--t", "0.5", "--order", "1",
             "--output", str(tmp_path / "repair_half.json")],
        ):
            assert main(argv) == 0
        for name in ("metrics.json", "repaired.csv", "sweep.csv", "repair_full.json", "repair_half.json"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


SEM_SCHEMA = json.dumps({"A": "sensitive", "Q": "feature", "D": "feature", "Y": "outcome"})
CLS_SCHEMA = json.dumps({"g": "sensitive", "x0": "feature", "x1": "feature", "x2": "feature", "y": "outcome"})
MTL_FEATURES = {f"x{j}": "feature" for j in range(4)}
MTL_SCHEMA = json.dumps({"task": "task", "g": "sensitive", **MTL_FEATURES, "y": "outcome"})
NEW_TASK_SCHEMA = json.dumps({"task": "ignore", "g": "sensitive", **MTL_FEATURES, "y": "outcome"})

# name -> (argv, files written).  "{g}" is tests/golden, which holds the
# inputs (cls.csv, tasks.csv, task_new.csv) and every earlier run's outputs;
# "{out}" is where the run writes.  Running the table in order with
# out=tests/golden rewrites the golden files.
GOLDEN_RUNS = {
    "sem_sample_college": (
        ["sem", "sample", "--scenario", "college", "--n", "200", "--seed", "11",
         "--scores-output", "{out}/sem_college.csv"], ["sem_college.csv"]),
    "sem_sample_music": (
        ["sem", "sample", "--scenario", "music", "--n", "50", "--seed", "12",
         "--scores-output", "{out}/sem_music.csv"], ["sem_music.csv"]),
    "sem_fit": (
        ["sem", "fit", "--scenario", "college", "--input", "{g}/sem_college.csv", "--schema", SEM_SCHEMA,
         "--output", "{out}/sem_fit.json"], ["sem_fit.json"]),
    "sem_pse_scenario": (
        ["sem", "pse", "--scenario", "college", "--mc-samples", "2000", "--seed", "13",
         "--output", "{out}/pse_college.json"], ["pse_college.json"]),
    "sem_pse_fitted": (
        ["sem", "pse", "--sem", "{g}/sem_fit.json", "--paths", "A>Y,A>D", "--a", "0.25", "--a-bar", "1.5",
         "--mc-samples", "2000", "--seed", "14", "--output", "{out}/pse_fitted.json"], ["pse_fitted.json"]),
    "sem_counterfactual": (
        ["sem", "counterfactual", "--sem", "{g}/sem_fit.json", "--a-bar", "1",
         "--record", '{"A": 0, "Q": 0.37, "D": -1.25, "Y": 2.3}', "--output", "{out}/counterfactual.json"],
        ["counterfactual.json"]),
    "ferm_train_sem_sample": (
        ["ferm-train", "--input", "{g}/sem_college.csv", "--schema", SEM_SCHEMA, "--outcome-kind", "regression",
         "--epsilon", "0", "--lambda", "0.1", "--use-sensitive",
         "--model-output", "{out}/sem_ferm.model.json", "--output", "{out}/sem_ferm.json"],
        ["sem_ferm.model.json", "sem_ferm.json"]),
    "sem_correct_scores": (
        ["sem", "correct-scores", "--sem", "{g}/sem_fit.json", "--model", "{g}/sem_ferm.model.json",
         "--input", "{g}/sem_college.csv", "--schema", SEM_SCHEMA, "--scores-output", "{out}/corrected.csv"],
        ["corrected.csv"]),
    "ferm_train_logistic": (
        ["ferm-train", "--input", "{g}/cls.csv", "--schema", CLS_SCHEMA, "--loss", "logistic",
         "--epsilon", "0.1", "--lambda", "0.5", "--epsilon-sweep", "0,0.05,0.5",
         "--sweep-output", "{out}/ferm_sweep.csv", "--model-output", "{out}/ferm_logistic.model.json",
         "--output", "{out}/ferm_logistic.json"],
        ["ferm_sweep.csv", "ferm_logistic.model.json", "ferm_logistic.json"]),
    "ferm_predict": (
        ["ferm-predict", "--model", "{g}/ferm_logistic.model.json", "--input", "{g}/cls.csv",
         "--schema", CLS_SCHEMA, "--scores-output", "{out}/ferm_scores.csv"], ["ferm_scores.csv"]),
    "mtl_train_rep": (
        ["mtl", "train-rep", "--input", "{g}/tasks.csv", "--schema", MTL_SCHEMA, "--r", "2",
         "--lambda", "0.1", "--mode", "equality", "--seed", "15", "--output", "{out}/mtl_rep.json"],
        ["mtl_rep.json"]),
    "mtl_transfer": (
        ["mtl", "transfer", "--model", "{g}/mtl_rep.json", "--input", "{g}/task_new.csv",
         "--schema", NEW_TASK_SCHEMA, "--lambda", "0.1", "--output", "{out}/mtl_transfer.json"],
        ["mtl_transfer.json"]),
    "mtl_train_common": (
        ["mtl", "train-common", "--input", "{g}/cls.csv", "--schema", CLS_SCHEMA,
         "--outcome-kind", "classification", "--theta", "0.5", "--lambda", "0.5", "--rho", "1.0",
         "--output", "{out}/mtl_common.json"], ["mtl_common.json"]),
    # rbf dual coefficients are not determined by the inputs (the kernel is
    # near-singular), so this run is pinned by its predictions, not its model
    "ferm_rbf": (
        ["ferm-train", "--input", "{g}/cls.csv", "--schema", CLS_SCHEMA, "--kernel", "rbf", "--gamma", "0.5",
         "--epsilon", "0", "--lambda", "0.1", "--model-output", "{out}/rbf.model.json",
         "--output", "{out}/rbf.json"], []),
    "ferm_rbf_predict": (
        ["ferm-predict", "--model", "{out}/rbf.model.json", "--input", "{g}/cls.csv", "--schema", CLS_SCHEMA,
         "--scores-output", "{out}/rbf_scores.csv"], []),
}


def run_golden(name, out):
    argv, written = GOLDEN_RUNS[name]
    assert main([a.replace("{g}", str(GOLDEN)).replace("{out}", str(out)) for a in argv]) == 0
    return written


class TestGoldenSubcommands:
    """Every sem, ferm and mtl subcommand on committed inputs, byte for byte as first written."""

    @pytest.mark.parametrize("name", [n for n, (_, written) in GOLDEN_RUNS.items() if written])
    def test_reproduces_golden_outputs(self, tmp_path, name):
        for file in run_golden(name, tmp_path):
            assert (tmp_path / file).read_bytes() == (GOLDEN / file).read_bytes(), file

    def test_rbf_predictions_match_golden_scores(self, tmp_path):
        run_golden("ferm_rbf", tmp_path)
        run_golden("ferm_rbf_predict", tmp_path)
        got = np.loadtxt(tmp_path / "rbf_scores.csv", delimiter=",", skiprows=1)
        want = np.loadtxt(GOLDEN / "rbf_scores.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(got[:, :2], want[:, :2])
        # predictions are determined to about 1e-10 where the dual coefficients are not
        np.testing.assert_allclose(got[:, 2], want[:, 2], rtol=1e-8, atol=1e-8)


class TestFermCommands:
    def test_train_then_predict_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        data, schema = write_classification_csv(tmp_path / "train.csv", rng)
        model = tmp_path / "model.json"
        report = tmp_path / "train.json"
        code = main([
            "ferm-train", "--input", str(data), "--schema", schema,
            "--epsilon", "0.0", "--lambda", "0.5",
            "--model-output", str(model), "--output", str(report),
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["results"]["constraint_report"]["achieved_l1"] <= 1e-8
        scores_out = tmp_path / "scores.csv"
        code = main([
            "ferm-predict", "--model", str(model), "--input", str(data),
            "--schema", schema, "--scores-output", str(scores_out),
        ])
        assert code == 0
        with open(scores_out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 120

    def test_solver_trace_in_report_and_model(self, tmp_path):
        rng = np.random.default_rng(4)
        data, schema = write_classification_csv(tmp_path / "train.csv", rng)
        traces = {}
        for loss in ("squared", "logistic"):
            model, report = tmp_path / f"{loss}.model.json", tmp_path / f"{loss}.json"
            assert main([
                "ferm-train", "--input", str(data), "--schema", schema, "--loss", loss,
                "--epsilon", "0.1", "--model-output", str(model), "--output", str(report),
            ]) == 0
            traces[loss] = json.loads(report.read_text())["results"]["solver"]
            assert json.loads(model.read_text())["solver"] == traces[loss]
        assert traces["squared"] == {"iterations": 0, "stop_reason": "closed_form"}
        assert traces["logistic"]["stop_reason"] == "converged"
        assert traces["logistic"]["iterations"] > 0
        # documents written before the trace existed still load
        doc = json.loads(model.read_text())
        del doc["solver"]
        model.write_text(json.dumps(doc))
        assert main([
            "ferm-predict", "--model", str(model), "--input", str(data), "--schema", schema,
            "--scores-output", str(tmp_path / "scores.csv"),
        ]) == 0

    @pytest.mark.parametrize("breakage", ["missing", "ill-typed"])
    def test_broken_model_document_is_data_error(self, tmp_path, capsys, breakage):
        rng = np.random.default_rng(4)
        data, schema = write_classification_csv(tmp_path / "train.csv", rng, n=40)
        model = tmp_path / "model.json"
        assert main([
            "ferm-train", "--input", str(data), "--schema", schema,
            "--model-output", str(model), "--output", str(tmp_path / "r.json"),
        ]) == 0
        doc = json.loads(model.read_text())
        if breakage == "missing":
            del doc["kernel"]["gamma"]
        else:
            doc["coef"] = "abc"
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main([
            "ferm-predict", "--model", str(model), "--input", str(data), "--schema", schema,
            "--scores-output", str(tmp_path / "scores.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model document") and err.count("\n") == 1

    def test_epsilon_sweep_plot_csv(self, tmp_path):
        rng = np.random.default_rng(5)
        data, schema = write_classification_csv(tmp_path / "train.csv", rng, n=80)
        sweep = tmp_path / "sweep.csv"
        code = main([
            "ferm-train", "--input", str(data), "--schema", schema,
            "--epsilon", "0.0", "--epsilon-sweep", "0,0.1,0.5",
            "--sweep-output", str(sweep),
            "--model-output", str(tmp_path / "m.json"),
            "--output", str(tmp_path / "r.json"),
        ])
        assert code == 0
        lines = sweep.read_text().strip().splitlines()
        assert len(lines) == 4
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert values[0] >= values[1] >= values[2] - 1e-9

    def test_bad_schema_is_data_error(self, tmp_path):
        rng = np.random.default_rng(6)
        data, _ = write_classification_csv(tmp_path / "train.csv", rng, n=30)
        code = main([
            "ferm-train", "--input", str(data), "--schema", '{"g": "sensitive"}',
            "--model-output", str(tmp_path / "m.json"),
        ])
        assert code == 2


class TestSemCommands:
    def test_sample_then_fit_round_trip(self, tmp_path):
        sample = tmp_path / "sample.csv"
        code = main([
            "sem", "sample", "--scenario", "college", "--n", "5000",
            "--seed", "3", "--scores-output", str(sample),
        ])
        assert code == 0
        fitted = tmp_path / "fitted.json"
        schema = json.dumps({"A": "sensitive", "Q": "feature", "D": "feature", "Y": "outcome"})
        code = main([
            "sem", "fit", "--scenario", "college", "--input", str(sample),
            "--schema", schema, "--output", str(fitted),
        ])
        assert code == 0
        doc = json.loads(fitted.read_text())
        y_eq = next(e for e in doc["equations"] if e["name"] == "Y")
        np.testing.assert_allclose(y_eq["coeffs"], [1.0, 1.0, 1.0], atol=0.1)

    def test_pse_report(self, tmp_path, capsys):
        code = main(["sem", "pse", "--scenario", "college", "--paths", "A>Y", "--mc-samples", "5000"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["closed_form"] == pytest.approx(1.0)
        assert doc["results"]["monte_carlo"] == pytest.approx(1.0, abs=0.1)

    def test_counterfactual_report(self, capsys):
        record = json.dumps({"A": 0.0, "Q": 0.5, "D": 1.0, "Y": 5.0})
        code = main([
            "sem", "counterfactual", "--scenario", "college",
            "--paths", "A>Y,A>D>Y", "--record", record,
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["counterfactual_outcome"] == pytest.approx(7.0)

    def test_correct_scores_pipeline(self, tmp_path):
        sample = tmp_path / "sample.csv"
        assert main([
            "sem", "sample", "--scenario", "college", "--n", "400",
            "--seed", "5", "--scores-output", str(sample),
        ]) == 0
        schema = json.dumps({"A": "sensitive", "Q": "feature", "D": "feature", "Y": "outcome"})
        model = tmp_path / "model.json"
        assert main([
            "ferm-train", "--input", str(sample), "--schema", schema,
            "--outcome-kind", "regression", "--epsilon", "-1", "--lambda", "0.1",
            "--grid-k", "2", "--use-sensitive",
            "--model-output", str(model), "--output", str(tmp_path / "r.json"),
        ]) == 0
        corrected = tmp_path / "corrected.csv"
        code = main([
            "sem", "correct-scores", "--scenario", "college", "--model", str(model),
            "--input", str(sample), "--schema", schema,
            "--scores-output", str(corrected),
        ])
        assert code == 0
        with open(corrected) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 400
        changed = [r for r in rows if r["score"] != r["corrected_score"]]
        assert changed  # the unfair paths actually moved some scores

    def test_requires_scenario_or_model(self):
        assert main(["sem", "pse"]) == 1

    @pytest.mark.parametrize("argv,message", [
        (["counterfactual"], "sem counterfactual: --record is required"),
        (["fit", "--input", "s.csv"], "sem fit: --schema is required"),
        (["correct-scores", "--input", "s.csv", "--schema", "{}"], "sem correct-scores: --model is required"),
        (["counterfactual", "--record", "{}", "--mc-samples", "5"],
         "sem counterfactual: --mc-samples applies to pse only"),
        (["correct-scores", "--model", "m.json", "--input", "s.csv", "--schema", "{}", "--mc-samples", "5"],
         "sem correct-scores: --mc-samples applies to pse only"),
    ])
    def test_missing_or_misplaced_option_is_usage_error(self, argv, message, capsys):
        assert main(["sem", *argv, "--scenario", "college"]) == 1
        assert capsys.readouterr().err == message + "\n"

    def test_help_says_mc_samples_is_for_pse(self, capsys):
        with pytest.raises(SystemExit):
            main(["sem", "--help"])
        assert "--mc-samples MC_SAMPLES pse only:" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("argv,message", [
        (["counterfactual", "--record", "[1, 2]"],
         "--record must be a JSON object of variable values, got '[1, 2]'"),
        (["counterfactual", "--record", '{"A": 0, "Q": "x", "D": 1, "Y": 2}'],
         "--record: 'Q' must be a finite number, got 'x'"),
        (["counterfactual", "--record", '{"A": 0, "Q": NaN, "D": 1, "Y": 2}'],
         "--record: 'Q' must be a finite number, got nan"),
        (["pse", "--a-bar", "nan"], "--a-bar must be finite, got nan"),
        (["counterfactual", "--record", '{"A": 0, "Q": 1, "D": 1, "Y": 2}', "--a=-inf"],
         "--a must be finite, got -inf"),
    ])
    def test_bad_or_non_finite_value_is_data_error(self, argv, message, capsys):
        assert main(["sem", *argv, "--scenario", "college"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_file_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        sample = tmp_path / "sample.csv"
        sample.write_bytes(b"A,Q,D,Y\n0,1.0,\xff,2.0\n")
        schema = json.dumps({"A": "sensitive", "Q": "feature", "D": "feature", "Y": "outcome"})
        assert main(["sem", "fit", "--scenario", "college", "--input", str(sample), "--schema", schema]) == 2
        assert capsys.readouterr().err == "error: not a UTF-8 text file: cannot decode byte 0xff\n"


def write_multitask_csv(path, rng, T=3, n=60, d=4):
    header = ["task", "g"] + [f"x{j}" for j in range(d)] + ["y"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(T):
            w = rng.normal(size=d)
            for _ in range(n):
                g = int(rng.random() < 0.5)
                x = rng.normal(size=d)
                x[0] += 1.5 * g
                y = float(x @ w + 0.1 * rng.standard_normal())
                writer.writerow([t, g] + [repr(float(v)) for v in x] + [repr(y)])
    schema = {"task": "task", "g": "sensitive", "y": "outcome"}
    schema.update({f"x{j}": "feature" for j in range(d)})
    return path, json.dumps(schema)


class TestMtlCommands:
    def test_train_rep_then_transfer(self, tmp_path):
        rng = np.random.default_rng(7)
        data, schema = write_multitask_csv(tmp_path / "tasks.csv", rng)
        model = tmp_path / "rep.json"
        code = main([
            "mtl", "train-rep", "--input", str(data), "--schema", schema,
            "--r", "2", "--lambda", "0.1", "--mode", "equality",
            "--output", str(model),
        ])
        assert code == 0
        doc = json.loads(model.read_text())
        assert doc["max_gap_alignment"] <= 1e-8
        single, single_schema = write_multitask_csv(tmp_path / "one.csv", rng, T=1)
        report = tmp_path / "transfer.json"
        code = main([
            "mtl", "transfer", "--model", str(model), "--input", str(single),
            "--schema", single_schema, "--lambda", "0.1", "--output", str(report),
        ])
        assert code == 0
        assert "fairness_diagnostic" in json.loads(report.read_text())["results"]

    def test_train_rep_document_round_trip(self, tmp_path):
        data, schema = write_multitask_csv(tmp_path / "tasks.csv", np.random.default_rng(9))
        model = tmp_path / "rep.json"
        assert main(["mtl", "train-rep", "--input", str(data), "--schema", schema, "--r", "2",
                     "--lambda", "0.1", "--mode", "relaxed", "--penalty", "0.5", "--output", str(model)]) == 0
        doc = json.loads(model.read_text())
        assert doc["penalty"] == 0.5 and len(doc["gap_vectors"]) == 3
        assert doc["solver"]["stop_reason"] == "converged"
        read = _rep_from_json(doc)
        tasks = tasks_from_dataset(load_csv(data, json.loads(schema)))
        trained = train_representation(tasks, r=2, lam=0.1, constraint="relaxed", penalty=0.5, seed=0)
        assert read.max_gap_alignment() == trained.max_gap_alignment() > 0.0
        for t, task in enumerate(tasks.tasks):
            np.testing.assert_array_equal(read.predict(t, task.features), trained.predict(t, task.features))
        assert _rep_to_json(read) == doc
        # a document written before these fields existed still loads
        for key in ("penalty", "gap_vectors", "solver"):
            del doc[key]
        old = _rep_from_json(doc)
        assert (old.penalty, old.gap_vectors, old.solver) == (None, (), None)

    @pytest.mark.parametrize("fields, message", [
        ({"gap_vectors": [[1.0, 2.0]]}, "each gap vector needs one entry per row of A"),
        ({"A": [1.0, 2.0, 3.0, 4.0]}, "A must be a d x r and B an r x T matrix"),
        ({"B": [[1.0], [2.0]]}, "A must be a d x r and B an r x T matrix"),
    ])
    def test_misshapen_representation_document_is_data_error(self, tmp_path, capsys, fields, message):
        data, schema = write_multitask_csv(tmp_path / "one.csv", np.random.default_rng(0), T=1, n=10)
        doc = tmp_path / "rep.json"
        doc.write_text(json.dumps({"A": [[1.0]] * 4, "B": [[1.0]], "r": 1, "lam": 0.1, "constraint": "equality",
                                   "objective_history": [1.0], **fields}))
        code = main(["mtl", "transfer", "--model", str(doc), "--input", str(data), "--schema", schema])
        assert code == 2
        assert capsys.readouterr().err == f"error: representation document has an ill-typed field: {message}\n"

    def test_train_common(self, tmp_path):
        rng = np.random.default_rng(8)
        data, schema = write_classification_csv(tmp_path / "c.csv", rng, n=200)
        report = tmp_path / "common.json"
        code = main([
            "mtl", "train-common", "--input", str(data), "--schema", schema,
            "--outcome-kind", "classification", "--theta", "0.5",
            "--lambda", "0.5", "--rho", "1.0", "--output", str(report),
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert max(doc["results"]["constraint_residuals"]) <= 1e-8
