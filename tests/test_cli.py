import argparse
import contextlib
import dataclasses
import csv
import importlib.util
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairkit import causal, ferm
from fairkit.cli import (
    _model_from_json,
    _model_to_json,
    _rep_from_json,
    _rep_to_json,
    _sem_from_json,
    _sem_to_json,
    build_parser,
    main,
)
from fairkit.dataset import MAX_FEATURE_BYTES, load_csv, make_grid
from fairkit.multitask import tasks_from_dataset, train_representation
from fairkit.transport import EmpiricalDistribution, geodesic_repair, wasserstein

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden"


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

    def test_vanishing_ridge_hinge_trains(self, tmp_path):
        # once no record lies inside the hinge's smoothing band, the Newton
        # model is flat but for the 1e-300 ridge
        for epsilon in ("0.1", "0"):
            model = tmp_path / f"m{epsilon}.json"
            code = main([
                "ferm-train", "--input", str(GOLDEN / "cls.csv"), "--schema", CLS_SCHEMA,
                "--outcome-kind", "classification", "--loss", "hinge", "--lambda", "1e-300",
                "--epsilon", epsilon, "--model-output", str(model), "--output", str(tmp_path / "r.json"),
            ])
            assert code == 0
            doc = json.loads(model.read_text())
            assert np.all(np.isfinite(doc["coef"]))
            assert doc["constraint_report"]["achieved_l1"] <= float(epsilon) + 1e-6

    def test_solver_failure_is_exit_3(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ferm.SolverError("Newton line search found no decrease")

        monkeypatch.setattr(ferm, "train_gferm", fail)
        data, schema = write_classification_csv(tmp_path / "train.csv", np.random.default_rng(4))
        code = main([
            "ferm-train", "--input", str(data), "--schema", schema, "--loss", "hinge",
            "--model-output", str(tmp_path / "m.json"), "--output", str(tmp_path / "r.json"),
        ])
        assert code == 3
        assert capsys.readouterr().err == "solver failure: Newton line search found no decrease\n"

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


    @pytest.mark.parametrize("golden, field, literal", [
        ("sem_fit.json", "coefficient", "NaN"), ("mtl_rep.json", "A", "NaN"),
        ("ferm_logistic.model.json", "coef", "1e999"), ("ferm_logistic.model.json", "objective_value", "-Infinity"),
    ])
    def test_non_finite_document_number_is_data_error(self, tmp_path, capsys, golden, field, literal):
        # Python's json reads NaN and Infinity, and 1e999 as inf; none is an RFC 8259 number
        doc = json.loads((GOLDEN / golden).read_text())
        bad, sentinel = tmp_path / "bad.json", 123.456789
        if field == "coefficient":
            doc["equations"][-1]["coeffs"][0] = sentinel
            kind, argv = "SEM", ["sem", "pse", "--sem", str(bad), "--output", str(tmp_path / "r.json")]
        elif field == "A":
            doc["A"][0][0] = sentinel
            kind, argv = "representation", [
                "mtl", "transfer", "--model", str(bad), "--input", str(GOLDEN / "task_new.csv"),
                "--schema", NEW_TASK_SCHEMA, "--output", str(tmp_path / "r.json")]
        else:
            if field == "coef":
                doc["coef"][0] = sentinel
            else:
                doc["objective_value"] = sentinel  # no model check reads it
            kind, argv = "model", [
                "ferm-predict", "--model", str(bad), "--input", str(GOLDEN / "cls.csv"), "--schema", CLS_SCHEMA,
                "--scores-output", str(tmp_path / "s.csv")]
        bad.write_text(json.dumps(doc).replace(str(sentinel), literal))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {kind} document {bad} holds the non-finite number {literal}\n"

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

    def test_scores_file_without_ids_numbers_its_rows(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("group,score\na,0.5\nb,0.25\na,0.75\n")
        out = tmp_path / "repaired.csv"
        assert main(["repair", "--input", str(scores), "--t", "0", "--scores-output", str(out), "--output", "-"]) == 0
        with open(out, newline="") as fh:
            assert [row[:3] for row in csv.reader(fh)] == [
                ["id", "group", "score"], ["0", "a", "0.5"], ["1", "b", "0.25"], ["2", "a", "0.75"]]

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

        def predict(name):
            return main(["ferm-predict", "--model", str(model), "--input", str(large), "--schema", schema,
                         "--scores-output", str(tmp_path / name)])

        assert train(large) == 2
        assert_one_line("120 x 120")
        assert train(small) == 0
        # prediction forms _SOLVE_BLOCK kernel rows at a time, so only a block must fit under the cap
        monkeypatch.setattr(ferm, "_SOLVE_BLOCK", 16)
        assert predict("capped.csv") == 0
        monkeypatch.undo()
        assert predict("free.csv") == 0
        assert (tmp_path / "capped.csv").read_bytes() == (tmp_path / "free.csv").read_bytes()

    @pytest.mark.parametrize("grid_q", ["1", "2"])
    def test_rbf_kernel_not_positive_definite_is_solver_error(self, tmp_path, capsys, grid_q):
        # at gamma 0.01 K is singular to working precision and lambda 1e-300 does not
        # shift it; one sensitive bin (grid_q 1) leaves the problem unconstrained
        model = tmp_path / "m.json"
        code = main(["ferm-train", "--input", str(GOLDEN / "cls.csv"), "--schema", CLS_SCHEMA, "--kernel", "rbf",
                     "--gamma", "0.01", "--epsilon", "0", "--lambda", "1e-300", "--grid-q", grid_q,
                     "--model-output", str(model), "--output", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: K + lambda I is not positive definite") and err.count("\n") == 1
        assert "--lambda" in err and not model.exists()

    @pytest.mark.parametrize("count", ["0", "1", "-5"])
    def test_too_few_mc_samples_is_data_error(self, count, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["sem", "pse", "--scenario", "college", "--mc-samples", count, "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: n must be >= 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["pse", "--mc-samples", "3000000000", "--output", "r.json"],
         "Monte-Carlo effect of 3000000000 samples needs 44.7 GiB"),
        (["sample", "--n", "3000000000", "--scores-output", "s.csv"], "sample of 3000000000 records needs 156.5 GiB"),
    ])
    def test_oversized_sem_count_is_data_error(self, argv, message, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sem", argv[0], "--scenario", "college", *argv[1:]]) == 2
        assert capsys.readouterr().err == f"error: {message}, above the 1 GiB limit\n"
        assert list(tmp_path.iterdir()) == []

    def test_sem_document_without_pi_is_data_error(self, tmp_path, capsys):
        doc = tmp_path / "sem.json"
        doc.write_text(json.dumps({"schema_version": "1", "sensitive": "A"}))
        assert main(["sem", "pse", "--sem", str(doc)]) == 2
        assert capsys.readouterr().err == "error: SEM document lacks the field 'pi'\n"

    def test_representation_document_without_a_is_data_error(self, tmp_path, capsys):
        data, schema = write_multitask_csv(tmp_path / "one.csv", np.random.default_rng(0), T=1, n=10)
        doc = tmp_path / "rep.json"
        doc.write_text(json.dumps({"schema_version": "1", "B": []}))
        code = main(["mtl", "transfer", "--model", str(doc), "--input", str(data), "--schema", schema])
        assert code == 2
        assert capsys.readouterr().err == "error: representation document lacks the field 'A'\n"

    @pytest.mark.parametrize("version, found", [("99", 'schema_version "99"'), (1, "schema_version 1"),
                                                (None, "no schema_version")])
    @pytest.mark.parametrize("kind, source", [
        ("model", "ferm_logistic.model.json"), ("SEM", "sem_fit.json"), ("representation", "mtl_rep.json"),
    ])
    def test_unknown_document_version_is_data_error(self, tmp_path, capsys, version, found, kind, source):
        doc = json.loads((GOLDEN / source).read_text())
        if version is None:
            del doc["schema_version"]
        else:
            doc["schema_version"] = version
        bad = tmp_path / source
        bad.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        argv = {
            "model": ["ferm-predict", "--model", str(bad), "--input", str(GOLDEN / "cls.csv"),
                      "--schema", CLS_SCHEMA, "--scores-output", out],
            "SEM": ["sem", "pse", "--sem", str(bad), "--output", out],
            "representation": ["mtl", "transfer", "--model", str(bad), "--input", str(GOLDEN / "task_new.csv"),
                               "--schema", NEW_TASK_SCHEMA, "--output", out],
        }[kind]
        assert main(argv) == 2
        assert capsys.readouterr().err == f'error: {kind} document {bad} has {found}; this fairkit reads version "1"\n'
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, kind, source", [
        ("--model", "model", "ferm_logistic.model.json"),
        ("--sem", "SEM", "sem_fit.json"),
        ("--schema", "schema", None),
    ])
    def test_truncated_document_names_its_file(self, tmp_path, capsys, flag, kind, source):
        bad = tmp_path / "truncated.json"
        text = CLS_SCHEMA if source is None else (GOLDEN / source).read_text()
        bad.write_text(text[:60 if source else 30])
        out = str(tmp_path / "out")
        argv = {
            "--model": ["ferm-predict", "--model", str(bad), "--input", str(GOLDEN / "cls.csv"),
                        "--schema", CLS_SCHEMA, "--scores-output", out],
            "--sem": ["sem", "pse", "--sem", str(bad), "--output", out],
            "--schema": ["ferm-train", "--input", str(GOLDEN / "cls.csv"), "--schema", f"@{bad}",
                         "--model-output", out, "--output", out],
        }[flag]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kind} document {bad} is not JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("written", ["report", "model"])
    def test_non_finite_result_is_solver_failure(self, tmp_path, capsys, monkeypatch, written):
        # JSON has no NaN or infinity; json.dumps would write the bare literal
        out, model = tmp_path / "r.json", tmp_path / "m.json"
        if written == "report":
            monkeypatch.setattr(causal, "path_specific_effect", lambda *args: float("nan"))
            argv = ["sem", "pse", "--scenario", "college", "--output", str(out)]
        else:
            train = ferm.train_gferm
            monkeypatch.setattr(ferm, "train_gferm", lambda *args: dataclasses.replace(
                train(*args), objective_value=float("inf")))
            argv = ["ferm-train", "--input", str(GOLDEN / "cls.csv"), "--schema", CLS_SCHEMA,
                    "--model-output", str(model), "--output", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "solver failure: the result holds NaN or infinity, which JSON cannot represent\n")
        assert not out.exists() and not model.exists()

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

    @pytest.mark.parametrize("command,flag,value", [
        (["ferm-train", "--input", "d.csv", "--schema", "{}"], "--epsilon", "nan"),
        (["ferm-train", "--input", "d.csv", "--schema", "{}"], "--lambda", "nan"),
        (["repair", "--input", "s.csv"], "--t", "1e400"),
        (["metrics", "--input", "s.csv"], "--threshold", "-inf"),
        (["sem", "pse", "--scenario", "college"], "--a-bar", "nan"),
        (["sem", "pse", "--scenario", "college"], "--a", "-inf"),
    ])
    def test_non_finite_number_is_usage_error(self, command, flag, value, capsys):
        assert main([*command, f"{flag}={value}"]) == 1
        assert f"argument {flag}: expected a finite number, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["sem", "sample", "--scenario", "college", "--record", '{"x": 1}'],
        ["mtl", "train-common", "--input", "d.csv", "--schema", "{}", "--r", "7", "--penalty", "3"],
        ["ferm-predict", "--model", "m.json", "--input", "d.csv", "--schema", "{}", "--seed", "1"],
        ["datasets", "list", "--seed", "1"],
    ])
    def test_option_of_another_subcommand_is_usage_error(self, command, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where a command that ran anyway would write
        assert main(command) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--input", "--model", "--sem", "--schema"])
    @pytest.mark.parametrize("bad", ["directory", "not-utf8"])
    def test_unreadable_file_is_data_error(self, tmp_path, capsys, flag, bad):
        path = tmp_path / "bad"
        if bad == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"\xff": 1}')
        out = str(tmp_path / "out")
        argv = {
            "--input": ["ferm-predict", "--model", str(GOLDEN / "ferm_logistic.model.json"), "--input", str(path),
                        "--schema", CLS_SCHEMA, "--scores-output", out],
            "--model": ["ferm-predict", "--model", str(path), "--input", str(GOLDEN / "cls.csv"),
                        "--schema", CLS_SCHEMA, "--scores-output", out],
            "--sem": ["sem", "pse", "--sem", str(path), "--output", out],
            "--schema": ["mtl", "transfer", "--model", str(GOLDEN / "mtl_rep.json"),
                         "--input", str(GOLDEN / "task_new.csv"), "--schema", f"@{path}", "--output", out],
        }[flag]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


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

    def test_describe_needs_a_name(self, capsys):
        assert main(["datasets", "describe"]) == 1
        assert "the following arguments are required: name" in capsys.readouterr().err

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

    def test_uniform_weights(self, tmp_path):
        repaired = tmp_path / "repaired.csv"
        assert main([
            "repair", "--input", str(GOLDEN / "scores.csv"), "--t", "1", "--weights", "uniform",
            "--scores-output", str(repaired), "--output", str(tmp_path / "r.json"),
        ]) == 0
        with open(GOLDEN / "scores.csv") as fh:
            rows = list(csv.DictReader(fh))
        groups = np.array([r["group"] for r in rows])
        values = np.array([float(r["score"]) for r in rows])
        with open(repaired) as fh:
            got = np.array([float(r["repaired_score"]) for r in csv.DictReader(fh)])
        uniform, _ = geodesic_repair(values, groups, t=1.0, weights="uniform")
        np.testing.assert_array_equal(got, uniform)
        # the groups have different sizes, so the weights matter
        assert not np.array_equal(uniform, geodesic_repair(values, groups, t=1.0)[0])


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
    # the rbf dual coefficients are determined (one solve with K + lambda I),
    # but the golden scores were written by a solver that left them free on
    # the near-singular kernel, so this run stays pinned by its predictions
    "ferm_rbf": (
        ["ferm-train", "--input", "{g}/cls.csv", "--schema", CLS_SCHEMA, "--kernel", "rbf", "--gamma", "0.5",
         "--epsilon", "0", "--lambda", "0.1", "--model-output", "{out}/rbf.model.json",
         "--output", "{out}/rbf.json"], []),
    "ferm_rbf_predict": (
        ["ferm-predict", "--model", "{out}/rbf.model.json", "--input", "{g}/cls.csv", "--schema", CLS_SCHEMA,
         "--scores-output", "{out}/rbf_scores.csv"], []),
    # the rbf Newton paths (logistic with a positive budget, hinge at a zero
    # one), pinned by their predictions like ferm_rbf
    "ferm_rbf_logistic": (
        ["ferm-train", "--input", "{g}/cls.csv", "--schema", CLS_SCHEMA, "--kernel", "rbf", "--gamma", "0.5",
         "--lambda", "0.1", "--outcome-kind", "classification", "--loss", "logistic", "--epsilon", "0.05",
         "--model-output", "{out}/rbf_logistic.model.json", "--output", "{out}/rbf_logistic.json"], []),
    "ferm_rbf_logistic_predict": (
        ["ferm-predict", "--model", "{out}/rbf_logistic.model.json", "--input", "{g}/cls.csv",
         "--schema", CLS_SCHEMA, "--scores-output", "{out}/rbf_logistic_scores.csv"], []),
    "ferm_rbf_hinge": (
        ["ferm-train", "--input", "{g}/cls.csv", "--schema", CLS_SCHEMA, "--kernel", "rbf", "--gamma", "0.5",
         "--lambda", "0.1", "--outcome-kind", "classification", "--loss", "hinge", "--epsilon", "0",
         "--model-output", "{out}/rbf_hinge.model.json", "--output", "{out}/rbf_hinge.json"], []),
    "ferm_rbf_hinge_predict": (
        ["ferm-predict", "--model", "{out}/rbf_hinge.model.json", "--input", "{g}/cls.csv",
         "--schema", CLS_SCHEMA, "--scores-output", "{out}/rbf_hinge_scores.csv"], []),
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
        # the golden scores' solver fixed predictions only to about 1e-10
        assert_golden_scores(tmp_path, "ferm_rbf", "rbf_scores.csv", 1e-8)

    # one ulp more or less in K moves the logistic scores by up to 2e-13, and the
    # hinge scores, fixed only as far as the last smoothing width fixes them, by up to 5e-8
    @pytest.mark.parametrize("loss, tol", [("logistic", 1e-8), ("hinge", 1e-6)])
    def test_rbf_newton_predictions_match_golden_scores(self, tmp_path, loss, tol):
        assert_golden_scores(tmp_path, f"ferm_rbf_{loss}", f"rbf_{loss}_scores.csv", tol)


def assert_golden_scores(tmp_path, train, scores, tol):
    """Train and predict golden run ``train``; its scores agree with the golden ones to ``tol``."""
    run_golden(train, tmp_path)
    run_golden(f"{train}_predict", tmp_path)
    got = np.loadtxt(tmp_path / scores, delimiter=",", skiprows=1)
    want = np.loadtxt(GOLDEN / scores, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(got[:, :2], want[:, :2])
    np.testing.assert_allclose(got[:, 2], want[:, 2], rtol=tol, atol=tol)


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

    @pytest.mark.parametrize("breakage", ["missing", "ill-typed", "non-finite", "include-sensitive"])
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
        elif breakage == "ill-typed":
            doc["coef"] = "abc"
        elif breakage == "non-finite":
            doc["coef"][0] = float("nan")
        else:
            doc["include_sensitive"] = None
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main([
            "ferm-predict", "--model", str(model), "--input", str(data), "--schema", schema,
            "--scores-output", str(tmp_path / "scores.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model document") and err.count("\n") == 1

    def test_model_for_other_features_is_data_error(self, tmp_path, capsys):
        code = main(["ferm-predict", "--model", str(GOLDEN / "ferm_logistic.model.json"),
                     "--input", str(GOLDEN / "sem_college.csv"), "--schema", SEM_SCHEMA, "--outcome-kind", "regression",
                     "--scores-output", str(tmp_path / "s.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: the model takes 3 inputs per record, the data gives 2\n"

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

    def test_schema_from_file(self, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text(CLS_SCHEMA)
        for name, value in (("inline", CLS_SCHEMA), ("file", f"@{schema}")):
            assert main(["ferm-train", "--input", str(GOLDEN / "cls.csv"), "--schema", value,
                         "--model-output", str(tmp_path / f"{name}.model.json"),
                         "--output", str(tmp_path / f"{name}.json")]) == 0
        for suffix in (".model.json", ".json"):
            assert (tmp_path / f"file{suffix}").read_bytes() == (tmp_path / f"inline{suffix}").read_bytes()

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

    def test_correct_scores_match_ferm_predict_on_reordered_columns(self, tmp_path):
        # the model was trained on the CSV's column order, not the SEM's (A, Q, D, Y)
        with open(GOLDEN / "sem_college.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        sample = tmp_path / "sample.csv"
        with open(sample, "w", newline="") as fh:
            writer = csv.DictWriter(fh, ["A", "D", "Q", "Y"])
            writer.writeheader()
            writer.writerows(rows)
        model, predicted, corrected = (tmp_path / n for n in ("m.json", "predicted.csv", "corrected.csv"))
        data = ["--input", str(sample), "--schema", SEM_SCHEMA]
        assert main(["ferm-train", *data, "--outcome-kind", "regression", "--epsilon", "-1", "--use-sensitive",
                     "--model-output", str(model), "--output", str(tmp_path / "r.json")]) == 0
        assert main(["ferm-predict", "--model", str(model), *data, "--outcome-kind", "regression",
                     "--scores-output", str(predicted)]) == 0
        assert main(["sem", "correct-scores", "--sem", str(GOLDEN / "sem_fit.json"), "--model", str(model),
                     *data, "--scores-output", str(corrected)]) == 0
        with open(predicted) as fh, open(corrected) as gh:
            assert [r["score"] for r in csv.DictReader(fh)] == [r["score"] for r in csv.DictReader(gh)]

    def test_requires_scenario_or_model(self):
        assert main(["sem", "pse"]) == 1

    @pytest.mark.parametrize("argv,message", [
        pytest.param(["counterfactual"],
                     "fairkit sem counterfactual: the following arguments are required: --record",
                     id="record-required"),
        pytest.param(["fit", "--input", "s.csv"],
                     "fairkit sem fit: the following arguments are required: --schema", id="schema-required"),
        pytest.param(["correct-scores", "--input", "s.csv", "--schema", "{}"],
                     "fairkit sem correct-scores: the following arguments are required: --model",
                     id="model-required"),
        pytest.param(["counterfactual", "--record", "{}", "--mc-samples", "5"],
                     "fairkit: unrecognized arguments: --mc-samples 5", id="mc-samples-on-counterfactual"),
        pytest.param(["correct-scores", "--model", "m.json", "--input", "s.csv", "--schema", "{}",
                      "--mc-samples", "5"],
                     "fairkit: unrecognized arguments: --mc-samples 5", id="mc-samples-on-correct-scores"),
        # no abbreviations: --a is pse's own flag, never a prefix of --a-bar
        pytest.param(["counterfactual", "--record", '{"A": 0, "Q": 1, "D": 1, "Y": 2}', "--a=-inf"],
                     "fairkit: unrecognized arguments: --a=-inf", id="a-on-counterfactual"),
        pytest.param(["pse", "--sem", "sem.json"],
                     "fairkit sem pse: argument --scenario: not allowed with argument --sem",
                     id="scenario-and-sem"),
    ])
    def test_missing_or_misplaced_option_is_usage_error(self, argv, message, capsys):
        assert main(["sem", *argv, "--scenario", "college"]) == 1
        assert capsys.readouterr().err.split("\n")[0] == message

    def test_help_says_mc_samples_is_for_pse(self, capsys):
        for command, listed in (("pse", True), ("counterfactual", False), ("correct-scores", False)):
            with pytest.raises(SystemExit):
                main(["sem", command, "--help"])
            assert ("--mc-samples" in capsys.readouterr().out) == listed

    @pytest.mark.parametrize("argv,message", [
        (["counterfactual", "--record", "[1, 2]"],
         "--record must be a JSON object of variable values, got '[1, 2]'"),
        (["counterfactual", "--record", '{"A": 0, "Q": "x", "D": 1, "Y": 2}'],
         "--record: 'Q' must be a finite number, got 'x'"),
        (["counterfactual", "--record", '{"A": 0, "Q": NaN, "D": 1, "Y": 2}'],
         "--record: 'Q' must be a finite number, got nan"),
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

    def test_transfer_to_one_group_has_null_diagnostic(self, tmp_path):
        # the group-mean gap needs two groups; the report stays RFC 8259 JSON
        header, *rows = (GOLDEN / "task_new.csv").read_text().splitlines()
        g = header.split(",").index("g")
        data = tmp_path / "one_group.csv"
        data.write_text("\n".join([header] + [r for r in rows if r.split(",")[g] == "0"]) + "\n")
        report = tmp_path / "transfer.json"
        assert main([
            "mtl", "transfer", "--model", str(GOLDEN / "mtl_rep.json"), "--input", str(data),
            "--schema", NEW_TASK_SCHEMA, "--lambda", "0.1", "--output", str(report),
        ]) == 0

        def refuse(literal):
            raise AssertionError(f"the report holds the literal {literal}")

        results = json.loads(report.read_text(), parse_constant=refuse)["results"]
        assert results["fairness_diagnostic"] is None
        assert np.all(np.isfinite(results["coefficients"]))

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

    @pytest.mark.parametrize("task_id", ["1.5", "1e300", "3.0"])
    def test_task_id_must_be_a_whole_int64(self, tmp_path, capsys, task_id):
        data, schema = write_multitask_csv(tmp_path / "tasks.csv", np.random.default_rng(9))
        lines = data.read_text().splitlines()
        lines[-1] = task_id + lines[-1][1:]  # the last record, of task 2
        data.write_text("\n".join(lines) + "\n")
        model = tmp_path / "r.json"
        code = main(["mtl", "train-rep", "--input", str(data), "--schema", schema, "--mode", "none",
                     "--output", str(model)])
        if task_id == "3.0":  # task 3, a task of its own
            assert code == 0 and len(json.loads(model.read_text())["B"][0]) == 4
        else:
            assert code == 2
            assert capsys.readouterr().err == (f"error: row {len(lines)}, column 'task': task id {float(task_id)!r}"
                                               " is not a whole number in the int64 range\n")

    @pytest.mark.parametrize("mode", ["none", "equality"])
    def test_eps_outside_relaxed_mode_is_usage_error(self, tmp_path, capsys, mode):
        data, schema = write_multitask_csv(tmp_path / "tasks.csv", np.random.default_rng(9))
        code = main(["mtl", "train-rep", "--input", str(data), "--schema", schema, "--mode", mode,
                     "--eps", "1e-6", "--output", str(tmp_path / "rep.json")])
        assert code == 1
        assert capsys.readouterr().err == f"mtl train-rep: --eps applies to --mode relaxed only, not {mode}\n"
        assert not (tmp_path / "rep.json").exists()

    def test_unconstrained_representation_has_no_alignment(self, tmp_path):
        rng = np.random.default_rng(7)
        data, schema = write_multitask_csv(tmp_path / "tasks.csv", rng)
        model = tmp_path / "rep.json"
        assert main(["mtl", "train-rep", "--input", str(data), "--schema", schema, "--r", "2",
                     "--mode", "none", "--output", str(model)]) == 0
        doc = json.loads(model.read_text())
        assert doc["gap_vectors"] == [] and doc["max_gap_alignment"] is None
        assert _rep_from_json(doc).max_gap_alignment() is None
        single, single_schema = write_multitask_csv(tmp_path / "one.csv", rng, T=1)
        report = tmp_path / "transfer.json"
        assert main(["mtl", "transfer", "--model", str(model), "--input", str(single),
                     "--schema", single_schema, "--output", str(report)]) == 0
        assert np.isfinite(json.loads(report.read_text())["results"]["fairness_diagnostic"])

    @pytest.mark.parametrize("fields, message", [
        ({"gap_vectors": [[1.0, 2.0]]}, "each gap vector needs one entry per row of A"),
        ({"A": [1.0, 2.0, 3.0, 4.0]}, "A must be a d x r and B an r x T matrix"),
        ({"B": [[1.0], [2.0]]}, "A must be a d x r and B an r x T matrix"),
    ])
    def test_misshapen_representation_document_is_data_error(self, tmp_path, capsys, fields, message):
        data, schema = write_multitask_csv(tmp_path / "one.csv", np.random.default_rng(0), T=1, n=10)
        doc = tmp_path / "rep.json"
        doc.write_text(json.dumps({"schema_version": "1", "A": [[1.0]] * 4, "B": [[1.0]], "r": 1, "lam": 0.1,
                                   "constraint": "equality", "objective_history": [1.0], **fields}))
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


class TestDocumentRoundTrips:
    """Writer then reader of each model document, without a CLI run in between."""

    @pytest.mark.parametrize("kernel", [ferm.KernelSpec(), ferm.KernelSpec("rbf", gamma=0.5)])
    def test_kernel_model(self, kernel):
        data = load_csv(GOLDEN / "cls.csv", json.loads(CLS_SCHEMA), outcome_kind="classification")
        problem = ferm.FairERMProblem(loss="logistic", lam=0.5, epsilon=0.1, kernel=kernel)
        model = ferm.train_gferm(problem, data, make_grid(data, 2, 2))
        doc = _model_to_json(model)
        read = _model_from_json(json.loads(json.dumps(doc)))
        assert _model_to_json(read) == doc
        Z = np.random.default_rng(3).normal(size=(25, data.features.shape[1]))
        np.testing.assert_array_equal(read.decision_function(Z), model.decision_function(Z))
        np.testing.assert_array_equal(read.predict_dataset(data), model.predict_dataset(data))

    def test_fitted_sem(self):
        skeleton = causal.scenario("college")
        fitted = causal.fit(causal.sample(skeleton, 500, seed=3), skeleton)
        doc = _sem_to_json(fitted)
        read = _sem_from_json(json.loads(json.dumps(doc)))
        assert _sem_to_json(read) == doc
        paths = causal.all_unfair_paths(fitted)
        assert causal.path_specific_effect(read, paths, 0.0, 1.0) == causal.path_specific_effect(
            fitted, paths, 0.0, 1.0)
        record = {name: 0.25 * i for i, name in enumerate(fitted.variables)}
        assert causal.counterfactual(read, record, paths, 1.0) == causal.counterfactual(
            fitted, record, paths, 1.0)


def leaf_parsers():
    """Each leaf subcommand's parser, by its words ("sem pse")."""
    def walk(parser, words):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield " ".join(words), parser
            return
        for name, child in subs[0].choices.items():
            yield from walk(child, words + (name,))

    return dict(walk(build_parser(), ()))


RECORD = '{"A": 0, "Q": 0.37, "D": -1.25, "Y": 2.3}'
# every leaf subcommand on committed inputs, each of which runs as written
LEAVES = {
    "metrics": ["--input", "{g}/scores.csv", "--output", "{out}/r.json"],
    "repair": ["--input", "{g}/scores.csv", "--t", "0.5", "--output", "{out}/r.json"],
    "ferm-train": ["--input", "{g}/cls.csv", "--schema", CLS_SCHEMA, "--model-output", "{out}/m.json",
                   "--output", "{out}/r.json"],
    "ferm-predict": ["--model", "{g}/ferm_logistic.model.json", "--input", "{g}/cls.csv", "--schema", CLS_SCHEMA,
                     "--scores-output", "{out}/s.csv"],
    "sem sample": ["--scenario", "college", "--n", "20", "--scores-output", "{out}/s.csv"],
    "sem fit": ["--sem", "{g}/sem_fit.json", "--input", "{g}/sem_college.csv", "--schema", SEM_SCHEMA,
                "--output", "{out}/r.json"],
    "sem pse": ["--sem", "{g}/sem_fit.json", "--output", "{out}/r.json"],
    "sem counterfactual": ["--sem", "{g}/sem_fit.json", "--record", RECORD, "--output", "{out}/r.json"],
    "sem correct-scores": ["--sem", "{g}/sem_fit.json", "--model", "{g}/sem_ferm.model.json",
                           "--input", "{g}/sem_college.csv", "--schema", SEM_SCHEMA, "--scores-output", "{out}/s.csv"],
    "mtl train-rep": ["--input", "{g}/tasks.csv", "--schema", MTL_SCHEMA, "--r", "2", "--output", "{out}/r.json"],
    "mtl transfer": ["--model", "{g}/mtl_rep.json", "--input", "{g}/task_new.csv", "--schema", NEW_TASK_SCHEMA,
                     "--output", "{out}/r.json"],
    "mtl train-common": ["--input", "{g}/cls.csv", "--schema", CLS_SCHEMA, "--outcome-kind", "classification",
                         "--output", "{out}/r.json"],
    "datasets list": ["--output", "{out}/r.txt"],
    "datasets describe": ["COMPAS", "--output", "{out}/r.json"],
}
# flags whose value names a file the command reads (--schema as @FILE)
READ_FLAGS = ("--input", "--model", "--sem", "--schema")
# fields each document reader needs; dropping one, or giving it a value of
# another JSON kind, makes the document bad
DOCUMENT_FIELDS = {
    "ferm_logistic.model.json": ("schema_version", "kernel", "include_sensitive", "coef"),
    "sem_ferm.model.json": ("schema_version", "kernel", "include_sensitive", "coef"),
    "sem_fit.json": ("schema_version", "sensitive", "pi", "equations", "outcome", "edges", "sensitive_values",
                     "unobserved"),
    "mtl_rep.json": ("schema_version", "A", "B"),
}


def json_kind(value):
    # true reads as the number 1, so a boolean is no other kind than a number
    return {bool: float, int: float}.get(type(value), type(value))


OTHER_KINDS = (None, True, 1.5, "x", [0], {"x": 0})


@st.composite
def bad_invocations(draw):
    """A leaf's valid argv with one fault, and the exit code the fault must give."""
    words = draw(st.sampled_from(sorted(LEAVES)))
    argv, parser = list(LEAVES[words]), leaf_parsers()[words]
    options = [a for a in parser._actions if a.option_strings and a.dest != "help"]
    typed, chosen = [a for a in options if a.type is not None], [a for a in options if a.choices]
    required = {s for a in options if a.required for s in a.option_strings}
    for group in parser._mutually_exclusive_groups:
        if group.required:
            required.update(s for a in group._group_actions for s in a.option_strings)
    # argv positions of required flags, and of the one positional argument (datasets describe's name)
    needed = [i for i, a in enumerate(argv) if a in required] + [i for i, a in enumerate(argv) if a == "COMPAS"]
    read = [i for i, a in enumerate(argv) if a in READ_FLAGS]
    documents = [i for i in read if Path(argv[i + 1]).name in DOCUMENT_FIELDS]
    kinds = [kind for kind, applies in (
        ("number", typed), ("choice", chosen), ("unknown", True), ("missing", needed),
        ("file", read), ("document", documents)) if applies]
    kind = draw(st.sampled_from(kinds))
    files = {}  # name in {out} -> bytes, or None for a directory
    if kind == "number":
        action = draw(st.sampled_from(typed))
        value = draw(st.sampled_from(["nan", "-inf", "inf", "1e400", "NaN", "1.5x", "", "0,nan"]))
        if action.type is int:
            value = draw(st.sampled_from([value, "1.5", "1e3"]))
        argv.append(f"{action.option_strings[0]}={value}")
    elif kind == "choice":
        action = draw(st.sampled_from(chosen))
        value = draw(st.text(max_size=8).filter(lambda v: v not in map(str, action.choices)))
        argv.append(f"{action.option_strings[0]}={value}")
    elif kind == "unknown":
        flags = {s for a in parser._actions for s in a.option_strings}
        argv.append(draw(st.from_regex(r"--[a-z][a-z-]{0,10}", fullmatch=True).filter(lambda f: f not in flags)))
    elif kind == "missing":
        drop = draw(st.sampled_from(needed))
        del argv[drop:drop + (1 if argv[drop] == "COMPAS" else 2)]
    elif kind == "file":
        at = draw(st.sampled_from(read)) + 1
        content = draw(st.one_of(
            st.just("missing"), st.just(None), st.binary(max_size=40).map(lambda b: b"\xff" + b),
            st.text(max_size=60).map(lambda t: t.encode()),
        ))
        if content != "missing":
            files["bad"] = content
        argv[at] = ("@" if argv[at - 1] == "--schema" else "") + "{out}/bad"
    else:
        at = draw(st.sampled_from(documents)) + 1
        name = Path(argv[at]).name
        doc = json.loads((GOLDEN / name).read_text())
        field = draw(st.sampled_from(DOCUMENT_FIELDS[name]))
        if draw(st.booleans()):
            del doc[field]
        else:
            doc[field] = draw(st.sampled_from([v for v in OTHER_KINDS if json_kind(v) != json_kind(doc[field])]))
        files["bad.json"] = json.dumps(doc).encode()
        argv[at] = "{out}/bad.json"
    return words.split() + argv, files, 1 if kind in ("number", "choice", "unknown", "missing") else 2


class TestBadInputProperty:
    @settings(max_examples=300, deadline=None)
    @given(case=bad_invocations())
    def test_bad_input_ends_in_its_exit_code_and_one_line(self, case):
        argv, files, want = case
        with tempfile.TemporaryDirectory() as out:
            for name, content in files.items():
                if content is None:
                    (Path(out) / name).mkdir()
                else:
                    (Path(out) / name).write_bytes(content)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([a.replace("{g}", str(GOLDEN)).replace("{out}", out) for a in argv])
        err = err.getvalue()
        assert code == want, (argv, err)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert "usage: fairkit" in err, err


class TestDocumentedCommandLines:
    """Every command line the benchmark runs or the README shows parses."""

    def test_benchmark_commands_parse(self):
        spec = importlib.util.spec_from_file_location("perfbench_jobs", ROOT / "perfbench" / "jobs.py")
        jobs = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = jobs  # dataclasses looks its module up
        try:
            spec.loader.exec_module(jobs)
            commands = [c for make in jobs.JOBS.values() for c in make(Path("in"), Path("out"), 7)]
        finally:
            del sys.modules[spec.name]
        assert len(commands) == 17
        for command in commands:
            build_parser().parse_args(list(command.argv))

    def test_readme_commands_parse_and_cover_every_subcommand(self):
        section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1]
        block = section.split("```bash\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
        lines = [line for line in block.splitlines() if line.strip() and not line.lstrip().startswith("#")]
        parsed = []
        for line in lines:
            argv = shlex.split(line)
            assert argv[0] == "fairkit", line
            parsed.append(build_parser().parse_args(argv[1:]))
        assert {args.func for args in parsed} == {p.get_default("func") for p in leaf_parsers().values()}
