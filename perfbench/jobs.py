"""The fairkit CLI commands of one job, and the input sizes, per workload.

This module imports no numpy: the harness reads it, and a child's peak RSS
includes the RSS of the process it was started from.  Input generation and
output checks live in ``workloads.py``, which the harness runs as a child.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # file names inside the job's output directory


def _schema(sensitive: str, features: list[str], outcome: str, task: str | None = None) -> str:
    schema = {sensitive: "sensitive", outcome: "outcome"}
    schema.update({f: "feature" for f in features})
    if task:
        schema[task] = "task"
    return json.dumps(schema)


def features(count: int) -> list[str]:
    return [f"x{j}" for j in range(1, count + 1)]


# ------------------------------------------------------------ score_audit

SCORE_ROWS = 200_000
SCORE_GROUPS = 32
SWEEP = (0.0, 0.25, 0.5, 0.75, 1.0)


def _score_commands(inp: Path, out: Path, seed: int) -> list[Command]:
    scores = str(inp / "scores.csv")
    sweep = ",".join(f"{t:g}" for t in SWEEP)
    return [
        Command("metrics", ("metrics", "--input", scores, "--threshold", "0.5",
                            "--grid-k", "2", "--grid-q", str(SCORE_GROUPS),
                            "--output", str(out / "metrics.json")), ("metrics.json",)),
        Command("repair_full", ("repair", "--input", scores, "--t", "1.0",
                                "--scores-output", str(out / "repaired.csv"),
                                "--sweep", sweep, "--sweep-output", str(out / "sweep.csv"),
                                "--output", str(out / "repair_full.json")),
                ("repaired.csv", "sweep.csv", "repair_full.json")),
        Command("repair_half", ("repair", "--input", scores, "--t", "0.5", "--order", "1",
                                "--output", str(out / "repair_half.json")), ("repair_half.json",)),
    ]


# ------------------------------------------------------------- fair_train

CLS_ROWS = 20_000
CLS_FEATURES = 5
RBF_ROWS = 2_000
REG_ROWS = 200_000
REG_FEATURES = 4
REG_GRID = 10
FERM_EPS = 0.05


def _ferm(name, inp_file, out, extra) -> Command:
    return Command(name, ("ferm-train", "--input", str(inp_file), *extra,
                          "--model-output", str(out / f"{name}.model.json"),
                          "--output", str(out / f"{name}.json")),
                   (f"{name}.model.json", f"{name}.json"))


def _fair_train_commands(inp: Path, out: Path, seed: int) -> list[Command]:
    cls = _schema("s", features(CLS_FEATURES), "y")
    reg = _schema("s", features(REG_FEATURES), "y")
    eps = str(FERM_EPS)
    return [
        _ferm("sq0", inp / "cls.csv", out, ("--schema", cls, "--lambda", "1", "--epsilon", "0")),
        _ferm("sq05", inp / "cls.csv", out, ("--schema", cls, "--lambda", "1", "--epsilon", eps)),
        _ferm("hinge05", inp / "cls.csv", out,
              ("--schema", cls, "--lambda", "1", "--loss", "hinge", "--epsilon", eps)),
        _ferm("logistic05", inp / "cls.csv", out,
              ("--schema", cls, "--lambda", "1", "--loss", "logistic", "--epsilon", eps)),
        _ferm("rbf0", inp / "cls_small.csv", out,
              ("--schema", cls, "--kernel", "rbf", "--gamma", "0.1", "--epsilon", "0")),
        _ferm("reg_grid", inp / "reg.csv", out,
              ("--schema", reg, "--outcome-kind", "regression", "--grid-k", str(REG_GRID),
               "--grid-q", str(REG_GRID), "--epsilon", "0")),
        Command("common", ("mtl", "train-common", "--input", str(inp / "cls.csv"), "--schema", cls,
                           "--outcome-kind", "classification", "--predict-sensitive",
                           "--output", str(out / "common.json")), ("common.json",)),
    ]


# ------------------------------------------------------- causal_multitask

SEM_ROWS = 200_000
PSE_SAMPLES = 1_000_000
MTL_TASKS = 10
MTL_ROWS = 5_000
MTL_D = 20
MTL_R = 5
SEM_SCHEMA = json.dumps({"A": "sensitive", "Q": "feature", "D": "feature", "Y": "outcome"})


def _causal_commands(inp: Path, out: Path, seed: int) -> list[Command]:
    sample = str(out / "sample.csv")
    mtl = _schema("s", features(MTL_D), "y", task="t")
    one = _schema("s", features(MTL_D), "y")
    return [
        Command("sample", ("sem", "sample", "--scenario", "college", "--n", str(SEM_ROWS),
                           "--seed", str(seed), "--scores-output", sample), ("sample.csv",)),
        Command("fit", ("sem", "fit", "--scenario", "college", "--input", sample,
                        "--schema", SEM_SCHEMA, "--output", str(out / "sem.json")), ("sem.json",)),
        Command("ferm", ("ferm-train", "--input", sample, "--schema", SEM_SCHEMA,
                         "--outcome-kind", "regression", "--epsilon", "0",
                         "--model-output", str(out / "ferm.model.json"),
                         "--output", str(out / "ferm.json")), ("ferm.model.json", "ferm.json")),
        Command("correct", ("sem", "correct-scores", "--sem", str(out / "sem.json"),
                            "--model", str(out / "ferm.model.json"), "--input", sample,
                            "--schema", SEM_SCHEMA, "--scores-output", str(out / "corrected.csv")),
                ("corrected.csv",)),
        Command("pse", ("sem", "pse", "--scenario", "college", "--mc-samples", str(PSE_SAMPLES),
                        "--output", str(out / "pse.json")), ("pse.json",)),
        Command("train_rep", ("mtl", "train-rep", "--input", str(inp / "tasks.csv"), "--schema", mtl,
                              "--r", str(MTL_R), "--lambda", "0.1", "--mode", "equality",
                              "--output", str(out / "rep.json")), ("rep.json",)),
        Command("transfer", ("mtl", "transfer", "--model", str(out / "rep.json"),
                             "--input", str(inp / "new_task.csv"), "--schema", one,
                             "--output", str(out / "transfer.json")), ("transfer.json",)),
    ]


# (inputs, outputs, seed) -> the commands of one job.  Why each workload
# exists is recorded in BENCHMARK.json and README.md.
JOBS = {
    "score_audit": _score_commands,
    "fair_train": _fair_train_commands,
    "causal_multitask": _causal_commands,
}
