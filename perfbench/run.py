"""fairkit benchmark: run one workload through the CLI and print one JSON line.

    python3 perfbench/run.py --workload score_audit --seed 1 --seconds 15 --trace 0

``--trace 0`` measures end to end.  The harness starts every command of a
job as a fresh ``python -m fairkit`` child, one at a time (a closed loop
with one client), and waits for it before starting the next.  It first runs
``SETUP_JOBS`` set-up jobs, each on its own new copy of the inputs and into
its own empty output directory, then repeats timed jobs until ``--seconds``
have passed.  Every job starts with an empty output directory.  Children
keep numpy's default BLAS threading.

``--trace 1`` measures layers: it runs the job in-process through
``fairkit.cli.main`` three times, with every public function of the seven
modules wrapped in spans (see ``tracer.py``) on the middle run only, and
reports self time and work counts per module.

Input generation and output checks run in child processes outside every
timed region.  The run record, with the sha256 of every output, goes to
``.perfbench/records/``.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(BENCH))
# No numpy in the harness: a child's ru_maxrss starts at the RSS of the
# process it was started from, so generation and checks run in children.
import jobs  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_JOBS = 2
STARTUP_RUNS = 5
DEADLINE_S = 165.0  # a run must end within 180 s


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Starts children one at a time and keeps what they cost."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = _child_env()
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0

    def child(self, args: list[str], stderr: Path) -> tuple[int, float, float]:
        """Exit code, wall seconds and peak RSS (MiB) of one child process."""
        timeout = max(self.deadline - perf_counter(), 1.0)
        start = perf_counter()
        with open(stderr, "wb") as err:
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return proc.returncode, wall, rss

    def helper(self, args: list[str]) -> dict:
        """Run ``workloads.py`` in a child and parse its JSON answer."""
        timeout = max(self.deadline - perf_counter(), 1.0)
        done = subprocess.run([sys.executable, str(BENCH / "workloads.py"), *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
        if done.returncode != 0:
            raise RuntimeError(f"workloads.py {args[0]} failed:\n{done.stderr}")
        return json.loads(done.stdout)

    def job(self, workload: str, inputs: Path, out: Path, seed: int, kind: str) -> dict:
        _empty_dir(out)
        logs = self.work / "stderr"
        logs.mkdir(exist_ok=True)
        commands = jobs.JOBS[workload](inputs, out, seed)
        records = []
        start = perf_counter()
        for cmd in commands:
            rc, wall, rss = self.child(["-m", "fairkit", *cmd.argv], logs / f"{cmd.name}.txt")
            argv = [a.replace(str(self.work), "<work>") for a in cmd.argv]
            records.append({"name": cmd.name, "argv": argv, "rc": rc, "wall_s": wall, "peak_rss_mb": rss})
        wall = perf_counter() - start
        for cmd, rec in zip(commands, records):
            rec["outputs"] = _digests(out, cmd.outputs)
            if rec["rc"] != 0:
                rec["error"] = (logs / f"{cmd.name}.txt").read_text(errors="replace")[-2000:]
        return {"kind": kind, "wall_s": wall, "commands": records}


def _empty_dir(path: Path) -> None:
    """An output directory with nothing left from an earlier job."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def _digests(out: Path, names) -> dict[str, str | None]:
    found = {}
    for name in names:
        path = out / name
        found[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return found


class Verifier:
    """Checks job outputs; a job whose digests match a checked job reuses its verdict."""

    def __init__(self, runner: Runner, workload: str, inputs: Path):
        self.runner, self.workload, self.inputs = runner, workload, inputs
        self.verdicts: dict[str, dict[str, str]] = {}

    def __call__(self, job: dict, out: Path) -> None:
        key = json.dumps([c["outputs"] for c in job["commands"]], sort_keys=True)
        if key not in self.verdicts:
            answer = self.runner.helper(["check", self.workload, str(self.inputs), str(out)])
            self.verdicts[key] = answer["errors"]
        errors = self.verdicts[key]
        for rec in job["commands"]:
            missing = [n for n, d in rec["outputs"].items() if d is None]
            if rec["rc"] != 0:
                rec.setdefault("error", f"exit code {rec['rc']}")
            elif missing:
                rec["error"] = f"missing outputs {missing}"
            elif rec["name"] in errors:
                rec["error"] = errors[rec["name"]]
            self.runner.attempted += 1
            self.runner.failed += "error" in rec


def _quartiles(values: list[float]) -> list[float] | None:
    return statistics.quantiles(values, n=4) if len(values) >= 2 else None


def end_to_end(runner: Runner, workload: str, inputs: Path, seed: int, seconds: float,
               record: dict) -> dict[str, tuple[float, str]]:
    verify = Verifier(runner, workload, inputs)
    done = []
    for i in range(SETUP_JOBS):
        # Each set-up job is a first use: its inputs are new files in a new
        # directory (byte copies of the generated ones), and it shares
        # nothing with the other set-up jobs.
        fresh = runner.work / f"setup{i}"
        shutil.copytree(inputs, fresh / "inputs")
        done.append(runner.job(workload, fresh / "inputs", fresh / "out", seed, "setup"))
        verify(done[-1], fresh / "out")
    out = runner.work / "timed"
    timed: list[float] = []
    elapsed = 0.0
    while elapsed < seconds:
        job = runner.job(workload, inputs, out, seed, "timed")
        verify(job, out)
        done.append(job)
        timed.append(job["wall_s"])
        elapsed += job["wall_s"]
        if runner.deadline - perf_counter() < 1.5 * job["wall_s"]:
            break
    setups = [j["wall_s"] for j in done if j["kind"] == "setup"]
    record["jobs"] = done
    record["summary"] = {
        "timed_jobs": len(timed), "job_s_quartiles": _quartiles(timed),
        "setup_jobs": len(setups), "setup_s_values": setups,
        "error_rate": runner.failed / runner.attempted,
    }
    return {
        "job_s": (statistics.median(timed), "s"),
        "peak_rss_mb": (runner.peak_rss_mb, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def _inprocess_job(workload: str, inputs: Path, out: Path, seed: int, tracer=None) -> dict:
    from fairkit import cli

    _empty_dir(out)
    commands = jobs.JOBS[workload](inputs, out, seed)
    records = []
    start = perf_counter()
    for cmd in commands:
        if tracer is not None:
            tracer.command = cmd.name
        t0 = perf_counter()
        try:
            rc = cli.main(list(cmd.argv))
            error = None
        except Exception as exc:  # a crash counts as one failed invocation
            rc, error = -1, f"{type(exc).__name__}: {exc}"
        records.append({"name": cmd.name, "rc": rc, "wall_s": perf_counter() - t0})
        if error:
            records[-1]["error"] = error
    wall = perf_counter() - start
    for cmd, rec in zip(commands, records):
        rec["outputs"] = _digests(out, cmd.outputs)
    return {"kind": "traced" if tracer else "in-process", "wall_s": wall, "commands": records}


def per_layer(runner: Runner, workload: str, inputs: Path, seed: int,
              record: dict) -> dict[str, tuple[float, str]]:
    startup = []
    for _ in range(STARTUP_RUNS):
        rc, wall, _ = runner.child(["-m", "fairkit", "datasets", "list", "--output",
                                    str(runner.work / "datasets.txt")], runner.work / "startup.txt")
        runner.attempted += 1
        runner.failed += rc != 0
        startup.append(wall)

    sys.path.insert(0, str(SRC))
    verify = Verifier(runner, workload, inputs)
    plain_out = runner.work / "in-process"

    def plain_job():
        job = _inprocess_job(workload, inputs, plain_out, seed)
        verify(job, plain_out)
        return job

    # untraced jobs on both sides of the traced one, so that warm-up costs
    # do not land on either side of the overhead ratio
    before = plain_job()
    tracer = tracing.Tracer(job=1)  # record["jobs"] is [before, traced, after]
    traced_out = runner.work / "traced"
    tracer.install()
    try:
        traced = _inprocess_job(workload, inputs, traced_out, seed, tracer)
    finally:
        tracer.uninstall()
    verify(traced, traced_out)
    after = plain_job()
    plain_s = (before["wall_s"] + after["wall_s"]) / 2.0
    for a, b in zip(before["commands"], traced["commands"]):
        if a["outputs"] != b["outputs"] and "error" not in b:
            b["error"] = "traced outputs differ from untraced outputs"
            runner.failed += 1

    self_s = tracer.self_times()
    incl, calls = tracer.totals()

    def layer_sum(table, layer):
        return sum(v for name, v in table.items() if name.split(".", 1)[0] == layer)

    metrics: dict[str, tuple[float, str]] = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (layer_sum(self_s, layer), "s")
        metrics[f"{layer}.calls"] = (layer_sum(calls, layer), "count")
    bytes_out = sum((traced_out / n).stat().st_size
                    for c in traced["commands"] for n, d in c["outputs"].items() if d)
    alt_iters = tracer.counters["multitask.alt_iters"]
    rep_s = incl.get("multitask.train_representation", 0.0)
    metrics.update({
        "cli.bytes_out": (bytes_out, "bytes"),
        "cli.startup_s": (statistics.median(startup), "s"),
        "dataset.load_csv_s": (incl.get("dataset.load_csv", 0.0), "s"),
        "dataset.rows_read": (tracer.counters["dataset.rows_read"], "count"),
        "dataset.to_csv_s": (incl.get("dataset.to_csv", 0.0), "s"),
        "dataset.rows_written": (tracer.counters["dataset.rows_written"], "count"),
        "dataset.partition_s": (incl.get("dataset.partition", 0.0), "s"),
        "metrics.full_report_s": (incl.get("metrics.full_report", 0.0), "s"),
        "metrics.group_mask_calls": (calls.get("metrics.ScoreSet.group_mask", 0), "count"),
        "transport.geodesic_repair_calls": (calls.get("transport.geodesic_repair", 0), "count"),
        "transport.from_samples_calls": (
            calls.get("transport.EmpiricalDistribution.from_samples", 0), "count"),
        "transport.wasserstein_calls": (calls.get("transport.wasserstein", 0), "count"),
        "ferm.train_gferm_s": (incl.get("ferm.train_gferm", 0.0), "s"),
        "ferm.project_l1_ball_calls": (calls.get("ferm.project_l1_ball", 0), "count"),
        "ferm.build_constraints_s": (incl.get("ferm.build_constraints", 0.0), "s"),
        "ferm.constraint_mb": (tracer.counters["ferm.constraint_mb"], "MiB"),
        "ferm.kernel_matrix_s": (incl.get("ferm.kernel_matrix", 0.0), "s"),
        "causal.correct_scores_s": (incl.get("causal.correct_scores", 0.0), "s"),
        "multitask.train_representation_s": (rep_s, "s"),
        "multitask.alt_iters": (alt_iters, "count"),
        "multitask.s_per_iter": (rep_s / alt_iters if alt_iters else 0.0, "s"),
        "trace.untraced_job_s": (plain_s, "s"),
        "trace.overhead": (traced["wall_s"] / plain_s, "ratio"),
    })
    record["jobs"] = [before, traced, after]
    record["startup_s_values"] = startup
    record["counters"] = dict(tracer.counters)
    record["spans"] = {"fields": ["name", "start", "end", "parent", "job", "command"],
                       "rows": tracer.spans}
    return metrics


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fairkit" / "__init__.py").is_file():
        sys.stderr.write(f"no fairkit sources under {SRC}; run from a full checkout\n")
        return 2

    start = perf_counter()
    workload = args.workload
    work = WORK / f"{workload}-{args.seed}-{args.trace}-{os.getpid()}"
    runner = Runner(work, start + DEADLINE_S)
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    try:
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        inputs = work / "inputs"
        generated = runner.helper(["generate", workload, str(args.seed), str(inputs)])
        record["environment"] = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": generated["numpy"],
            "blas": generated["blas"],
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
            "load": "closed loop, one client: one fresh `python -m fairkit` child at a time",
        }
        record["input_sizes"] = generated["sizes"]
        if args.trace:
            metrics = per_layer(runner, workload, inputs, args.seed, record)
        else:
            metrics = end_to_end(runner, workload, inputs, args.seed, args.seconds, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    commands = [c for j in record.get("jobs", []) for c in j["commands"]]
    correct = runner.failed == 0 and all("error" not in c for c in commands)
    record.update(attempted=runner.attempted, failed=runner.failed, correct=correct,
                  metrics={n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
                  run_s=perf_counter() - start)
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    with open(records / f"{workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
