"""Self-test of the benchmark: one seed gives the same outputs and counts.

    python3 perfbench/selftest.py

For each workload it runs ``run.py --trace 1`` twice and ``--trace 0``
once with seed ``SEED``, and fails unless

- every output file has the same sha256 in every job of every run (the
  in-process jobs, the traced job and the CLI children alike), and
- the two traced runs report identical work counts for every layer.

It exits 1 on the first workload that fails.  A run takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RECORDS = BENCH.parent / ".perfbench" / "records"
sys.path.insert(0, str(BENCH))
from jobs import JOBS  # noqa: E402

SEED = 7

# per-layer metrics that are work counts, not times
COUNT_UNITS = {"count", "bytes", "MiB"}


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload}: run.py --trace {trace} exited {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, f"{workload}: run not correct: {result}"
    with open(RECORDS / f"{workload}-seed{SEED}-trace{trace}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _digests(record: dict) -> list[dict]:
    return [{c["name"]: c["outputs"] for c in job["commands"]} for job in record["jobs"]]


def check(workload: str) -> None:
    first, second = _run(workload, 1), _run(workload, 1)
    cli = _run(workload, 0)
    jobs = _digests(first) + _digests(second) + _digests(cli)
    for i, job in enumerate(jobs[1:], start=1):
        assert job == jobs[0], f"{workload}: job {i} outputs differ from job 0"
    counts = [{name: m["value"] for name, m in r["metrics"].items() if m["unit"] in COUNT_UNITS}
              for r in (first, second)]
    assert counts[0] == counts[1], f"{workload}: per-layer counts differ: {counts}"
    assert first["counters"] == second["counters"], f"{workload}: counters differ"


def main() -> int:
    for workload in JOBS:
        try:
            check(workload)
        except AssertionError as exc:
            print(f"FAIL {workload}: {exc}")
            return 1
        print(f"ok   {workload}: identical digests and counts across runs of seed {SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
