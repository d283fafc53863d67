"""Quick self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, untraced and traced, it checks that
the result line has exactly its four keys, that every metric
BENCHMARK.json names is printed with its unit, that no call failed
(run_fail_ratio 0) and that the trace completeness checks pass.  It then
checks that sheet-mc writes identical report bytes with --workers 1 and 2.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg: str):
    print(f"selftest FAIL: {msg}")
    sys.exit(1)


def check_run(name: str, trace: int, wanted: list):
    res = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
         "--workload", name, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        fail(f"{name} trace {trace}: exit {res.returncode}\n{res.stderr}")
    result = json.loads(res.stdout.splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{name} trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        fail(f"{name} trace {trace}: not correct\n{res.stdout}")
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in wanted}
    if {k: v["unit"] for k, v in got.items()} != want:
        fail(f"{name} trace {trace}: metrics/units differ from BENCHMARK.json")
    if trace and (got["run_fail_ratio"]["value"] != 0
                  or got["trace.check_failures"]["value"] != 0):
        fail(f"{name} trace 1: failed calls or trace checks\n{res.stdout}")
    print(f"selftest ok: {name} trace {trace} "
          f"({result['attempted']} calls)")


def check_worker_invariance():
    wl = WORKLOADS["sheet-mc"]
    digests = {}
    for workers in (1, 2):
        work_dir = run.TMP / f"selftest-{os.getpid()}-{workers}"
        work_dir.mkdir(parents=True, exist_ok=True)
        try:
            out = run.run_child(wl.tiny, 0, workers, 0.0, False, 1, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        digests[workers] = [c["digests"] for c in out["reps"][0]["calls"]]
    try:
        run.TMP.rmdir()
    except OSError:
        pass
    if digests[1] != digests[2]:
        fail("sheet-mc report bytes differ between --workers 1 and 2")
    print("selftest ok: sheet-mc reports identical at --workers 1 and 2")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        fail(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
    for name in names:
        check_run(name, 0, bench["end_to_end"])
        check_run(name, 1, bench["per_layer"])
    check_worker_invariance()
    return 0


if __name__ == "__main__":
    sys.exit(main())
