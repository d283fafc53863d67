"""heatsheet benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sheet-mc [--seed 0] [--seconds 30] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
./src, nothing is installed.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see README.md).

The workload seed is a benchmark argument; the program receives it only
as --seed.  Every call of one run uses it, so every repetition must write
the same report bytes.  --tiny runs the self-test sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import envinfo
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

DEFAULT_SEED = 0
SETUP_SAMPLES = 5       # fresh interpreters timed for setup_s
CHILD_TIMEOUT = 150.0   # s; a run must end within 180 s
ACCOUNT_TOL = 0.01      # unattributed share of traced wall the check allows

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **tracing.LAYER_UNITS,
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.check_failures": "count",
    "stat_fail_ratio": "ratio",
    "run_fail_ratio": "ratio",
}

_IMPORT_TIMER = ("import time; t = time.perf_counter(); import heatsheet.cli; "
                 "print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    pass


def blas_cap() -> int:
    """BLAS threads per process: the most worker threads any workload runs,
    times this, never exceeds the cores.  One cap for every workload keeps
    their BLAS set-up alike."""
    return max(1, envinfo.nproc() // max(w.workers for w in WORKLOADS.values()))


def child_env() -> dict:
    """Interpreter environment: src on the path and the BLAS pool capped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    for key in envinfo.BLAS_ENV:
        env[key] = str(blas_cap())
    return env


def measure_setup() -> list:
    times = []
    for _ in range(SETUP_SAMPLES):
        res = subprocess.run([sys.executable, "-c", _IMPORT_TIMER],
                             env=child_env(), cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT)
        if res.returncode != 0:
            raise BenchError(f"importing heatsheet.cli failed:\n{res.stderr}")
        times.append(float(res.stdout.split()[-1]))
    return times


def run_child(calls, seed: int, workers: int, seconds: float, trace: bool,
              min_reps: int, work_dir: Path) -> dict:
    """Run the calls in one fresh interpreter, repeating for `seconds`."""
    tail = ["--seed", str(seed), "--workers", str(workers)]
    out = work_dir / ("traced" if trace else "untraced")
    spec = {"calls": [[*c, *tail] for c in calls],
            "seconds": seconds, "min_reps": min_reps, "trace": trace,
            "out": str(out)}
    spec_path = work_dir / f"spec-{int(trace)}.json"
    spec_path.write_text(json.dumps(spec))
    res = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("child.py")),
         str(spec_path)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT)
    if res.returncode != 0:
        raise BenchError(f"workload process failed:\n{res.stderr[-4000:]}")
    return json.loads(res.stdout.splitlines()[-1])


def call_failures(reps: list, reference: list) -> list:
    """Messages for calls that raised, exited non-zero, or wrote report bytes
    other than the reference repetition's."""
    bad = []
    for k, rep in enumerate(reps):
        for i, (call, ref) in enumerate(zip(rep["calls"], reference)):
            if call["error"] or call["rc"] != 0:
                err = (call["error"] or "").strip().splitlines()[-1:]
                bad.append(f"rep {k} call {i}: exit {call['rc']} "
                           + " ".join(err))
            elif not call["digests"] or call["digests"] != ref["digests"]:
                bad.append(f"rep {k} call {i}: report bytes differ")
    return bad


def trace_checks(wl, reps: list, tiny: bool) -> list:
    """Completeness of the trace: every draw site seen, every expected
    wrapped function called, exact evolve counts, and self times that
    cover the traced wall time."""
    bad = []
    expected = tracing.expected_spans(wl.suites)
    for k, rep in enumerate(reps):
        snap = rep["trace"]
        spans, counts = snap["spans"], snap["counts"]
        m = tracing.layer_metrics(snap)
        normals = counts.get("normals", 0)
        if normals != counts.get("expect_normals", 0):
            bad.append(f"rep {k}: {normals} normals drawn, draw sites "
                       f"account for {counts.get('expect_normals', 0)}")
        printed = sum(c["stat_pass"] + c["stat_fail"] for c in rep["calls"])
        if m["stats.reports"] != printed:
            bad.append(f"rep {k}: {m['stats.reports']} reports traced, "
                       f"{printed} verdicts printed")
        missing = [n for n in expected if spans.get(n, (0,))[0] < 1]
        if missing:
            bad.append(f"rep {k}: no calls recorded for {', '.join(missing)}")
        if wl.evolve_counts:
            R, steps, n, basis = wl.evolve_counts[1 if tiny else 0]
            want = {"fracops.frac_laplacian_calls": 2 * R * (steps + 1),
                    "gaussfield.normals": R * (steps * n + 2 * basis)}
            for key, val in want.items():
                if m[key] != val:
                    bad.append(f"rep {k}: {key} = {m[key]}, expected {val}")
        gap = rep["wall_s"] - m["trace.self_sum_s"]
        if abs(gap) > ACCOUNT_TOL * rep["wall_s"]:
            bad.append(f"rep {k}: self times leave {gap:.4f} s of "
                       f"{rep['wall_s']:.4f} s unattributed")
    return bad


def run(args) -> tuple:
    wl = WORKLOADS[args.workload]
    calls = wl.tiny if args.tiny else wl.calls
    work_dir = TMP / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    notes = []
    try:
        if not args.trace:
            setup = measure_setup()
            plain = run_child(calls, args.seed, wl.workers, args.seconds,
                              False, 2, work_dir)
            traced_reps = []
        else:
            plain = run_child(calls, args.seed, wl.workers, args.seconds / 2,
                              False, 1, work_dir)
            traced = run_child(calls, args.seed, wl.workers, args.seconds / 2,
                               True, 1, work_dir)
            traced_reps = traced["reps"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass

    reps = plain["reps"]
    all_reps = reps + traced_reps
    reference = reps[0]["calls"]
    failures = call_failures(all_reps, reference)
    attempted = sum(len(r["calls"]) for r in all_reps)
    stat_fail = sum(c["stat_fail"] for r in all_reps for c in r["calls"])
    stat_all = stat_fail + sum(c["stat_pass"] for r in all_reps
                               for c in r["calls"])
    notes.append(f"{len(reps)} untraced and {len(traced_reps)} traced "
                 f"repetitions of {len(calls)} calls")
    notes.append("repetition walls (s): " + " ".join(
        f"{r['wall_s']:.3f}" for r in all_reps))
    notes += [f"call failed: {f}" for f in failures]

    # mean, not median: the reference machine's noise is a broad modulation
    # of CPU speed, under which all repetitions together are the steadier
    # estimate (see README.md)
    wall = statistics.mean(r["wall_s"] for r in reps)
    if not args.trace:
        metrics = {"wall_s": wall, "setup_s": statistics.median(setup),
                   "peak_rss_mb": plain["peak_rss_mb"]}
        units = END_TO_END_UNITS
    else:
        checks = trace_checks(wl, traced_reps, args.tiny)
        notes += [f"trace check failed: {c}" for c in checks]
        layer = [tracing.layer_metrics(r["trace"]) for r in traced_reps]
        metrics = {k: statistics.mean(m[k] for m in layer)
                   for k in tracing.LAYER_UNITS}
        traced_wall = statistics.mean(r["wall_s"] for r in traced_reps)
        metrics.update({
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - wall,
            "trace.unattributed_s": traced_wall - metrics["trace.self_sum_s"],
            "trace.check_failures": len(checks),
            "stat_fail_ratio": stat_fail / stat_all if stat_all else 1.0,
            "run_fail_ratio": len(failures) / attempted,
        })
        units = PER_LAYER_UNITS
    result = {
        "correct": not failures and stat_fail == 0 and stat_all > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    env = {**envinfo.host(ROOT), "runtime": plain["env"],
           "workers": wl.workers, "blas_cap": blas_cap()}
    return result, env, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes instead of the benchmark sizes")
    args = p.parse_args(argv)
    if not (SRC / "heatsheet" / "cli.py").is_file():
        print(f"error: no heatsheet source under {SRC}", file=sys.stderr)
        return 2
    try:
        result, env, notes = run(args)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(f"# {note}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
