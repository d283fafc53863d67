"""One fresh process that runs a workload's heatsheet CLI calls in-process.

    python3 child.py SPEC.json

SPEC names the calls (full argv), how long to keep repeating them and
whether to trace; heatsheet comes from PYTHONPATH.  The last stdout line is one JSON
object: per repetition the wall time and, per call, its exit code, printed
verdict counts and the sha256 of each *_report.json; then peak RSS and the
environment.  run.py starts this process.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import traceback
from time import perf_counter

import envinfo


# report lines that echo when and with how many threads a call ran, not what
# it computed; the digest leaves them out
VOLATILE = (b'"timestamp":', b'"workers":')


def report_digest(path: str) -> str:
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    body = b"".join(ln for ln in lines if not ln.lstrip().startswith(VOLATILE))
    return hashlib.sha256(body).hexdigest()


def run_call(cli, argv: list, out_dir: str) -> dict:
    printed = io.StringIO()
    rc, error = None, None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            rc = cli.main(argv + ["--out", out_dir])
    except SystemExit as e:  # argparse rejects the argv
        rc = e.code
    except Exception:
        error = traceback.format_exc(limit=3)
    wall = perf_counter() - t0
    lines = printed.getvalue().splitlines()
    reports = sorted(glob.glob(os.path.join(out_dir, "*_report.json")))
    return {
        "wall_s": wall, "rc": rc, "error": error,
        "stat_pass": sum(ln.startswith("PASS ") for ln in lines),
        "stat_fail": sum(ln.startswith("FAIL ") for ln in lines),
        "digests": {os.path.basename(p): report_digest(p) for p in reports},
    }


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import heatsheet.cli as cli

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    # repeat while another repetition of the last one's length still fits
    reps = []
    start = perf_counter()
    while len(reps) < spec["min_reps"] or (
            perf_counter() - start + reps[-1]["wall_s"] <= spec["seconds"]):
        if tracer is not None:
            tracer.reset()
        rep_dir = os.path.join(spec["out"], f"rep{len(reps)}")
        calls = [run_call(cli, list(argv), os.path.join(rep_dir, str(i)))
                 for i, argv in enumerate(spec["calls"])]
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep = {"wall_s": sum(c["wall_s"] for c in calls), "calls": calls}
        if tracer is not None:
            rep["trace"] = tracer.snapshot()
        reps.append(rep)

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"reps": reps, "peak_rss_mb": peak_kib / 1024.0,
                      "env": envinfo.runtime()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
