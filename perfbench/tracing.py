"""Outside-in tracing of heatsheet, installed from the benchmark's own files.

`install` replaces selected functions of the heatsheet modules with timing
wrappers and rebinds every module attribute that held the original, so a
call made through any import name is seen.  The generator returned by
`gaussfield.sheet_rng` is wrapped in a proxy that times and counts its
`standard_normal` calls and delegates to the very same generator, so every
draw stays bit-identical.  Nothing under `src/` changes.

Spans are aggregated as they close (per name: calls, inclusive time, self
time), which keeps memory flat over the ~10^5 spans of an evolve run.  Self
time is a span's duration minus the durations of the spans it directly
encloses on the same thread.

Threads: `cli._parallel` runs chunk tasks on a thread pool when workers > 1.
Work done there is first recorded in thread-seconds, then scaled by
(region wall time) / (sum of task durations) and charged to the region, so
that self times of all spans on the calling thread sum to its wall time.
Per-unit costs (ns per normal, us per transform) use the unscaled
thread-seconds instead.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("grid", "kernels", "fracops", "gaussfield", "sde", "stats", "cli")
SUITES = ("ops", "cov", "drift", "spde", "evolve")
MC_SUITES = {"cov", "drift", "spde"}
RNG_SUITES = {"cov", "drift", "spde", "evolve"}

# (layer, attribute, suites whose CLI run calls it).  The completeness check
# requires at least one recorded call for every suite a workload runs.
TARGETS = (
    ("cli", "main", set(SUITES)),
    ("cli", "suite_ops", {"ops"}),
    ("cli", "suite_cov", {"cov"}),
    ("cli", "suite_drift", {"drift"}),
    ("cli", "suite_spde", {"spde"}),
    ("cli", "suite_evolve", {"evolve"}),
    ("cli", "_mc_pairings", MC_SUITES),
    ("cli", "write_report", set(SUITES)),
    ("gaussfield", "sheet_rng", RNG_SUITES),
    ("gaussfield", "sheet_sample", {"drift"}),
    ("gaussfield", "point_weights", {"cov"}),
    ("gaussfield", "pair_u_weights", {"cov", "drift"}),
    ("gaussfield", "pair_v_weights", {"cov", "drift"}),
    ("gaussfield", "drift_field_weights", {"drift"}),
    ("gaussfield", "drift_integral_weights", {"drift"}),
    ("gaussfield", "cov_u_gram", {"cov", "evolve"}),
    ("gaussfield", "cov_v_gram", {"cov", "evolve"}),
    ("gaussfield", "cameron_martin_laplace", {"drift"}),
    ("gaussfield", "WeakformPlan.__post_init__", {"spde"}),
    ("fracops", "frac_laplacian", {"ops", "spde", "evolve"}),
    ("fracops", "op_A1", {"ops"}),
    ("fracops", "op_A2", {"ops"}),
    ("fracops", "halfroot_conv", {"ops"}),
    ("fracops", "a1_a2_residual", {"ops"}),
    ("kernels", "l_nu", {"ops"}),
    ("kernels", "l_nu_laplace", {"ops"}),
    ("sde", "evolve", {"evolve"}),
    ("sde", "noise_draw", {"evolve"}),
    ("sde", "StationarySampler.__init__", {"evolve"}),
    ("sde", "StationarySampler.draw", {"evolve"}),
    ("stats", "z_test", {"cov", "drift", "spde", "evolve"}),
    ("stats", "residual_report", {"ops", "drift", "spde", "evolve"}),
    ("stats", "matrix_compare", {"cov"}),
    ("grid", "TestFunction.__call__", {"ops", "cov", "spde", "evolve"}),
    ("grid", "TestFunction.deriv", {"ops"}),
    ("grid", "TestFunction.deriv2", set()),
)
# spans that are not module attributes: chunk tasks and generator draws
EXTRA_SPANS = (
    ("cli.task@mc", MC_SUITES),
    ("cli.task", {"evolve"}),
    ("gaussfield.draw@mc", MC_SUITES),
    ("gaussfield.draw", {"drift", "evolve"}),
)

MC_SPAN = "cli._mc_pairings"
WEIGHT_SPANS = tuple(f"gaussfield.{f}" for f in (
    "point_weights", "pair_u_weights", "pair_v_weights",
    "drift_field_weights", "drift_integral_weights"))
REPORT_SPANS = ("stats.z_test", "stats.residual_report", "stats.matrix_compare")


def expected_spans(suites) -> list:
    """Span names that must record a call when `suites` run."""
    want = set(suites)
    names = [f"{layer}.{attr}" for layer, attr, s in TARGETS if s & want]
    return names + [name for name, s in EXTRA_SPANS if s & want]


class _Region:
    """Thread-pool region opened by one `_parallel` call."""

    def __init__(self):
        self.lock = threading.Lock()
        self.task_s = 0.0
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        # name -> [calls, total_s, self_s (wall-equivalent), self thread-s]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.counts = Counter()

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts)}

    def count(self, **kw):
        with self._lock:
            self.counts.update(kw)

    def _stack(self) -> list:
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
        return loc.stack

    def current(self):
        stack = self._stack()
        return stack[-1][0] if stack else None

    def span(self, name, fn, /, *args, **kwargs):
        stack = self._stack()
        frame = [name, 0.0]  # name, time of directly enclosed spans
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dur
            self._record(name, dur, dur - frame[1])

    def _record(self, name, dur, self_s):
        region = getattr(self._local, "region", None)
        if region is None:
            with self._lock:
                s = self.spans[name]
                s[0] += 1
                s[1] += dur
                s[2] += self_s
                s[3] += self_s
        else:
            with region.lock:
                s = region.spans[name]
                s[0] += 1
                s[1] += dur
                s[2] += self_s

    def parallel(self, orig, total, workers, task, *args, **kwargs):
        """Wrapper body for cli._parallel: each chunk task becomes a
        `cli.task` span (`cli.task@mc` under the Monte Carlo engine), and
        spans inside it see the name of the span that opened the pool."""
        tag = self.current()
        task_name = "cli.task@mc" if tag == MC_SPAN else "cli.task"
        loc = self._local
        if workers <= 1:
            def traced(lo, hi):
                prev = getattr(loc, "tag", None)
                loc.tag = tag
                try:
                    return self.span(task_name, task, lo, hi)
                finally:
                    loc.tag = prev
                    if tag == MC_SPAN:
                        self.count(mc_chunks=1)
            return orig(total, workers, traced, *args, **kwargs)

        region = _Region()

        def traced(lo, hi):
            loc.region, loc.tag, loc.stack = region, tag, []
            t0 = perf_counter()
            try:
                return self.span(task_name, task, lo, hi)
            finally:
                with region.lock:
                    region.task_s += perf_counter() - t0
                loc.region = loc.tag = None
                if tag == MC_SPAN:
                    self.count(mc_chunks=1)

        t0 = perf_counter()
        try:
            return orig(total, workers, traced, *args, **kwargs)
        finally:
            wall = perf_counter() - t0
            scale = wall / region.task_s if region.task_s > 0 else 0.0
            with self._lock:
                for name, (calls, tot, self_s) in region.spans.items():
                    s = self.spans[name]
                    s[0] += calls
                    s[1] += tot
                    s[2] += self_s * scale
                    s[3] += self_s
            stack = self._stack()
            if stack:  # the region's wall is charged to the worker spans
                stack[-1][1] += wall


class GeneratorProxy:
    """Times and counts `standard_normal` on the wrapped generator; every
    other attribute is the generator's own."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        tr = self._tracer
        mc = getattr(tr._local, "tag", None) == MC_SPAN
        out = tr.span("gaussfield.draw@mc" if mc else "gaussfield.draw",
                      self._gen.standard_normal, *args, **kwargs)
        tr.count(normals=int(np.size(out)), draw_calls=1)
        return out

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


# ----------------------------------------------------------------------
# work counters, recorded after the wrapped call returns

def _frac_hook(tr, out, a, k):
    fa = np.asarray(a[0])
    plan = a[2] if len(a) > 2 else k["plan"]
    tr.count(fft_points=(fa.size // fa.shape[-1]) * plan.padded_len)


def _weights_hook(tr, out, a, k):
    tr.count(weight_cells=int(out.size))


def _sheet_hook(tr, out, a, k):
    tr.count(expect_normals=int(out.cells))


def _evolve_hook(tr, out, a, k):
    init = a[0] if a else k["init"]
    cfg = a[1] if len(a) > 1 else k["cfg"]
    tr.count(replica_steps=cfg.steps,
             expect_normals=cfg.steps * init.grid.n if cfg.noise else 0)


def _sampler_draw_hook(tr, out, a, k):
    tr.count(expect_normals=2 * len(a[0].basis))


def _report_hook(tr, out, a, k):
    tr.count(reports=1)


HOOKS = {
    "fracops.frac_laplacian": _frac_hook,
    **{name: _weights_hook for name in WEIGHT_SPANS},
    "gaussfield.sheet_sample": _sheet_hook,
    "sde.evolve": _evolve_hook,
    "sde.StationarySampler.draw": _sampler_draw_hook,
    **{name: _report_hook for name in REPORT_SPANS},
}


def _wrapper(tr, name, fn):
    hook = HOOKS.get(name)

    if name == "gaussfield.sheet_rng":
        def w(*a, **k):
            return GeneratorProxy(tr.span(name, fn, *a, **k), tr)
    elif name == MC_SPAN:
        def w(W, ncells, scale, R, *a, **k):
            chunks = tr.counts["mc_chunks"]
            out = tr.span(name, fn, W, ncells, scale, R, *a, **k)
            rows = W.shape[0]
            chunks = tr.counts["mc_chunks"] - chunks
            tr.count(cells_contracted=R * ncells * rows,
                     expect_normals=R * ncells,
                     contract_bytes=4 * ncells * (R + chunks * rows))
            return out
    elif hook is None:
        def w(*a, **k):
            return tr.span(name, fn, *a, **k)
    else:
        def w(*a, **k):
            out = tr.span(name, fn, *a, **k)
            hook(tr, out, a, k)
            return out
    return functools.wraps(fn)(w)


def install(tracer: Tracer):
    """Wrap every TARGETS entry and `cli._parallel` in the imported heatsheet."""
    pkg = importlib.import_module("heatsheet")
    mods = {m: importlib.import_module(f"heatsheet.{m}") for m in LAYERS}
    holders = [pkg, *mods.values()]

    def rebind(orig, new):
        for mod in holders:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)

    for layer, attr, _ in TARGETS:
        name = f"{layer}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mods[layer], cls_name)
            setattr(cls, meth, _wrapper(tracer, name, cls.__dict__[meth]))
        else:
            orig = getattr(mods[layer], attr)
            rebind(orig, _wrapper(tracer, name, orig))

    par = mods["cli"]._parallel
    rebind(par, functools.wraps(par)(
        lambda *a, **k: tracer.parallel(par, *a, **k)))


# ----------------------------------------------------------------------
# per-layer metrics of one traced repetition

# name -> unit; `_s` figures are wall-equivalent self times unless the
# README marks them as totals
LAYER_UNITS = {
    "gaussfield.normals": "count",
    "gaussfield.draw_calls": "count",
    "gaussfield.draw_s": "s",
    "gaussfield.ns_per_normal": "ns",
    "gaussfield.weights_s": "s",
    "gaussfield.weight_cells": "count",
    "gaussfield.plan_s": "s",
    "gaussfield.gram_s": "s",
    "gaussfield.sheet_s": "s",
    "gaussfield.cm_s": "s",
    "gaussfield.self_s": "s",
    "cli.mc_s": "s",
    "cli.contract_s": "s",
    "cli.cells_contracted": "count",
    "cli.contract_gcells_per_s": "Gcell/s",
    "cli.contract_gbytes": "GB",
    "cli.draw_share": "ratio",
    "cli.ops_s": "s",
    "cli.cov_s": "s",
    "cli.drift_s": "s",
    "cli.spde_s": "s",
    "cli.evolve_s": "s",
    "cli.report_s": "s",
    "cli.self_s": "s",
    "fracops.frac_laplacian_calls": "count",
    "fracops.frac_laplacian_s": "s",
    "fracops.fft_points": "count",
    "fracops.us_per_call": "us",
    "fracops.abel_s": "s",
    "fracops.self_s": "s",
    "kernels.l_nu_calls": "count",
    "kernels.l_nu_s": "s",
    "kernels.l_nu_laplace_s": "s",
    "kernels.self_s": "s",
    "sde.evolve_s": "s",
    "sde.evolve_self_s": "s",
    "sde.replica_steps": "count",
    "sde.replica_steps_per_s": "1/s",
    "sde.sampler_s": "s",
    "sde.self_s": "s",
    "stats.reports": "count",
    "stats.report_s": "s",
    "stats.self_s": "s",
    "grid.eval_calls": "count",
    "grid.eval_s": "s",
    "grid.self_s": "s",
    "trace.self_sum_s": "s",
}
GRID_EVAL = tuple(f"grid.TestFunction.{m}"
                  for m in ("__call__", "deriv", "deriv2"))
ABEL = tuple(f"fracops.{f}"
             for f in ("op_A1", "op_A2", "halfroot_conv", "a1_a2_residual"))


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(snap: dict) -> dict:
    spans, counts = snap["spans"], snap["counts"]

    def field(i, *names):
        return sum(spans.get(n, (0, 0.0, 0.0, 0.0))[i] for n in names)

    calls = lambda *n: field(0, *n)
    total = lambda *n: field(1, *n)
    self_s = lambda *n: field(2, *n)
    thread_s = lambda *n: field(3, *n)
    c = lambda key: counts.get(key, 0)

    draws = ("gaussfield.draw", "gaussfield.draw@mc")
    contract = self_s(MC_SPAN, "cli.task@mc")
    m = {
        "gaussfield.normals": c("normals"),
        "gaussfield.draw_calls": c("draw_calls"),
        "gaussfield.draw_s": self_s(*draws),
        "gaussfield.ns_per_normal": _ratio(thread_s(*draws), c("normals"), 1e9),
        "gaussfield.weights_s": self_s(*WEIGHT_SPANS),
        "gaussfield.weight_cells": c("weight_cells"),
        "gaussfield.plan_s": self_s("gaussfield.WeakformPlan.__post_init__"),
        "gaussfield.gram_s": self_s("gaussfield.cov_u_gram",
                                    "gaussfield.cov_v_gram"),
        "gaussfield.sheet_s": self_s("gaussfield.sheet_sample"),
        "gaussfield.cm_s": self_s("gaussfield.cameron_martin_laplace"),
        "cli.mc_s": total(MC_SPAN),
        "cli.contract_s": contract,
        "cli.cells_contracted": c("cells_contracted"),
        "cli.contract_gcells_per_s": _ratio(c("cells_contracted"), contract, 1e-9),
        "cli.contract_gbytes": c("contract_bytes") * 1e-9,
        "cli.draw_share": _ratio(self_s("gaussfield.draw@mc"), total(MC_SPAN)),
        **{f"cli.{s}_s": total(f"cli.suite_{s}") for s in SUITES},
        "cli.report_s": self_s("cli.write_report"),
        "fracops.frac_laplacian_calls": calls("fracops.frac_laplacian"),
        "fracops.frac_laplacian_s": self_s("fracops.frac_laplacian"),
        "fracops.fft_points": c("fft_points"),
        "fracops.us_per_call": _ratio(thread_s("fracops.frac_laplacian"),
                                      calls("fracops.frac_laplacian"), 1e6),
        "fracops.abel_s": self_s(*ABEL),
        "kernels.l_nu_calls": calls("kernels.l_nu"),
        "kernels.l_nu_s": self_s("kernels.l_nu"),
        "kernels.l_nu_laplace_s": total("kernels.l_nu_laplace"),
        "sde.evolve_s": total("sde.evolve"),
        "sde.evolve_self_s": self_s("sde.evolve"),
        "sde.replica_steps": c("replica_steps"),
        "sde.replica_steps_per_s": _ratio(c("replica_steps"), total("sde.evolve")),
        "sde.sampler_s": self_s("sde.StationarySampler.__init__",
                                "sde.StationarySampler.draw"),
        "stats.reports": c("reports"),
        "stats.report_s": self_s(*REPORT_SPANS),
        "grid.eval_calls": calls(*GRID_EVAL),
        "grid.eval_s": self_s(*GRID_EVAL),
        "trace.self_sum_s": self_s(*spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s(*(n for n in spans
                                        if n.startswith(layer + ".")))
    return m
