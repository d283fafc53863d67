"""The package namespace: every exported name resolves, none twice, and has
a caller outside the tests; the benchmark tracer's wrap targets still
exist; importing the command line pulls in no scipy subpackage it does not
use; and one module alone builds Gauss-Legendre rules."""
import ast
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

import heatsheet

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def test_star_import_and_unique_exports():
    ns = {}
    exec("from heatsheet import *", ns)
    assert set(heatsheet.__all__) <= set(ns)
    assert len(heatsheet.__all__) == len(set(heatsheet.__all__))


def test_benchmark_trace_targets_resolve(monkeypatch):
    # perfbench/tracing.py wraps these names by attribute; a rename in the
    # library would break the traced benchmark run, not this test suite
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, attr, _ in tracing.TARGETS:
        obj = importlib.import_module(f"heatsheet.{layer}")
        *owners, name = attr.split(".")
        for owner in owners:
            obj = getattr(obj, owner)
        assert name in vars(obj), f"{layer}.{attr}"
    cli = importlib.import_module("heatsheet.cli")
    assert callable(cli._parallel)
    params = list(inspect.signature(cli._mc_pairings).parameters)
    assert params[:4] == ["W", "ncells", "scale", "R"]
    # the frac_laplacian hook reads the input as a[0], the plan as a[2] and
    # counts rows times plan.padded_len
    params = list(inspect.signature(heatsheet.frac_laplacian).parameters)
    assert params[:3] == ["fa", "beta", "plan"]
    assert isinstance(inspect.getattr_static(heatsheet.SpectralPlan,
                                             "padded_len"), property)
    # the evolve hook reads init and cfg by position or name, then
    # cfg.steps, cfg.noise and init.grid.n
    params = list(inspect.signature(heatsheet.evolve).parameters)
    assert params[:2] == ["init", "cfg"]
    fields = {f.name for f in dataclasses.fields(heatsheet.EvolveConfig)}
    assert "noise" in fields
    assert isinstance(inspect.getattr_static(heatsheet.EvolveConfig, "steps"),
                      property)
    # the sampler's draw hook reads self.basis; the sheet hook out.cells
    grid = heatsheet.TimeGrid(8.0, 64)
    assert len(heatsheet.StationarySampler(grid).basis) == 40
    lat = heatsheet.SheetLattice(0.0, 0.5, 0.5, 3, 4)
    assert heatsheet.sheet_sample(lat, 0).cells == 12
    # the tracer expects a span for sde.noise_draw on evolve's path, and
    # its draw hook counts one replica's normals per StationarySampler.draw
    # call; inlining the one or batching the other adds trace check
    # failures.  The audit block draws each start twice: once for its
    # contraction, once to advance the stream evolve replays
    sde = importlib.import_module("heatsheet.sde")
    calls = {"noise_draw": 0, "draw": 0}

    def counted(key, fn):
        def wrapper(*a, **k):
            calls[key] += 1
            return fn(*a, **k)
        return wrapper

    monkeypatch.setattr(sde, "noise_draw", counted("noise_draw",
                                                   sde.noise_draw))
    monkeypatch.setattr(sde.StationarySampler, "draw",
                        counted("draw", sde.StationarySampler.draw))
    cli.suite_evolve(cli.RunConfig(replicas=4, n=256, Z=0.25))
    assert calls["noise_draw"] > 0
    assert calls["draw"] == 2 * 4


def test_evolve_bulk_blocks_run_no_transforms(monkeypatch):
    # the weights sweep and the one forward-stepped audit block make every
    # sine transform of an evolve run, and the other replicas are drawn
    # through the Monte Carlo engine, so a run of three blocks' worth of
    # replicas makes as many as a run of one
    cli = importlib.import_module("heatsheet.cli")
    forward = heatsheet.SpectralPlan.forward
    calls = []

    def counted(self, f):
        calls.append(f.shape)
        return forward(self, f)

    monkeypatch.setattr(heatsheet.SpectralPlan, "forward", counted)
    counts = []
    for R in (cli.EVOLVE_BATCH, 3 * cli.EVOLVE_BATCH):
        calls.clear()
        cli.suite_evolve(cli.RunConfig(replicas=R, t_max=8.0, n=256, Z=0.25))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_every_export_has_a_caller():
    # every public name must be used by the library, a demo or the
    # benchmark; a name that only the tests reach is dead weight.  Its own
    # def and the import statements that carry it do not count.
    files = [p for p in sorted((ROOT / "src" / "heatsheet").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Name, ast.Attribute)) \
                    and isinstance(node.ctx, ast.Load):
                used.add(node.id if isinstance(node, ast.Name) else node.attr)
    unused = sorted(set(heatsheet.__all__) - used)
    assert not unused, f"exported but only tests reach: {unused}"


# scipy subpackages the library has no use for; each adds import time to
# every heatsheet command
UNUSED_SCIPY = ("scipy.integrate", "scipy.signal", "scipy.stats")


def test_cli_import_skips_unused_scipy():
    # a fresh interpreter, so that no test module's imports count
    code = ("import sys, heatsheet.cli; "
            f"print(sorted(m for m in {UNUSED_SCIPY!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]", f"import heatsheet.cli loads {out.strip()}"


def test_one_module_builds_gauss_legendre_rules():
    # every fixed-node integral takes its rule from kernels.unit_rule, so
    # no other module may name the scipy constructor behind it, whether
    # imported, called, defined or reached as an attribute
    named = set()
    for path in sorted((ROOT / "src" / "heatsheet").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if "roots_legendre" in (getattr(node, f, None)
                                    for f in ("name", "id", "attr")):
                named.add(path.name)
    assert named == {"kernels.py"}, f"roots_legendre named in {sorted(named)}"


def test_one_module_runs_sine_transforms():
    # fracops.SpectralPlan is the one sine-transform implementation, so no
    # other module may import scipy's sine transforms or reach them as an
    # attribute; the plan itself needs only dst, whose types 2, 3 and 4
    # run both directions
    sine = {"dst", "idst", "dstn", "idstn"}
    named = set()
    for path in sorted((ROOT / "src" / "heatsheet").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) \
                    and (node.module or "").startswith("scipy"):
                named |= {(path.name, a.name) for a in node.names
                          if a.name in sine}
            elif isinstance(node, ast.Attribute) and node.attr in sine:
                named.add((path.name, node.attr))
    assert named == {("fracops.py", "dst")}, \
        f"sine transforms named in {sorted(named)}"


def test_sine_plan_caches_only_tau():
    # a plan's fields are its grid and padding, and tau is the one array it
    # keeps: every multiplier is computed from tau when asked for
    plan = heatsheet.SpectralPlan
    assert [f.name for f in dataclasses.fields(plan)] == ["grid", "pad"]
    assert {name for name, v in vars(plan).items()
            if isinstance(v, functools.cached_property)} == {"tau"}
