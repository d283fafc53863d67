"""The package namespace: every exported name resolves, none twice; and
the benchmark tracer's wrap targets still exist."""
import importlib
import importlib.util
import inspect
import pathlib

import heatsheet

TRACING = (pathlib.Path(__file__).resolve().parent.parent
           / "perfbench" / "tracing.py")


def test_star_import_and_unique_exports():
    ns = {}
    exec("from heatsheet import *", ns)
    assert set(heatsheet.__all__) <= set(ns)
    assert len(heatsheet.__all__) == len(set(heatsheet.__all__))


def test_benchmark_trace_targets_resolve():
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
