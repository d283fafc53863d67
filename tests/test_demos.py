"""Smoke test: every script under demos/ runs to completion at reduced size.

The demos import the library's public names, so an API change that breaks
one of them shows up here.  Only the size constants shrink; the numbers the
demos print at these sizes are not checked.
"""
import importlib.util
import pathlib

import numpy as np
import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

SMALL = {
    "covariance_closed_form": dict(REPLICAS=20, GRIDS=((1.0 / 8, 1.0 / 64),)),
    "drift_correction": dict(S_MAX=6.0, Y_VALUES=np.arange(2) * 0.25),
    "operator_identities": {},
    "stationary_flow": dict(REPLICAS=8, Z=0.1),
    "weak_form_residual": dict(REPLICAS=8),
    "window_integral": dict(NUS=(1.0,)),
}


def test_every_demo_is_listed():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(SMALL)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_demo_runs(name, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        f"demo_{name}", DEMOS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    for attr, value in SMALL[name].items():
        assert hasattr(mod, attr), attr
        monkeypatch.setattr(mod, attr, value)
    assert mod.main() in (0, 1)
    assert capsys.readouterr().out
