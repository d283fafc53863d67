"""The narrated tour, demos/tour.py: it runs at reduced size, prints every
report the suites return, exits with their joint verdict, and draws nothing
of its own.

The tour calls the suite functions the `heatsheet` command runs, at the
sizes in its SIZES dict.  Here SIZES shrink to the sizes the command runs
at in test_cli's SEED_RUNS; the verdicts at those sizes are not checked,
only that the exit status is the one the returned reports imply.  A syntax
guard keeps the tour from growing a second Monte Carlo engine: it may name
no generator, sheet, weight builder, weak-form plan, stationary sampler or
integrator.

The six demos the tour replaced keep one test each, test_demo_runs[<old
name>]: the chapter of the tour that now carries the demo's content must
print a verdict for each statistic the demo showed and the grid fields
it cited.
"""
import ast
import contextlib
import dataclasses
import fnmatch
import importlib.util
import io
import pathlib

import pytest

from heatsheet import cli, cov_u
from heatsheet.stats import residual_report
from test_cli import SEED_RUNS

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOUR = ROOT / "demos" / "tour.py"

# what only a Monte Carlo engine needs to name
ENGINE_NAMES = ("standard_normal", "sheet_rng", "sheet_sample", "*_weights",
                "WeakformPlan", "evolve", "StationarySampler")

# retired demo -> (the suite whose chapter carries it, the statistics it
# showed, by prefix, and the grid fields it cited)
RETIRED = {
    "covariance_closed_form": (
        "cov", ("field variance at (0,1)",),
        ("cells_drawn", "discrete_variance")),
    "drift_correction": (
        "drift", ("drift pathwise identity", "laplace covariance identity"),
        ("coarse_rms", "closed_form")),
    "operator_identities": (
        "ops", ("quarter-order factorization", "halfroot inversion",
                "composition identity"),
        ("fine_n", "fine_error")),
    "stationary_flow": (
        "evolve", ("terminal u-pairing variance",
                   "terminal v-pairing variance"),
        ("dz", "basis")),
    "weak_form_residual": (
        "spde", ("weak-form residual mean", "weak-form residual variance"),
        ("x_radius", "discrete_variance")),
    "window_integral": (
        "ops", ("window integral at t=0",
                "window integral normalized tail bound",
                "window integral laplace value"),
        ("limit", "value")),
}


def load_tour():
    spec = importlib.util.spec_from_file_location("demo_tour", TOUR)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def seed_run_sizes() -> dict:
    """Per suite, the RunConfig fields its SEED_RUNS command sets, among
    those whose None default means the suite's own value."""
    sizes = [f.name for f in dataclasses.fields(cli.RunConfig)
             if f.default is None]
    out = {}
    for suite, argv in SEED_RUNS.items():
        cfg = cli.build_config(cli.make_parser().parse_args(argv))
        out[suite] = {k: getattr(cfg, k) for k in sizes
                      if getattr(cfg, k) is not None}
    return out


def verdicts(text: str) -> list:
    return [ln.split(":")[0].split(None, 1) for ln in text.splitlines()
            if ln.startswith(("  PASS ", "  FAIL "))]


def expected(reports) -> list:
    return [["PASS" if r.passed else "FAIL", r.statistic] for r in reports]


@pytest.fixture(scope="module")
def seed_tour():
    """The tour at the SEED_RUNS sizes: its exit status, its output split
    into chapters by '== ' heading, and the reports each suite returned."""
    tour = load_tour()
    assert sorted(tour.SIZES) == sorted(cli.TAGS)
    returned = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tour, "SIZES", seed_run_sizes())
        for suite in cli.TAGS:
            def recorded(cfg, fn=getattr(cli, f"suite_{suite}"),
                         suite=suite):
                out = fn(cfg)
                returned[suite] = out[0] if suite == "evolve" else out
                return out
            mp.setattr(cli, f"suite_{suite}", recorded)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = tour.main()
    chapters = {}
    for block in ("\n" + buf.getvalue()).split("\n== ")[1:]:
        head, _, body = block.partition("\n")
        chapters[head.split(" at ")[0].split(" ==")[0]] = body
    return rc, buf.getvalue(), chapters, returned


def test_every_demo_is_listed():
    assert sorted(p.name for p in TOUR.parent.glob("*.py")) == ["tour.py"]
    assert "python demos/tour.py" in (ROOT / "README.md").read_text()


def test_tour_runs(seed_tour):
    rc, out, _, returned = seed_tour
    assert list(returned) == list(cli.TAGS)
    reports = [r for suite in cli.TAGS for r in returned[suite]]
    assert rc == (0 if all(r.passed for r in reports) else 1)
    assert verdicts(out) == expected(reports)


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_demo_runs(name, seed_tour):
    _, _, chapters, returned = seed_tour
    suite, statistics, cited = RETIRED[name]
    chapter = chapters[suite]
    assert verdicts(chapter) == expected(returned[suite])
    for prefix in statistics:
        assert any(s.startswith(prefix) for _, s in verdicts(chapter)), prefix
    for field in cited:
        assert f" {field}=" in chapter, field
    if name == "covariance_closed_form":
        # the closed form the Monte Carlo variance is held to
        closed = chapters["the closed form"]
        assert "variance at t = 2 pi: 1.000000000000000" in closed
        target = next(r.target for r in returned["cov"]
                      if r.statistic.startswith(statistics[0]))
        assert target == pytest.approx(cov_u(1.0, 1.0), rel=1e-12)
        assert f"dx=0    cov={target:.6f}" in closed
        row = next(ln for ln in closed.splitlines() if ln.startswith("t=1 "))
        assert f"{target:.6f}" in row.split()


@pytest.mark.parametrize("failing", [None, "spde"])
def test_exit_status_is_the_joint_verdict(monkeypatch, failing):
    # one canned report per suite; the failing suite's misses its bound
    tour = load_tour()
    for suite in cli.TAGS:
        reports = [residual_report(suite, float(suite == failing), 0.5)]
        out = (reports, None) if suite == "evolve" else reports
        monkeypatch.setattr(cli, f"suite_{suite}", lambda cfg, out=out: out)
    assert tour.main() == (0 if failing is None else 1)


def test_tour_draws_nothing():
    named = set()
    for node in ast.walk(ast.parse(TOUR.read_text(), str(TOUR))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update(filter(None, (node.name, node.asname)))
    hits = sorted(n for n in named
                  if any(fnmatch.fnmatchcase(n, p) for p in ENGINE_NAMES))
    assert not hits, f"the tour names {hits}"
