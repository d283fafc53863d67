"""Acceptance checks: one test per numbered criterion.

Each of the five verification suites runs exactly once per module, at its
default configuration, and the criterion tests then inspect the named
reports (verdict, pinned tolerance, and where stated a wall-clock budget).
Criterion 12 reruns every suite twice through the command-line entry point
at reduced replica counts and demands byte-identical reports.

Every criterion test emits a single "criterion NN PASS/FAIL" line so a
captured log reads as a checklist.  One more test reads the draw records
that every Monte Carlo report of the cov, drift and spde suites carries,
another the normals the cov and spde reports draw in their fitted bases,
another the exact law behind each spde bias report, and another the
exact law and the contraction gate behind the evolve reports.
"""
import json
import math
import time

import numpy as np
import pytest

from heatsheet import (cameron_martin_laplace, cameron_martin_target, cov_u,
                       l_nu, l_nu_laplace)
from heatsheet.cli import RunConfig, main, suite_cov, suite_drift, \
    suite_evolve, suite_ops, suite_spde

OPS_WALL_BUDGET = 10.0   # seconds, criterion 1
COV_WALL_BUDGET = 120.0  # seconds, criterion 5
CM_WALL_BUDGET = 5.0     # seconds, criterion 8
CM_NUS = (1.0, 2.0)


def one(reports, stat: str):
    hits = [r for r in reports if r.statistic == stat]
    assert len(hits) == 1, f"expected exactly one report named {stat!r}"
    return hits[0]


def verdict(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def strip_timestamp(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines()
                     if '"timestamp"' not in ln)


@pytest.fixture(scope="module")
def ops_suite():
    t0 = time.perf_counter()
    reports = suite_ops(RunConfig())
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cov_suite():
    t0 = time.perf_counter()
    reports = suite_cov(RunConfig())
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def drift_suite():
    return suite_drift(RunConfig())


@pytest.fixture(scope="module")
def spde_suite():
    return suite_spde(RunConfig())


@pytest.fixture(scope="module")
def evolve_suite():
    reports, sample = suite_evolve(RunConfig())
    return reports


def test_criterion_01_factorization_with_refinement(ops_suite):
    reports, wall = ops_suite
    err = one(reports, "quarter-order factorization, interior max error")
    quo = one(reports, "quarter-order factorization, refinement quotient")
    assert err.target == 1e-2 and err.rule == "estimate <= target"
    assert quo.target == pytest.approx(1.0 / 1.8)
    ok = err.passed and quo.passed and wall < OPS_WALL_BUDGET
    verdict(1, ok, f"interior error {err.estimate:.3g} (tol 1e-2), "
                   f"refinement quotient {quo.estimate:.3g} "
                   f"(need <= {quo.target:.3g}), wall {wall:.2f}s")


def test_criterion_02_halfroot_inversion(ops_suite):
    reports, _ = ops_suite
    rep = one(reports, "halfroot inversion, max error")
    assert rep.target == 1e-2
    verdict(2, rep.passed,
            f"inversion max error {rep.estimate:.3g} (tol 1e-2)")


def test_criterion_03_composition_identity(ops_suite):
    reports, _ = ops_suite
    res = one(reports, "composition identity, residual")
    quo = one(reports, "composition identity, refinement quotient")
    assert res.target == 2e-2
    assert quo.target == pytest.approx(1.0 / 1.8)
    ok = res.passed and quo.passed
    verdict(3, ok, f"residual {res.estimate:.3g} (tol 2e-2), "
                   f"refinement quotient {quo.estimate:.3g}")


def test_criterion_04_exponential_eigenfunctions(ops_suite):
    reports, _ = ops_suite
    reps = [one(reports, f"exponential eigenfunction nu={nu:g}")
            for nu in (1.0, 4.0)]
    assert all(r.target == 1e-3 for r in reps)
    assert all(r.grid["t_cut"] == 4.0 for r in reps)
    ok = all(r.passed for r in reps)
    verdict(4, ok, "relative errors "
            + ", ".join(f"nu={nu:g}: {r.estimate:.3g}"
                        for nu, r in zip((1.0, 4.0), reps))
            + " (tol 1e-3 on [0, 4])")


def test_criterion_05_point_variance_and_grams(cov_suite):
    reports, wall = cov_suite
    var = one(reports, "field variance at (0,1)")
    g1 = one(reports, "field pairing Gram (8x8)")
    g2 = one(reports, "derivative pairing Gram (8x8)")
    assert var.rule == "|z| <= 4"
    assert var.target == pytest.approx(cov_u(1.0, 1.0))
    assert var.target == pytest.approx(math.sqrt(2.0 / (4.0 * math.pi)))
    assert var.replicas == 20000
    assert g1.rule == "frac_within >= 0.95, max|z| <= 8"
    ok = (var.passed and g1.passed and g2.passed
          and wall < COV_WALL_BUDGET)
    verdict(5, ok, f"variance z = {var.z:.2f}, Gram fractions "
                   f"{g1.estimate:.3g}/{g2.estimate:.3g}, wall {wall:.1f}s")


def test_criterion_06_field_derivative_independence(cov_suite):
    reports, _ = cov_suite
    rep = one(reports, "field/derivative cross-covariance vs 0")
    assert rep.rule == "frac_within >= 0.95, max|z| <= 8"
    assert rep.target == 0.95
    verdict(6, rep.passed,
            f"cross-covariance within-4se fraction {rep.estimate:.3g}, "
            f"worst |z| {rep.se:.2f}")


def test_criterion_07_drift_pathwise_identity(drift_suite):
    rms = one(drift_suite, "drift pathwise identity, relative RMS")
    gain = one(drift_suite, "drift quadrature refinement gain")
    assert rms.target == 5e-2
    assert gain.target == 0.25
    ok = rms.passed and gain.passed
    verdict(7, ok, f"relative RMS {rms.estimate:.3g} (tol 5e-2), "
                   f"refinement quotient {gain.estimate:.3g} (need <= 0.25)")


def test_criterion_08_laplace_covariance_identity(drift_suite):
    reps = [one(drift_suite,
                f"laplace covariance identity nu={a:g} nu2={b:g}")
            for a in CM_NUS for b in CM_NUS]
    assert all(r.target == 1e-4 for r in reps)
    worst = max(r.estimate for r in reps)
    # independent of the suite run: the level-2 quadrature against the
    # closed form, timed
    t0 = time.perf_counter()
    rels = [abs(cameron_martin_laplace(a, b, 0.0)
                / cameron_martin_target(a, b, 0.0) - 1.0)
            for a in CM_NUS for b in CM_NUS]
    wall = time.perf_counter() - t0
    ok = (all(r.passed for r in reps) and max(rels) <= 1e-4
          and wall < CM_WALL_BUDGET)
    verdict(8, ok, f"worst relative error {worst:.3g} (tol 1e-4) over "
                   f"{{1,2}}x{{1,2}}, quadrature wall {wall:.2f}s")


def test_criterion_09_weakform_residual_law(spde_suite):
    details = []
    ok = True
    for fi in (1, 2):
        mean = one(spde_suite, f"weak-form residual mean, f{fi}")
        var = one(spde_suite, f"weak-form residual variance, f{fi}")
        assert mean.rule == "|z| <= 4" and var.rule == "|z| <= 4"
        assert mean.target == 0.0 and var.target > 0.0
        assert mean.replicas == 10000
        ok = ok and mean.passed and var.passed
        details.append(f"f{fi}: mean z = {mean.z:.2f}, var z = {var.z:.2f}")
    verdict(9, ok, "; ".join(details))


def test_criterion_10_stationarity_under_evolution(evolve_suite):
    audit = one(evolve_suite, "telescoping audit, max over replicas")
    assert audit.target == 1e-10
    pair_reps = [r for r in evolve_suite
                 if r.statistic.startswith("terminal ")]
    assert len(pair_reps) == 12   # 3 observables x {u, v} x {mean, variance}
    assert all(r.rule == "|z| <= 4" for r in pair_reps)
    assert all(r.replicas == 5000 for r in pair_reps)
    means = [r for r in pair_reps if "-pairing mean" in r.statistic]
    variances = [r for r in pair_reps if "-pairing variance" in r.statistic]
    assert all(r.target == 0.0 for r in means)
    assert all(r.target > 0.0 for r in variances)
    ok = audit.passed and all(r.passed for r in pair_reps)
    worst = max(abs(r.z) for r in pair_reps)
    verdict(10, ok, f"telescoping max {audit.estimate:.3g} (tol 1e-10), "
                    f"worst pairing |z| = {worst:.2f} over 12 statistics")


def test_criterion_11_window_integral_properties(ops_suite):
    reports, _ = ops_suite
    for stat in ("window integral at t=0",
                 "window integral normalized tail bound",
                 "window integral laplace value"):
        assert one(reports, stat).passed
    # the same three facts checked directly, not via the suite
    exact_zero = l_nu(1.0, 0.0) == 0.0
    ts = np.geomspace(10.0, 1000.0, 25)
    sup = max(abs(t ** 1.5 * l_nu(1.0, t)) for t in ts)
    lap_err = abs(l_nu_laplace(1.0, 1.0) - 0.25)
    ok = exact_zero and 0.0 < sup <= 1.0 and lap_err <= 1e-4
    verdict(11, ok, f"value at 0 exact, sup t^1.5 l = {sup:.3g} on "
                    f"[10, 1000], Laplace error {lap_err:.3g} (tol 1e-4)")


def test_mc_reports_record_their_draws(cov_suite, drift_suite, spde_suite):
    # each Monte Carlo statistic drew at least one normal per replica and
    # left out at most TAIL_TOL of a weight row's energy; a
    # z-tested statistic draws one weight row and records the exact
    # variance of what it drew
    mc = [r for r in cov_suite[0] + drift_suite + spde_suite if r.replicas]
    # cov point and three Grams, drift variance, spde f1 and f2 moments
    assert len(mc) == 4 + 1 + 4
    for r in mc:
        assert r.grid["cells_drawn"] >= 1, r.statistic
        assert r.grid["energy_dropped"] <= 1e-8, r.statistic
        if r.rule.startswith("|z|"):
            assert r.grid["discrete_variance"] > 0.0, r.statistic


def test_mc_reports_draw_in_fitted_bases(cov_suite, spde_suite):
    # the cov weights are cropped folded about y = 0 and the spde weights
    # with their s axis out and back, which caps the normals each replica
    # draws; an even and an odd row share no coefficient, so the drawn
    # field/derivative cross-covariance is exactly 0
    cap = {"field variance at (0,1)": 1867,
           "field pairing Gram (8x8)": 18905,
           "derivative pairing Gram (8x8)": 18905,
           "field/derivative cross-covariance vs 0": 18905}
    for fi, cells in ((1, 4369), (2, 5367)):
        for what in ("mean", "variance"):
            cap[f"weak-form residual {what}, f{fi}"] = cells
    reports = {r.statistic: r for r in cov_suite[0] + spde_suite
               if r.statistic in cap}
    assert reports.keys() == cap.keys()
    for name, r in reports.items():
        assert r.grid["cells_drawn"] <= cap[name], name
    cross = reports["field/derivative cross-covariance vs 0"]
    assert cross.grid["discrete_gap"] == 0.0


def test_evolve_reports_record_their_law(evolve_suite):
    # each terminal pairing test records the exact variance of the scheme's
    # pairing from its adjoint weights; the 5000 replicas agree with it,
    # it sits within 2 % of the continuum target, and the contraction that
    # gives the estimates matches the forward-stepped block
    pair_reps = [r for r in evolve_suite
                 if r.statistic.startswith("terminal ")]
    for r in pair_reps:
        assert r.grid["discrete_variance"] > 0.0, r.statistic
    for r in pair_reps:
        if "-pairing variance" in r.statistic:
            exact = r.grid["discrete_variance"]
            assert abs(r.estimate - exact) <= 4.0 * r.se, r.statistic
            assert abs(exact / r.target - 1.0) <= 2e-2, r.statistic
    gate = one(evolve_suite,
               "adjoint contraction against forward stepping, "
               "max pairing gap")
    audit = one(evolve_suite, "telescoping audit, max over replicas")
    assert gate.target == 1e-10 and gate.passed
    assert gate.grid["replicas_stepped"] == audit.grid["replicas_stepped"] \
        == 16


def test_spde_bias_reads_the_drawn_law(spde_suite):
    # the bias report measures the exact law of the coefficients it draws,
    # the discrete_variance it records, against ||f||^2
    for fi in (1, 2):
        bias = one(spde_suite, f"weak-form discrete variance bias, f{fi}")
        var = one(spde_suite, f"weak-form residual variance, f{fi}")
        assert bias.grid == var.grid
        assert bias.estimate \
            == abs(bias.grid["discrete_variance"] / var.target - 1.0)


# reduced-size rerun pairs: (suite name, extra argv).  Sizes keep the full
# determinism surface (every suite, every report) at a few seconds each.
RERUNS = (
    ("ops", []),
    ("cov", ["--replicas", "400"]),
    ("drift", ["--tmax", "4", "--replicas", "200"]),
    ("spde", ["--n", "64", "--replicas", "200"]),
    ("evolve", ["--tmax", "8", "--n", "256", "--replicas", "100",
                "--Z", "0.2"]),
)


def test_criterion_12_reruns_are_byte_identical(tmp_path_factory):
    details = []
    ok = True
    for suite, extra in RERUNS:
        cmd = "evolve" if suite == "evolve" else f"verify-{suite}"
        texts = []
        for tag in ("a", "b"):
            out = tmp_path_factory.mktemp(f"{suite}_{tag}")
            rc = main([cmd, *extra, "--out", str(out)])
            assert rc == 0, f"{cmd} exited {rc}"
            texts.append((out / f"{suite}_report.json").read_text())
        docs = [json.loads(t) for t in texts]
        same_verdicts = ([r["pass"] for r in docs[0]["reports"]]
                         == [r["pass"] for r in docs[1]["reports"]])
        same_bytes = strip_timestamp(texts[0]) == strip_timestamp(texts[1])
        ok = ok and same_verdicts and same_bytes
        details.append(f"{suite}: {'identical' if same_bytes else 'DIFFERS'}")
    verdict(12, ok, ", ".join(details))


if __name__ == "__main__":
    pytest.main([__file__])
