"""Estimators, hypothesis tests, and the report records they produce."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatsheet import (matrix_compare, mean_se, residual_report, var_se,
                       z_test)

finite = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)


def recompute_pass(report) -> bool:
    """Oracle: re-derive a report's pass flag from its stored numbers and
    its rule string alone."""
    rule = report.rule
    if rule.startswith("|z| <="):
        k = float(rule.split("<=")[1])
        if report.se == 0.0:
            return report.estimate == report.target
        z = (report.estimate - report.target) / report.se
        return abs(z) <= k
    if rule == "estimate <= target":
        return report.estimate <= report.target
    if rule.startswith("frac_within >="):
        # matrix comparisons store the within-k fraction as the estimate and
        # the worst |z| in se; target holds the required fraction
        need = float(rule.split(">=")[1].split(",")[0])
        kmax = float(rule.split("max|z| <=")[1])
        return report.estimate >= need and report.se <= kmax
    raise ValueError(f"unknown rule: {rule!r}")


class TestMeanSe:
    def test_constant_samples(self):
        m, se = mean_se(np.full(50, 3.25))
        assert m == 3.25
        assert se == 0.0

    def test_alternating_binary(self):
        x = np.tile([0.0, 1.0], 500)
        m, se = mean_se(x)
        assert m == 0.5
        # unbiased sample sd of a balanced 0/1 vector is 0.5 sqrt(n/(n-1))
        assert se == pytest.approx(0.5 * math.sqrt(1000 / 999) / math.sqrt(1000),
                                   rel=1e-12)
        assert se == pytest.approx(0.0158193, abs=1e-5)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            mean_se([1.0])

    def test_four_se_calibration(self):
        # meta-test: the 4 se band should essentially never miss the mean
        hits = 0
        for seed in range(100):
            x = np.random.default_rng(seed).standard_normal(100000)
            m, se = mean_se(x)
            hits += abs(m) <= 4.0 * se
        assert hits == 100


class TestVarSe:
    def test_alternating_binary(self):
        # unbiased variance of a balanced 0/1 vector is 0.25 n/(n-1)
        var, se = var_se(np.tile([0.0, 1.0], 500))
        assert var == pytest.approx(0.25 * 1000 / 999, rel=1e-12)
        assert se == var * math.sqrt(2.0 / 999)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            var_se([1.0])

    def test_four_se_calibration(self):
        # Gaussian samples: the 4 se band around the estimate holds 1
        hits = 0
        for seed in range(100):
            x = np.random.default_rng(seed).standard_normal(10000)
            var, se = var_se(x)
            hits += abs(var - 1.0) <= 4.0 * se
        assert hits == 100


class TestZTest:
    def test_exact_match(self):
        rep = z_test(1.0, 0.1, 1.0)
        assert rep.passed and rep.z == 0.0

    def test_five_sigma_fails(self):
        rep = z_test(1.5, 0.1, 1.0)
        assert not rep.passed
        assert rep.z == pytest.approx(5.0)

    def test_just_inside_band(self):
        rep = z_test(1.39, 0.1, 1.0)
        assert rep.passed
        assert rep.z == pytest.approx(3.9)

    def test_zero_se_exact(self):
        rep = z_test(2.0, 0.0, 2.0)
        assert rep.passed and rep.z == 0.0

    def test_zero_se_mismatch_is_infinite(self):
        rep = z_test(2.0, 0.0, 1.0)
        assert not rep.passed
        assert math.isinf(rep.z)

    def test_negative_se_rejected(self):
        with pytest.raises(ValueError):
            z_test(1.0, -0.1, 1.0)


class TestMatrixCompare:
    def test_equal_matrices_pass(self):
        g = np.eye(4)
        rep = matrix_compare(g, g, np.full((4, 4), 0.1), name="gram")
        assert rep.passed
        assert rep.estimate == 1.0

    def test_single_gross_outlier_fails(self):
        emp = np.eye(4)
        ana = emp.copy()
        se = np.full((4, 4), 0.1)
        emp[0, 0] += 3 * 4 * 0.1  # 12 se with K = 4
        rep = matrix_compare(emp, ana, se, name="gram")
        assert not rep.passed

    def test_max_rule_trips_even_with_good_fraction(self):
        # one 12 se entry in an 8x8: 63/64 = 0.984 >= 0.95 but the cap 2K = 8
        # is exceeded
        emp = np.zeros((8, 8))
        se = np.full((8, 8), 1.0)
        emp[3, 4] = 12.0
        rep = matrix_compare(emp, np.zeros((8, 8)), se, name="gram")
        assert not rep.passed
        assert rep.estimate >= 0.95

    def test_fraction_rule_trips(self):
        # 2 of 16 entries at 5 sigma: fraction 0.875 < 0.95
        emp = np.zeros((4, 4))
        se = np.full((4, 4), 1.0)
        emp[0, 0] = 5.0
        emp[1, 1] = -5.0
        rep = matrix_compare(emp, np.zeros((4, 4)), se, name="gram")
        assert not rep.passed
        assert rep.estimate == pytest.approx(14.0 / 16.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matrix_compare(np.zeros((2, 2)), np.zeros((3, 3)),
                           np.ones((2, 2)), name="gram")

    def test_zero_se_exact_entry_passes(self):
        g = np.eye(4)
        se = np.full((4, 4), 0.1)
        se[0, 1] = 0.0
        rep = matrix_compare(g, g, se, name="gram")
        assert rep.passed and rep.estimate == 1.0 and rep.se == 0.0

    def test_zero_se_mismatch_is_infinite(self):
        # as in z_test: an entry with se 0 that misses its target, however
        # narrowly, has z = inf, so it is outside K se and over the 2K cap
        emp = np.eye(4)
        ana = emp.copy()
        se = np.full((4, 4), 0.1)
        se[2, 3] = 0.0
        emp[2, 3] = 1e-12
        rep = matrix_compare(emp, ana, se, name="gram")
        assert not rep.passed
        assert math.isinf(rep.se)
        assert rep.estimate == pytest.approx(15.0 / 16.0)

    def test_negative_se_rejected(self):
        with pytest.raises(ValueError):
            matrix_compare(np.eye(2), np.eye(2), np.full((2, 2), -0.1))


class TestReportRecords:
    def test_json_roundtrip_and_pass_key(self):
        rep = z_test(1.1, 0.1, 1.0, name="demo statistic")
        # serialized as the suites write their reports
        d = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
        assert d["statistic"] == "demo statistic"
        assert d["pass"] is True
        assert "passed" not in d

    def test_z_and_matrix_rules(self):
        # the rule strings every report carries, with K = 4
        assert z_test(1.0, 0.1, 1.0).rule == "|z| <= 4"
        g = np.eye(2)
        assert matrix_compare(g, g, np.full((2, 2), 0.1)).rule \
            == "frac_within >= 0.95, max|z| <= 8"

    def test_residual_report_rule(self):
        rep = residual_report("resid", 0.005, 0.01)
        assert rep.passed
        assert rep.rule == "estimate <= target"
        bad = residual_report("resid", 0.02, 0.01)
        assert not bad.passed

    def test_recompute_matches_z_rule(self):
        rep = z_test(1.2, 0.1, 1.0)
        assert recompute_pass(rep) == rep.passed

    @pytest.mark.parametrize("outlier", [0.0, 0.5, 1.2])
    def test_recompute_matches_matrix_rule(self, outlier):
        emp = np.zeros((8, 8))
        emp[0, 0] = outlier  # 0, 5 and 12 se with K = 4
        rep = matrix_compare(emp, np.zeros((8, 8)), np.full((8, 8), 0.1))
        assert recompute_pass(rep) == rep.passed

    @settings(max_examples=60)
    @given(finite, st.floats(1e-9, 1e6), finite)
    def test_recompute_invariant_z(self, est, se, target):
        rep = z_test(est, se, target)
        assert recompute_pass(rep) == rep.passed

    @settings(max_examples=60)
    @given(st.floats(0, 1e6), st.floats(1e-9, 1e6))
    def test_recompute_invariant_residual(self, resid, tol):
        rep = residual_report("r", resid, tol)
        assert recompute_pass(rep) == rep.passed


if __name__ == "__main__":
    pytest.main([__file__])
