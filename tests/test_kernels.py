"""The heat kernel, its Laplace transform, and the window integral l_nu."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from heatsheet import l_nu, l_nu_laplace, laplace_g
from heatsheet.gaussfield import point_weights

SQRT4PI = math.sqrt(4.0 * math.pi)


def heat_kernel(y, s, x, t):
    # the library heat kernel g(y, s; x, t) on a single sheet cell
    return float(point_weights(np.array([y]), np.array([s]), x, t)[0, 0])


def l_nu_quad(nu, t):
    # independent route: the defining r-integral, split at the
    # |1 - r|^(-1/2) singularity, with the far piece mapped by r = 1/w
    if t == 0.0:
        return 0.0
    a = nu * t
    tol = 1e-12
    # [0,1]: substitute 1 - r = w^2 to remove the left singularity
    i1 = quad(lambda w: 2.0 * np.exp(-a * (1.0 - w * w)), 0.0, 1.0,
              epsabs=tol, epsrel=tol)[0]
    # [1,2]: substitute r = 1 + w^2 for the right side of the singularity
    i2 = quad(lambda w: 2.0 * np.exp(-a * (1.0 + w * w)), 0.0, 1.0,
              epsabs=tol, epsrel=tol)[0]
    # smooth -(1+r)^(-1/2) part on [0,2]
    i3 = quad(lambda r: -np.exp(-a * r) / np.sqrt(1.0 + r), 0.0, 2.0,
              epsabs=tol, epsrel=tol)[0]

    def far(w):
        r = 1.0 / w
        return (1.0 / np.sqrt(r - 1.0) - 1.0 / np.sqrt(r + 1.0)) \
            * np.exp(-a * r) / (w * w)

    i4 = quad(far, 1e-300, 0.5, epsabs=tol, epsrel=tol)[0]
    return math.sqrt(t) / SQRT4PI * (i1 + i2 + i3 + i4)


class TestHeatKernel:
    def test_unit_height_at_quarter_pi_inverse_time(self):
        assert heat_kernel(0.0, 0.0, 0.0, 1.0 / (4.0 * math.pi)) == 1.0

    def test_distance_two_unit_time(self):
        val = heat_kernel(0.0, 0.0, 2.0, 1.0)
        assert val == pytest.approx(math.exp(-1.0) / SQRT4PI, rel=1e-12)
        assert val == pytest.approx(0.103777, abs=1e-6)

    def test_causality_zero_at_or_before_source_time(self):
        assert heat_kernel(0.0, 1.0, 0.5, 1.0) == 0.0
        assert heat_kernel(0.0, 2.0, 0.5, 1.0) == 0.0

    def test_chapman_kolmogorov(self):
        # semigroup property: integrating over the intermediate point at
        # time 0.5 reproduces the kernel over the full interval
        t_mid, t_end, x = 0.5, 1.5, 0.3
        composed = quad(
            lambda z: heat_kernel(0.0, 0.0, z, t_mid)
            * heat_kernel(z, t_mid, x, t_end),
            -14.0, 14.0, epsabs=1e-12, epsrel=1e-12, limit=300)[0]
        direct = heat_kernel(0.0, 0.0, x, t_end)
        assert composed == pytest.approx(direct, abs=1e-9)

    def test_mass_one(self):
        total = quad(lambda y: heat_kernel(y, 0.0, 0.0, 2.0),
                     -40.0, 40.0, epsabs=1e-12, epsrel=1e-12, limit=300)[0]
        assert total == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=40)
    @given(st.floats(0.01, 10.0), st.floats(-5.0, 5.0))
    def test_positive_and_finite(self, tau, d):
        v = heat_kernel(0.0, 0.0, d, tau)
        assert 0.0 < v < 10.0


class TestLaplaceG:
    def test_closed_values(self):
        assert laplace_g(0.0, 1.0) == pytest.approx(0.5, rel=1e-14)
        assert laplace_g(0.0, 4.0) == pytest.approx(0.25, rel=1e-14)
        assert laplace_g(1.0, 1.0) == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-14)

    def test_against_time_integral(self):
        # laplace transform of the heat kernel in its time variable
        for dist in (0.0, 0.5, 1.0, 2.0):
            for nu in (0.5, 1.0, 4.0):
                num = quad(lambda t: math.exp(-dist * dist / (4.0 * t))
                           / math.sqrt(4.0 * math.pi * t) * math.exp(-nu * t),
                           1e-12, 200.0, epsabs=1e-12, epsrel=1e-12, limit=500)[0]
                assert laplace_g(dist, nu) == pytest.approx(num, rel=1e-6)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            laplace_g(1.0, 0.0)
        with pytest.raises(ValueError):
            laplace_g(-0.5, 1.0)


class TestLnu:
    def test_zero_at_zero_exactly(self):
        assert l_nu(1.0, 0.0) == 0.0

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            l_nu(1.0, -0.1)

    def test_spec_requires_positive_nu(self):
        # the decay rate nu is the whole specification of l_nu
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="nu must be positive"):
                l_nu(bad, 1.0)
            with pytest.raises(ValueError, match="nu must be positive"):
                l_nu_laplace(bad, 1.0)
        with pytest.raises(ValueError, match="nu_tilde must be positive"):
            l_nu_laplace(1.0, 0.0)

    def test_matches_special_function_closed_form(self):
        # the library's closed form against the singularity-split quadrature
        for nu in (1.0, 2.0):
            for t in (0.3, 1.0, 2.5, 10.0, 100.0):
                assert l_nu(nu, t) == pytest.approx(
                    l_nu_quad(nu, t), rel=1e-11)

    def test_frozen_value(self):
        assert l_nu(1.0, 1.0) == pytest.approx(
            0.27372678542851453, rel=1e-12)

    def test_three_halves_tail_bounded(self):
        ts = np.geomspace(10.0, 1000.0, 40)
        scaled = np.array([t ** 1.5 * l_nu(1.0, t) for t in ts])
        assert np.all(scaled > 0.25)
        assert np.all(scaled < 0.32)
        # tail constant: t^(3/2) l_1(t) -> 1/(2 sqrt pi) from above
        assert scaled[-1] == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=2e-3)

    def test_laplace_value_at_unit_rates(self):
        val = l_nu_laplace(1.0, 1.0)
        assert val == pytest.approx(0.25, rel=1e-6)

    @pytest.mark.parametrize("nt", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("nu", [1.0, 2.0, 4.0])
    def test_laplace_closed_form_other_rates(self, nu, nt):
        # transform algebra gives 1 / ((sqrt(nt) + sqrt(nu)) (nt + nu)); the
        # fixed Gauss-Legendre rule must hold it to near roundoff
        val = l_nu_laplace(nu, nt)
        ref = 1.0 / ((math.sqrt(nt) + math.sqrt(nu)) * (nt + nu))
        assert val == pytest.approx(ref, rel=1e-12)


if __name__ == "__main__":
    pytest.main([__file__])
