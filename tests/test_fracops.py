"""Fractional Laplacian and the Abel-type operators acting on extensions.

Reference values for the operator outputs were produced by adaptive
quadrature of the defining integrals after removing the square-root
singularities by substitution; they are frozen below.
"""
import math
import types
import warnings

import numpy as np
import pytest
from scipy.fft import dst

import heatsheet as hs
from heatsheet import (SpectralPlan, TimeGrid, antisym_extend, cov_v_apply,
                       frac_laplacian, halfroot_conv, l_nu, op_A1, op_A2)
from heatsheet.fracops import A2_TAIL_POWER, a1_a2_residual
from windows import smooth_window

T_MAX = 8.0
N = 1024

# quadrature values of the three operators applied to the bump of center 2
# and radius 1 on
# (t_max=8, n=1024), at the grid nodes 192, 256, 332, 640
PROBE_NODES = [192, 256, 332, 640]
A2_REF = [0.4254822327289219, 0.5910037189213994,
          0.30501913838178357, -0.018090004495742853]
A1_REF = [-0.02787993395798696, 0.28925599023068893,
          0.42441256132744426, 0.0]
HALFROOT_REF = [0.19365859926501147, 0.25398402034600054,
                0.17641371149836407, 0.025369666903207876]


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(T_MAX, N)


@pytest.fixture(scope="module")
def h(grid):
    return hs.TestFunction(2.0, 1.0, grid)


@pytest.fixture(scope="module")
def plan(grid):
    return SpectralPlan(grid)


def frac_laplacian_rfft(f, beta, grid, pad):
    """The reference route: |tau|^beta on the complex zero-padded transform
    of the full odd extension [-f reversed, f, 0...] of length 2 pad n,
    with the tau = 0 bin set to 0 (1 for beta = 0); positive half out."""
    n = grid.n
    N = 2 * pad * n
    tau = 2.0 * np.pi * np.fft.rfftfreq(N, d=grid.dt)
    m = np.zeros_like(tau)
    m[1:] = tau[1:] ** beta
    if beta == 0.0:
        m[0] = 1.0
    spec = np.fft.rfft(antisym_extend(f), n=N, axis=-1) * m
    return np.fft.irfft(spec, n=N, axis=-1)[..., n:2 * n]


class TestSpectralPlan:
    def test_rejects_small_padding(self, grid):
        with pytest.raises(ValueError):
            SpectralPlan(grid, pad=1)
        # an odd padded half cannot split into odd and even bins
        with pytest.raises(ValueError, match="pad n must be even"):
            SpectralPlan(TimeGrid(T_MAX, 1), pad=3)

    @pytest.mark.parametrize("pad", [2, 3, 4])
    def test_forward_is_the_padded_dst2_in_bin_order(self, grid, pad):
        # forward splits the DST-II of f zero-padded to padded_len/2 into a
        # DST-IV (bins 1, 3, ..) and a DST-II (bins 2, 4, ..) of half that
        # length; the result is those bins in that order, and tau with them
        p = SpectralPlan(grid, pad=pad)
        half = p.padded_len // 2
        order = np.r_[0:half:2, 1:half:2]
        f1 = hs.TestFunction(2.0, 1.0, grid).values
        batch = np.random.default_rng(3).standard_normal((3, N))
        for f in (f1, batch):
            ref = dst(f, type=2, n=half, axis=-1)[..., order]
            out = p.forward(f)
            assert out.shape == ref.shape
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.max(np.abs(p.inverse(out) - f)) <= 1e-14
        k = np.arange(1, half + 1)[order]
        np.testing.assert_allclose(
            p.tau, 2.0 * np.pi * k / (p.padded_len * grid.dt), rtol=1e-15)

    def test_multiplier_zero_bin(self, plan):
        # odd input has no tau = 0 component, so the sine bins start at the
        # first nonzero frequency and no multiplier needs a zero-bin rule
        tau, padded = plan.tau, plan.padded_len
        assert tau.shape == (padded // 2,)
        assert tau[0] == pytest.approx(2.0 * np.pi / (padded * plan.grid.dt),
                                       rel=1e-15)
        assert tau[-1] == pytest.approx(np.pi / plan.grid.dt, rel=1e-15)
        assert plan.multiplier(0.5)[0] == pytest.approx(math.sqrt(tau[0]),
                                                        rel=1e-15)
        assert np.all(plan.multiplier(0.0) == 1.0)

    def test_padded_length(self, grid, h):
        p = SpectralPlan(grid, pad=4)
        assert p.padded_len == 4 * 2 * N
        assert p.forward(h.values).shape == (4 * N,)
        assert p.inverse(p.forward(h.values)).shape == (N,)


class TestFracLaplacian:
    def test_beta_zero_is_identity(self, h, plan):
        out = frac_laplacian(h.values, 0.0, plan)
        assert np.max(np.abs(out - h.values)) <= 1e-12

    @pytest.mark.parametrize("pad", [2, 4])
    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0])
    def test_matches_rfft_route(self, grid, pad, beta):
        # the sine transform of the half line is the complex transform of the
        # zero-padded odd extension without its zero bin, up to roundoff
        p = SpectralPlan(grid, pad=pad)
        f1 = hs.TestFunction(2.0, 1.0, grid).values
        f2 = -0.3 * hs.TestFunction(4.5, 1.5, grid).values
        for f in (f1, np.stack([f1, f2, f1 - 2.0 * f2])):
            ref = frac_laplacian_rfft(f, beta, grid, pad)
            out = frac_laplacian(f, beta, p)
            assert out.shape == f.shape
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_windowed_tone_eigenfunction(self, grid, plan):
        # sin(k t) localized by a smooth window: |tau|^beta acts as k^beta
        k = 8.0
        tone = np.sin(k * grid.nodes) * smooth_window(grid, 0.5, 7.5, ramp=1.0)
        interior = (grid.nodes > 2.0) & (grid.nodes < 6.0)
        half = frac_laplacian(tone, 0.5, plan)
        err = np.max(np.abs(half - math.sqrt(k) * tone)[interior])
        assert err <= 1e-2 * math.sqrt(k) * np.max(np.abs(tone))
        one = frac_laplacian(tone, 1.0, plan)
        assert np.max(np.abs(one - k * tone)[interior]) <= 1e-2 * k

    def test_linearity(self, grid, plan):
        f1 = hs.TestFunction(2.0, 1.0, grid).values
        f2 = hs.TestFunction(4.5, 1.5, grid).values
        a, b = 0.7, -1.9
        lhs = frac_laplacian(a * f1 + b * f2, 0.5, plan)
        rhs = a * frac_laplacian(f1, 0.5, plan) \
            + b * frac_laplacian(f2, 0.5, plan)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_quarter_twice_equals_half(self):
        # high-pass input: the truncation spill of the first application is
        # far below the target; low-frequency content would surface it
        g = TimeGrid(8.0, 4096)
        p = SpectralPlan(g)
        tone = np.sin(128.0 * g.nodes) * smooth_window(g, 1.0, 7.0, ramp=2.0)
        twice = frac_laplacian(frac_laplacian(tone, 0.25, p), 0.25, p)
        once = frac_laplacian(tone, 0.5, p)
        assert np.max(np.abs(twice - once)) <= 1e-10

    def test_wrong_length_rejected(self, plan):
        with pytest.raises(ValueError):
            frac_laplacian(np.zeros(N + 2), 0.5, plan)
        with pytest.raises(ValueError):
            frac_laplacian(np.zeros(2 * N), 0.5, plan)

    def test_nondecaying_input_warns(self, grid, plan):
        with pytest.warns(RuntimeWarning):
            frac_laplacian(np.ones(N), 0.5, plan)
        # t = 0 is interior to the odd extension: a value there is no
        # truncation
        near_zero = np.zeros(N)
        near_zero[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frac_laplacian(near_zero, 0.5, plan)

    def test_singular_beta_on_odd_extension(self, grid, h, plan):
        # the odd extension has no tau = 0 component, so beta < -1 needs no
        # mean-free check
        out = frac_laplacian(h.values, -1.5, plan)
        ref = frac_laplacian_rfft(h.values, -1.5, grid, plan.pad)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_batched_input(self, h, plan):
        batch = np.stack([h.values, 2.0 * h.values])
        out = frac_laplacian(batch, 0.5, plan)
        assert out.shape == (2, N)
        np.testing.assert_allclose(out[1], 2.0 * out[0], rtol=1e-13)


class TestOpA2:
    def test_frozen_quadrature_values(self, h):
        a2 = op_A2(h)
        for k, ref in zip(PROBE_NODES, A2_REF):
            assert a2[k] == pytest.approx(ref, abs=5e-4)

    def test_matches_scaled_quarter_operator(self, grid, h):
        # the identity behind the factorization: A2 h = sqrt2 (-d_t^2)^(1/4) h^a
        plan4 = SpectralPlan(grid, pad=4)
        spectral = math.sqrt(2.0) * frac_laplacian(h.values, 0.5, plan4)
        interior = grid.nodes <= 6.0
        err = np.max(np.abs(op_A2(h) - spectral)[interior])
        assert err <= 1e-2 * h.sup_norm

    def test_far_field_bound(self, grid, h):
        # beyond twice the support edge the output obeys the envelope
        # sup|h| c (t - c)^(-3/2) with c the support's upper edge
        a2 = op_A2(h)
        c = h.support[1]
        m = grid.nodes >= 2.0 * c
        bound = h.sup_norm * c * (grid.nodes[m] - c) ** -1.5
        assert np.all(np.abs(a2[m]) <= bound)
        assert np.max(grid.nodes[m] ** 1.5 * np.abs(a2[m])) < 0.5

    def test_extension_smoothness_under_refinement(self):
        # second differences of the antisymmetric extension stay bounded as
        # the grid refines (no kink at t = 0)
        worst = {}
        for n in (512, 2048):
            g = TimeGrid(T_MAX, n)
            ext = antisym_extend(op_A2(hs.TestFunction(2.0, 1.0, g)))
            worst[n] = np.max(np.abs(np.diff(ext, 2))) / g.dt ** 2
        assert worst[2048] < 60.0
        assert worst[2048] / worst[512] < 1.15


class TestHalfrootConv:
    def test_frozen_quadrature_values(self, grid, h):
        hr = halfroot_conv(h.values, grid)
        for k, ref in zip(PROBE_NODES, HALFROOT_REF):
            assert hr[k] == pytest.approx(ref, abs=1e-5)

    def test_is_twice_the_covariance_smoother(self, grid, h):
        np.testing.assert_array_equal(halfroot_conv(h.values, grid),
                                      2.0 * cov_v_apply(h.values, grid))

    def test_inverts_op_A2(self, grid, h):
        # principal-value convolution against (4 pi |.|)^(-1/2) undoes A2
        recon = halfroot_conv(op_A2(h), grid, tail=("power", A2_TAIL_POWER - 1.0))
        assert np.max(np.abs(recon - h.values)) <= 1e-2 * h.sup_norm

    def test_exponential_matches_window_integral(self):
        # halfroot_conv(e^-t) equals the t-window integral of the drift
        # kernel; compare on the near half of a long grid
        g = TimeGrid(16.0, 2048)
        out = halfroot_conv(np.exp(-g.nodes), g)
        m = g.nodes <= 8.0
        ref = np.array([l_nu(1.0, t) for t in g.nodes[m]])
        assert np.max(np.abs(out[m] - ref) / ref) <= 1e-3

    def test_tail_model_validation(self, grid, h):
        with pytest.raises(ValueError):
            halfroot_conv(h.values, grid, tail=("exp", 1.0))

    def test_wrong_shape(self, grid):
        with pytest.raises(ValueError):
            halfroot_conv(np.zeros(N + 1), grid)


class TestOpA1:
    def test_exponential_eigenfunction(self):
        # A1 e^(-nu t) = sqrt(nu) e^(-nu t); checked where the values are
        # well above the grid floor
        g = TimeGrid(T_MAX, 4096)
        for nu in (1.0, 4.0):
            f = np.exp(-nu * g.nodes)
            out = op_A1(f, g, tail=("exp", nu))
            m = g.nodes <= 4.0
            rel = np.abs(out - math.sqrt(nu) * f)[m] / (math.sqrt(nu) * f[m])
            assert np.max(rel) <= 1e-3

    def test_frozen_quadrature_values(self, grid, h):
        # h vanishes at t_max, so the power tail adds exactly 0
        a1 = op_A1(h.values, grid, tail=("power", A2_TAIL_POWER))
        for k, ref in zip(PROBE_NODES, A1_REF):
            assert a1[k] == pytest.approx(ref, abs=6e-4)

    def test_tail_model_is_required(self, grid, h):
        with pytest.raises(ValueError):
            op_A1(h.values, grid, tail=None)
        with pytest.raises(ValueError):
            op_A1(h.values, grid, tail=("bogus", 1.0))
        with pytest.raises(ValueError, match="unknown tail model"):
            op_A1(h.values, grid, tail=("zero",))
        with pytest.raises(ValueError):
            op_A1(h.values, grid, tail=("power", 0.5))
        with pytest.raises(ValueError):
            op_A1(h.values, grid, tail=("exp", 0.0))

    def test_linearity(self, grid):
        f1 = hs.TestFunction(2.0, 1.0, grid).values
        f2 = hs.TestFunction(4.5, 1.5, grid).values
        tail = ("power", A2_TAIL_POWER)
        lhs = op_A1(0.7 * f1 - 1.9 * f2, grid, tail=tail)
        rhs = 0.7 * op_A1(f1, grid, tail=tail) \
            - 1.9 * op_A1(f2, grid, tail=tail)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestCompositionIdentity:
    def test_zero_input_zero_residual(self, grid):
        # a1_a2_residual reads a test function's grid, values and
        # derivative values only
        zero = types.SimpleNamespace(grid=grid, values=np.zeros(N),
                                     deriv_values=np.zeros(N))
        assert a1_a2_residual(zero, SpectralPlan(grid)) == 0.0


if __name__ == "__main__":
    pytest.main([__file__])
