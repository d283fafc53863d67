"""The time grid, the midpoint pairing, antisymmetric extension, bump test
functions."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import heatsheet as hs
from heatsheet import TimeGrid, antisym_extend
from heatsheet.grid import bump_profile

T_MAX = 8.0
N = 512

rng = np.random.default_rng(1)


@pytest.fixture
def grid():
    return TimeGrid(T_MAX, N)


class TestTimeGrid:
    def test_dt_and_midpoint_nodes(self, grid):
        assert grid.dt == T_MAX / N
        assert grid.nodes[0] == pytest.approx(0.5 * grid.dt)
        assert grid.nodes[-1] == pytest.approx(T_MAX - 0.5 * grid.dt)
        assert np.all(np.diff(grid.nodes) > 0)

    def test_rejects_nonpositive_t_max(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 64)
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 64)

    def test_rejects_non_power_of_two(self):
        for bad in (0, 3, 63, 4095):
            with pytest.raises(ValueError):
                TimeGrid(T_MAX, bad)

    def test_value_equality_and_hash(self, grid):
        same = TimeGrid(T_MAX, N)
        assert grid == same
        assert hash(grid) == hash(same)
        assert grid != TimeGrid(T_MAX, 2 * N)


class TestAntisymExtend:
    def test_odd_reflection_layout(self, grid):
        f = rng.standard_normal(N)
        fa = antisym_extend(f)
        assert fa.shape == (2 * N,)
        np.testing.assert_array_equal(fa[N:], f)
        np.testing.assert_array_equal(fa[:N], -f[::-1])

    def test_l2_norm_scales_by_sqrt2(self, grid):
        f = hs.TestFunction(2.0, 1.0, grid).values
        fa = antisym_extend(f)
        assert math.sqrt(np.sum(fa * fa)) == pytest.approx(
            math.sqrt(2.0) * math.sqrt(np.sum(f * f)), rel=1e-14)

    def test_l1_norm_doubles(self, grid):
        f = hs.TestFunction(2.0, 1.0, grid).values
        assert np.sum(np.abs(antisym_extend(f))) == pytest.approx(
            2.0 * np.sum(np.abs(f)), rel=1e-14)

    def test_restrict_roundtrip(self):
        # restricting the extension to the positive half recovers f
        f = rng.standard_normal(64)
        np.testing.assert_array_equal(antisym_extend(f)[64:], f)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_extension_is_odd(self, vals):
        fa = antisym_extend(np.array(vals))
        np.testing.assert_array_equal(fa, -fa[::-1])


class TestPair:
    """The pairing <f; g> = sum f(t_k) g(t_k) dt that the Grams and the
    evolve observables take on a TimeGrid is the midpoint rule."""

    def test_constant_against_constant(self, grid):
        ones = np.ones(N)
        assert np.sum(ones * ones) * grid.dt == pytest.approx(T_MAX, rel=1e-14)

    def test_exponential_midpoint_rule_second_order(self):
        # int_0^inf e^(-2t) dt = 1/2; midpoint rule converges at O(dt^2)
        errs = []
        for n in (2048, 4096):
            g = TimeGrid(20.0, n)
            e = np.exp(-g.nodes)
            errs.append(abs(np.sum(e * e) * g.dt - 0.5))
        assert errs[0] < 1e-5
        assert 3.5 < errs[0] / errs[1] < 4.5


class TestBump:
    def test_peak_value_is_amplitude_over_e(self, grid):
        # the amplitude is 1
        h = hs.TestFunction(2.0, 1.0, grid)
        assert h(np.array([2.0]))[0] == pytest.approx(1.0 / math.e, rel=1e-14)
        assert h.sup_norm == pytest.approx(1.0 / math.e, rel=1e-14)

    def test_compact_support(self, grid):
        h = hs.TestFunction(2.0, 1.0, grid)
        assert h.support == (1.0, 3.0)
        ts = np.array([0.5, 0.99, 3.01, 7.0])
        np.testing.assert_array_equal(h(ts), 0.0)

    def test_derivative_matches_finite_differences(self, grid):
        h = hs.TestFunction(2.0, 1.0, grid)
        ts = np.linspace(1.05, 2.95, 100)
        fd = (h(ts + 1e-6) - h(ts - 1e-6)) / 2e-6
        assert np.max(np.abs(fd - h.deriv(ts))) <= 1e-6 * h.sup_norm

    def test_second_derivative_matches_finite_differences(self, grid):
        h = hs.TestFunction(2.0, 1.0, grid)
        ts = np.linspace(1.1, 2.9, 60)
        fd = (h.deriv(ts + 1e-6) - h.deriv(ts - 1e-6)) / 2e-6
        assert np.max(np.abs(fd - h.deriv2(ts))) <= 1e-4

    def test_grid_values_are_cached(self, grid):
        h = hs.TestFunction(2.0, 1.0, grid)
        assert h.values is h.values
        assert h.deriv_values is h.deriv_values
        np.testing.assert_array_equal(h.values, h(grid.nodes))

    def test_explicit_testfunction_constructor(self, grid):
        h = hs.TestFunction(center=2.0, radius=1.0, grid=grid)
        np.testing.assert_array_equal(h.values,
                                      bump_profile(grid.nodes, 2.0, 1.0))
        for order, d in ((1, h.deriv), (2, h.deriv2)):
            np.testing.assert_array_equal(
                d(grid.nodes), bump_profile(grid.nodes, 2.0, 1.0, order))


if __name__ == "__main__":
    pytest.main([__file__])
