"""Spatial dynamics: stepping, stability, stationary initialization, and
trajectory bookkeeping.

The damped-mode reference below: a windowed tone sin(k t) evolves, at the
observable level, like the critically-mixed oscillator u'' + sqrt(2k) u' +
k u = 0, whose unit-initial solution is e^(-a z) (cos a z + sin a z) with
a = sqrt(k/2).  On the tone's plateau every operator of the step acts as
its symbol at tau = k, so one step acts as that mode's 2x2 BAOAB map.
"""
import copy
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

import heatsheet as hs
from heatsheet import (EvolveConfig, EvolveResult, FieldState, InstabilityError,
                       SpectralPlan, StationarySampler, TimeGrid, evolve,
                       noise_draw, spectral_radius, stability_limit,
                       stationary_basis)
from heatsheet.cli import (EVOLVE_BATCH, EVOLVE_N, EVOLVE_T_MAX, _parallel,
                           evolve_observables)
from heatsheet.fracops import frac_laplacian
from heatsheet.gaussfield import MAX_SHEET_CELLS, sheet_rng
from heatsheet.sde import SQRT2, _ou_factors, adjoint_weights
from windows import smooth_window

T_MAX = 8.0
N = 512


def pair(f, g, grid) -> float:
    """Discrete L2([0, inf)) pairing <f; g> = sum f(t_k) g(t_k) dt."""
    return float(np.sum(f * g) * grid.dt)


def zero_state(grid) -> FieldState:
    return FieldState(u=np.zeros(grid.n), v=np.zeros(grid.n), z=0.0, grid=grid)


def zero_block(grid) -> FieldState:
    """A block of one replica at rest, the smallest state evolve takes."""
    return FieldState.stack([zero_state(grid)])


def lap(f, beta, plan):
    # evolving states need not vanish at t_max; the truncation error belongs
    # to the scheme under test, so the decay warning is not wanted here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return frac_laplacian(f, beta, plan)


def ou_step(v, dz, noise, plan):
    """The exact OU step of every sine mode, written from the plan's
    multipliers: decay e^(-gamma dz) and noise variance (1 - e^(-2 gamma
    dz)) / (2 gamma) for the white row noise of variance dz a unit."""
    gamma = SQRT2 * np.sqrt(plan.tau)
    spec = np.exp(-gamma * dz) * plan.forward(v) + np.sqrt(
        (1.0 - np.exp(-2.0 * gamma * dz)) / (2.0 * gamma * dz)) \
        * plan.forward(noise)
    return plan.inverse(spec)


def baoab_step(state, dz, noise, plan):
    """One BAOAB step written apart from evolve's: each kick from a fresh
    time-domain frac_laplacian call, no carried spectrum."""
    half = 0.5 * dz
    v = state.v - half * lap(state.u, 1.0, plan)
    u = state.u + half * v
    v = ou_step(v, dz, noise, plan)
    u = u + half * v
    v = v - half * lap(u, 1.0, plan)
    return FieldState(u=u, v=v, z=state.z + dz, grid=state.grid)


def one_step(state, dz, plan):
    """evolve's noiseless step from a single state."""
    cfg = EvolveConfig(dz=dz, Z=dz, observables=(), noise=False)
    out = evolve(FieldState.stack([state]), cfg, plan).final_state
    return FieldState(u=out.u[0], v=out.v[0], z=out.z, grid=state.grid)


def mode_map(tau, dz):
    """The noiseless BAOAB map of one mode, one 2x2 factor at a time."""
    kick = np.array([[1.0, 0.0], [-0.5 * dz * tau, 1.0]])
    drift = np.array([[1.0, 0.5 * dz], [0.0, 1.0]])
    ou = np.diag([1.0, math.exp(-SQRT2 * math.sqrt(tau) * dz)])
    return kick @ drift @ ou @ drift @ kick


def map_radius(tau, dz) -> float:
    """Spectral radius of the map of mode tau, from its characteristic
    polynomial lambda^2 - tr lambda + det."""
    M = mode_map(tau, dz)
    tr, det = M[0, 0] + M[1, 1], M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    root = np.sqrt(complex(tr * tr - 4.0 * det))
    return max(abs(0.5 * (tr + root)), abs(0.5 * (tr - root)))


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(T_MAX, N)


@pytest.fixture(scope="module")
def plan(grid):
    return SpectralPlan(grid)


class TestStability:
    def test_limit_value(self, grid):
        assert stability_limit(grid) == pytest.approx(0.05, rel=1e-15)

    def test_radius_at_limit_is_one(self, grid):
        # the shipped rule contracts every mode; the BAOAB bound, h = 2 at
        # the Nyquist mode, is neutral: eigenvalues -1 and -e^(-2 sqrt 2)
        assert spectral_radius(grid, stability_limit(grid)) < 1.0
        nyquist = stability_limit(grid) * math.sqrt(math.pi / grid.dt)
        assert map_radius(1.0, nyquist) == pytest.approx(0.6057, abs=1e-4)
        bound = 2.0 * math.sqrt(grid.dt / math.pi)
        assert spectral_radius(grid, bound) == pytest.approx(1.0, abs=1e-12)
        assert map_radius(1.0, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_radius_above_threshold(self, grid):
        # h = 2.1 at the Nyquist mode
        dz = 2.1 * math.sqrt(grid.dt / math.pi)
        assert spectral_radius(grid, dz) == pytest.approx(
            map_radius(1.0, 2.1), rel=1e-12)
        assert spectral_radius(grid, dz) == pytest.approx(1.225, abs=1e-3)

    @pytest.mark.parametrize("n", [256, N])
    @pytest.mark.parametrize("dz", [0.0125, 0.05, 0.125, 0.25, 1.0, 3.0])
    def test_radius_equals_a_scan_of_the_modes(self, n, dz):
        # the largest radius over every sine mode of the grid's plan, from
        # the test's own per-mode maps
        g = TimeGrid(T_MAX, n)
        scan = max(map_radius(tau, dz) for tau in SpectralPlan(g).tau)
        assert spectral_radius(g, dz) == pytest.approx(scan, rel=1e-9)

    @pytest.mark.parametrize("h", [0.1, 0.5, 1.0])
    def test_one_mode_stationary_law(self, h):
        # the discrete Lyapunov solution of one noisy mode: u variance
        # 1/(2 gamma tau) exactly, v variance 1/(2 gamma) (1 - h^2/4)
        tau = 10.0
        dz = h / math.sqrt(tau)
        gamma = SQRT2 * math.sqrt(tau)
        M = mode_map(tau, dz)
        _, gain = _ou_factors(np.array([gamma]), dz)
        # the OU noise enters v, then passes a half drift and a half kick
        after = np.array([[1.0, 0.0], [-0.5 * dz * tau, 1.0]]) \
            @ np.array([[1.0, 0.5 * dz], [0.0, 1.0]])
        Q = float(gain[0]) ** 2 * dz * np.outer(after[:, 1], after[:, 1])
        S = solve_discrete_lyapunov(M, Q)
        assert S[0, 0] * 2.0 * gamma * tau == pytest.approx(1.0, abs=1e-12)
        assert S[1, 1] * 2.0 * gamma == pytest.approx(1.0 - h * h / 4.0,
                                                      abs=1e-12)


class TestSmoothWindow:
    def test_plateau_and_support(self, grid):
        w = smooth_window(grid, 1.0, 7.0, ramp=1.0)
        t = grid.nodes
        assert np.all(w[(t >= 2.0) & (t <= 6.0)] == 1.0)
        assert np.all(w[(t <= 1.0) | (t >= 7.0)] == 0.0)
        assert np.all((w >= 0.0) & (w <= 1.0))

    def test_validation(self, grid):
        with pytest.raises(ValueError):
            smooth_window(grid, -1.0, 7.0)
        with pytest.raises(ValueError):
            smooth_window(grid, 1.0, 9.0)
        with pytest.raises(ValueError):
            smooth_window(grid, 1.0, 2.5, ramp=1.0)


class TestFieldState:
    def test_shape_validation(self, grid):
        with pytest.raises(ValueError):
            FieldState(u=np.zeros(N + 1), v=np.zeros(N), z=0.0, grid=grid)

    def test_zero_state(self, grid):
        s = zero_state(grid)
        assert s.z == 0.0
        assert float(np.max(np.abs(s.u))) == 0.0


def tone(grid, k):
    return np.sin(k * grid.nodes) * smooth_window(grid, 0.5, 7.5)


class TestDrift:
    def test_zero_state(self, grid, plan):
        out = one_step(zero_state(grid), stability_limit(grid), plan)
        assert float(np.max(np.abs(out.u))) == 0.0
        assert float(np.max(np.abs(out.v))) == 0.0

    def test_u_rate_is_v(self, grid, plan):
        # from u = 0 the kicks vanish, so one noiseless step moves u by the
        # two half-drift velocities: v, then v after the OU decay
        w = smooth_window(grid, 1.0, 7.0)
        v0 = w * sheet_rng(0, 0).standard_normal(N)
        dz = stability_limit(grid)
        out = one_step(FieldState(u=np.zeros(N), v=v0, z=0.0, grid=grid), dz,
                       plan)
        v_ou = ou_step(v0, dz, np.zeros(N), plan)
        assert _rel_diff(out.u, 0.5 * dz * (v0 + v_ou)) <= 1e-14

    def test_linearity(self, grid, plan):
        w = smooth_window(grid, 1.0, 7.0)
        s1 = FieldState(u=w * np.sin(3.0 * grid.nodes),
                        v=w * np.cos(5.0 * grid.nodes), z=0.0, grid=grid)
        s2 = FieldState(u=2.0 * s1.u, v=2.0 * s1.v, z=0.0, grid=grid)
        dz = stability_limit(grid)
        o1, o2 = one_step(s1, dz, plan), one_step(s2, dz, plan)
        assert _rel_diff(o2.u, 2.0 * o1.u) <= 1e-12
        assert _rel_diff(o2.v, 2.0 * o1.v) <= 1e-12

    def test_restoring_rate_on_tone(self, grid, plan):
        # (u, v) = (tone, 0): on the plateau one step returns the first
        # column of the mode map at tau = k, restoring force included
        self._tone_column(grid, plan, 0)

    def test_damping_rate_on_tone(self, grid, plan):
        # (u, v) = (0, tone): the second column, friction sqrt(2 k) included
        self._tone_column(grid, plan, 1)

    @staticmethod
    def _tone_column(grid, plan, col):
        k = 8.0
        dz = stability_limit(grid)
        f = tone(grid, k)
        z = np.zeros(N)
        start = FieldState(u=f if col == 0 else z, v=z if col == 0 else f,
                           z=0.0, grid=grid)
        out = one_step(start, dz, plan)
        M = mode_map(k, dz)
        interior = (grid.nodes > 2.0) & (grid.nodes < 6.0)
        for got, want in ((out.u, M[0, col] * f), (out.v, M[1, col] * f)):
            assert np.max(np.abs(got - want)[interior]) <= 1e-3

    def test_grid_mismatch(self, grid):
        other = SpectralPlan(TimeGrid(T_MAX, 256))
        cfg = EvolveConfig(dz=stability_limit(grid), Z=0.25, observables=(),
                           noise=False)
        with pytest.raises(ValueError, match="grids differ"):
            evolve(zero_block(grid), cfg, other)


class TestStep:
    def test_noise_enters_through_the_ou_step(self, grid, plan):
        # one step from rest: the kicks and the decay act on zero, so v is
        # the coloured noise row, u half a drift of it, and v then takes
        # the closing kick from that u
        dz = stability_limit(grid)
        cfg = EvolveConfig(dz=dz, Z=dz, observables=())
        out = evolve(zero_block(grid), cfg, plan,
                     [sheet_rng(1, 0)]).final_state
        w = sheet_rng(1, 0).standard_normal(N) * math.sqrt(dz / grid.dt)
        v_ou = ou_step(np.zeros(N), dz, w, plan)
        u = 0.5 * dz * v_ou
        assert _rel_diff(out.u[0], u) <= 1e-14
        assert _rel_diff(out.v[0], v_ou - 0.5 * dz * lap(u, 1.0, plan)) \
            <= 1e-14
        assert out.z == dz

    def test_instability_reported(self, grid, plan):
        big = FieldState(u=np.full((1, N), np.inf), v=np.zeros((1, N)), z=0.0,
                         grid=grid)
        cfg = EvolveConfig(dz=0.01, Z=0.01, observables=(), noise=False)
        factor = spectral_radius(grid, 0.01)
        assert 0.99 < factor < 1.0
        with np.errstate(all="ignore"):
            with pytest.raises(InstabilityError, match=(
                    rf"^non-finite state at z=0\.01; noiseless amplification "
                    rf"factor {factor:.4f} \(>= 1 means the step violates "
                    rf"stability; limit dz <= 5\.000e-02\)$")):
                evolve(big, cfg, plan)

    def test_init_left_unchanged(self, grid, plan):
        # evolve steps its own copy of the block
        init = StationarySampler(grid).draw(sheet_rng(2, 0))
        block = FieldState.stack([init, init])
        u0, v0 = block.u.copy(), block.v.copy()
        cfg = EvolveConfig(dz=stability_limit(grid), Z=0.1, observables=())
        res = evolve(block, cfg, plan, [sheet_rng(2, r) for r in range(2)])
        np.testing.assert_array_equal(block.u, u0)
        np.testing.assert_array_equal(block.v, v0)
        assert not np.array_equal(res.final_state.v, v0)


class TestNoiseDraw:
    def test_rows_come_from_their_own_streams(self, grid):
        # row r is rngs[r]'s next n normals, scaled by sqrt(dz / dt)
        dz = 0.05
        block = np.empty((3, grid.n))
        noise_draw([sheet_rng(4, r) for r in range(3)], grid, dz, block)
        for r in range(3):
            want = sheet_rng(4, r).standard_normal(grid.n) \
                * math.sqrt(dz / grid.dt)
            np.testing.assert_array_equal(block[r], want)
        with pytest.raises(ValueError):
            noise_draw([sheet_rng(4, 0)] * 2, grid, dz, block)

    def test_pairing_variance(self, grid):
        # <dW; h> must carry variance dz ||h||^2, over the rows of a block
        h = hs.TestFunction(4.0, 2.0, grid)
        dz = 0.05
        R = 10_000
        block = np.empty((R, grid.n))
        noise_draw([sheet_rng(5, r) for r in range(R)], grid, dz, block)
        vals = np.array([pair(row, h.values, grid) for row in block])
        target = dz * pair(h.values, h.values, grid)
        var = float(np.var(vals, ddof=1))
        se = target * math.sqrt(2.0 / (R - 1))
        assert abs(var - target) <= 4.0 * se


class TestStationary:
    def test_basis_layout(self, grid):
        basis = stationary_basis(grid)
        assert len(basis) == 40
        assert basis[0].support[0] >= 0.0
        assert basis[-1].support[1] <= grid.t_max
        centers = [h.center for h in basis]
        assert centers == sorted(centers)

    def test_sampler_validation(self):
        # t_max 0.05 holds no bump of the stationary basis
        with pytest.raises(ValueError, match="empty basis"):
            StationarySampler(TimeGrid(0.05, 64))

    def test_sampler_rejects_more_bumps_than_nodes(self, monkeypatch):
        # t_max 256 takes 1280 bumps, whose Gram on 1024 nodes is singular:
        # rejected before any Gram is built
        def unreachable(*a, **k):
            raise AssertionError("Gram built before the basis-size check")

        monkeypatch.setattr(hs.sde, "cov_u_gram", unreachable)
        with pytest.raises(ValueError, match=(
                r"^tmax=256 needs 1280 stationary basis bumps, more than the "
                r"n=1024 grid nodes")):
            StationarySampler(TimeGrid(256.0, 1024))
        # as many bumps as nodes is the largest basis admitted
        assert len(stationary_basis(TimeGrid(204.8, 1024))) == 1024
        with pytest.raises(ValueError, match="1025 stationary basis bumps"):
            stationary_basis(TimeGrid(205.0, 1024))

    def test_dual_reconstruction_is_exact(self, grid):
        # pairing the reconstructed field against the basis returns the
        # drawn coefficients to roundoff
        samp = StationarySampler(grid)
        basis = samp.basis
        m = len(basis)
        state = samp.draw(sheet_rng(3, 0))
        rng = sheet_rng(3, 0)
        cu = samp.L1 @ rng.standard_normal(m)
        cv = samp.L2 @ rng.standard_normal(m)
        got_u = np.array([pair(state.u, h.values, grid) for h in basis])
        got_v = np.array([pair(state.v, h.values, grid) for h in basis])
        assert np.max(np.abs(got_u - cu)) <= 1e-12
        assert np.max(np.abs(got_v - cv)) <= 1e-12

    def test_moments_match_grams(self, grid):
        samp = StationarySampler(grid)
        basis = samp.basis
        j = len(basis) // 2
        h = basis[j]
        R = 10_000
        rng = sheet_rng(21, 0)
        us = np.empty(R)
        vs = np.empty(R)
        for r in range(R):
            st = samp.draw(rng)
            us[r] = pair(st.u, h.values, grid)
            vs[r] = pair(st.v, h.values, grid)
        for vals, target in ((us, hs.cov_u_gram(basis)[j, j]),
                             (vs, hs.cov_v_gram(basis)[j, j])):
            mean, se = hs.mean_se(vals)
            assert abs(mean) <= 4.0 * se
            var = float(np.var(vals, ddof=1))
            assert abs(var - target) <= 4.0 * target * math.sqrt(2.0 / (R - 1))
        # u- and v-pairings are independent
        corr = float(np.corrcoef(us, vs)[0, 1])
        assert abs(corr) <= 4.0 / math.sqrt(R)

    def test_stationary_init_deterministic(self, grid):
        sampler = StationarySampler(grid)
        a = sampler.draw(sheet_rng(9, 0))
        b = sampler.draw(sheet_rng(9, 0))
        np.testing.assert_array_equal(a.u, b.u)
        assert a.z == 0.0
        assert np.all(np.isfinite(a.u)) and np.all(np.isfinite(a.v))


class TestEvolveConfig:
    def test_validation(self, grid):
        with pytest.raises(ValueError):
            EvolveConfig(dz=0.0, Z=1.0, observables=())
        with pytest.raises(ValueError):
            EvolveConfig(dz=0.01, Z=-1.0, observables=())
        h1 = hs.TestFunction(2.0, 0.5, grid)
        h2 = hs.TestFunction(2.0, 0.5, TimeGrid(T_MAX, 256))
        with pytest.raises(ValueError):
            EvolveConfig(dz=0.01, Z=1.0, observables=(h1, h2))

    def test_stability_rule(self, grid, monkeypatch):
        cfg = EvolveConfig(dz=1.0, Z=2.0, observables=())
        with pytest.raises(ValueError,
                           match=r"stability rule dz <= 0\.4 sqrt\(dt\)"):
            cfg.check_stability(grid)
        EvolveConfig(dz=0.05, Z=1.0, observables=()).check_stability(grid)
        # the message states the constant the rule is computed from
        monkeypatch.setattr("heatsheet.sde.STABILITY_FACTOR", 0.05)
        with pytest.raises(ValueError,
                           match=r"dz <= 0\.05 sqrt\(dt\) = 0\.00625$"):
            cfg.check_stability(grid)

    def test_steps(self):
        cfg = EvolveConfig(dz=0.05, Z=1.0, observables=())
        # the default step divides Z = 1 exactly, so it is taken as given
        assert (cfg.steps, cfg.step) == (20, 0.05)
        # a quotient that is not whole is rounded up and the step shortened
        # to land on Z: 0.2 / 0.0707 = 2.83 gives 3 steps of 0.0667
        cfg = EvolveConfig(dz=0.0707, Z=0.2, observables=())
        assert (cfg.steps, cfg.step) == (3, 0.2 / 3)
        # 0.45 / 0.03 = 15.000000000000002 in float: roundoff, 15 steps
        assert EvolveConfig(dz=0.03, Z=0.45, observables=()).steps == 15
        assert EvolveConfig(dz=0.1, Z=0.7, observables=()).steps == 7

    def test_short_run_takes_one_step_of_z(self):
        # every Z > 0, at most dz/2 included, takes at least one step, of
        # length Z
        for Z in (0.025, 0.026, 1e-9):
            cfg = EvolveConfig(dz=0.05, Z=Z, observables=())
            assert (cfg.steps, cfg.step) == (1, Z)

    def test_records_budget_counts_the_block(self, grid):
        # (steps + 1) rows of 2m pairings per replica plus the steps + 1 z
        # nodes: 21 (2 m B + 1) cells
        for m in (1, 3):
            obs = tuple(hs.TestFunction(c, 0.5, grid)
                        for c in (2.0, 4.0, 6.0)[:m])
            cfg = EvolveConfig(dz=0.05, Z=1.0, observables=obs)
            most = (MAX_SHEET_CELLS // 21 - 1) // (2 * m)
            cfg.check_records(most)
            with pytest.raises(hs.ResourceError, match="exceeds budget"):
                cfg.check_records(most + 1)


class TestEvolve:
    def test_records_over_budget(self):
        # a step count whose records cannot be held is a resource failure
        # before anything is allocated, not numpy's dimension error
        g = TimeGrid(16.0, 64)
        cfg = EvolveConfig(dz=0.05, Z=1e300, observables=(), noise=False)
        with pytest.raises(hs.ResourceError,
                           match=r"records of Z=1e\+300 / dz=0.05"):
            evolve(zero_block(g), cfg, SpectralPlan(g))

    def test_single_state_rejected(self, grid, plan):
        # evolve steps blocks only; one replica is a block of one
        cfg = EvolveConfig(dz=0.05, Z=0.25, observables=(), noise=False)
        with pytest.raises(ValueError, match=r"\(B, n\) block"):
            evolve(zero_state(grid), cfg, plan)

    def test_ends_at_z(self, grid, plan):
        # Z / dz = 2.4: three steps of 0.04 land on Z; two of 0.05 would
        # stop at 0.1
        cfg = EvolveConfig(dz=0.05, Z=0.12, observables=(), noise=False)
        res = evolve(zero_block(grid), cfg, plan)
        np.testing.assert_allclose(res.z_nodes, [0.0, 0.04, 0.08, 0.12],
                                   rtol=0, atol=1e-15)
        assert res.final_state.z == pytest.approx(0.12, rel=1e-14)

    @pytest.mark.parametrize("t_max,n,dz,Z", [
        (EVOLVE_T_MAX, EVOLVE_N, None, 1.0), (8.0, 128, 0.1, 0.45)])
    def test_every_z_is_a_node(self, t_max, n, dz, Z):
        # the end z is the last node, exactly Z: twenty steps of 0.05 at
        # the suite's default grid and dz would sum to 1.0000000000000002,
        # five of 0.09 multiply to 0.44999999999999996
        g = TimeGrid(t_max, n)
        cfg = EvolveConfig(dz=dz or stability_limit(g), Z=Z, observables=(),
                           noise=False)
        res = evolve(zero_block(g), cfg, SpectralPlan(g))
        assert res.final_state.z == res.z_nodes[-1] == Z

    def test_zero_flow(self, grid, plan):
        h = hs.TestFunction(4.0, 1.0, grid)
        cfg = EvolveConfig(dz=0.05, Z=0.5, observables=(h,), noise=False)
        res = evolve(zero_block(grid), cfg, plan)
        assert float(np.max(np.abs(res.u_obs))) == 0.0
        assert float(np.max(np.abs(res.final_state.v))) == 0.0
        assert res.bookkeeping_error[0] == 0.0
        assert res.z_nodes.size == cfg.steps + 1

    def test_deterministic_in_seed(self, grid, plan):
        h = hs.TestFunction(4.0, 1.0, grid)
        cfg = EvolveConfig(dz=0.05, Z=0.25, observables=(h,))
        r1 = evolve(zero_block(grid), cfg, plan, [sheet_rng(7, 0)])
        r2 = evolve(zero_block(grid), cfg, plan, [sheet_rng(7, 0)])
        np.testing.assert_array_equal(r1.u_obs, r2.u_obs)
        np.testing.assert_array_equal(r1.final_state.v, r2.final_state.v)

    def test_telescoping_bookkeeping(self, grid, plan):
        h = hs.TestFunction(4.0, 1.0, grid)
        cfg = EvolveConfig(dz=0.05, Z=0.5, observables=(h,))
        init = StationarySampler(grid).draw(sheet_rng(11, 0))
        res = evolve(FieldState.stack([init]), cfg, plan, [sheet_rng(3, 0)])
        assert res.bookkeeping_error[0] <= 1e-10

    def test_energy_decays_without_noise(self, grid, plan):
        # <v;v> + <u; halflap u^a>, taken directly after each evolve step:
        # it falls at every step, and the energy left at Z = 1 converges at
        # second order in dz
        w = smooth_window(grid, 1.0, 7.0)
        init = FieldState(u=w * np.sin(4.0 * grid.nodes), v=np.zeros(N),
                          z=0.0, grid=grid)
        lim = stability_limit(grid)
        final = []
        for dz in (lim, lim / 2.0, lim / 4.0):
            state = init
            energy = [_direct_energy(state.u, state.v, plan)]
            for _ in range(int(round(1.0 / dz))):
                state = one_step(state, dz, plan)
                energy.append(_direct_energy(state.u, state.v, plan))
            assert np.all(np.diff(energy) < 0.0)
            final.append(energy[-1])
        gain = (final[1] - final[0]) / (final[2] - final[1])
        assert 3.0 <= gain <= 5.0

    def test_damped_mode_frequency(self, grid, plan):
        # project the evolving state on its initial shape and compare with
        # the closed damped-oscillation profile, at the shipped step
        k = 8.0
        u0 = tone(grid, k)
        state = FieldState(u=u0, v=np.zeros(N), z=0.0, grid=grid)
        dz = stability_limit(grid)
        steps = int(round(1.0 / dz))
        norm = pair(u0, u0, grid)
        a = math.sqrt(k / 2.0)
        worst = 0.0
        for _ in range(steps):
            state = one_step(state, dz, plan)
            proj = pair(state.u, u0, grid) / norm
            ref = math.exp(-a * state.z) * (math.cos(a * state.z)
                                            + math.sin(a * state.z))
            worst = max(worst, abs(proj - ref))
        # relative to the unit starting amplitude of the profile
        assert worst <= 1e-2

    def test_csv_export(self, grid, plan):
        h = hs.TestFunction(4.0, 1.0, grid)
        cfg = EvolveConfig(dz=0.05, Z=0.5, observables=(h,))
        res = evolve(zero_block(grid), cfg, plan, [sheet_rng(1, 0)])
        text = res.to_csv(0)
        lines = text.strip().split("\n")
        assert lines[0] == "z,u_h0,v_h0"
        assert len(lines) == cfg.steps + 2
        data = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[:, 0], res.z_nodes, atol=1e-12)
        np.testing.assert_allclose(data[:, 1], res.u_obs[0, :, 0],
                                   rtol=1e-10, atol=1e-300)

    def test_csv_formats_each_value_in_12g(self, grid):
        # the oracle: each value of replica r through f"{x:.12g}", comma
        # joined, one line per z node under the header
        vals = np.array([[0.0, -0.0, 5e-324], [1.0 / 3.0, -np.inf, np.nan],
                         [1e300, -2.5e-7, 123456789012345.0]])
        u = np.stack([vals, -vals])
        res = EvolveResult(z_nodes=np.array([0.0, 0.05, 0.1]),
                           u_obs=u, v_obs=2.0 * u,
                           final_state=FieldState.stack([zero_state(grid)] * 2),
                           bookkeeping_error=np.zeros(2))
        for r in range(2):
            lines = ["z,u_h0,u_h1,u_h2,v_h0,v_h1,v_h2"]
            for k in range(3):
                row = [res.z_nodes[k], *res.u_obs[r, k], *res.v_obs[r, k]]
                lines.append(",".join(f"{x:.12g}" for x in row))
            assert res.to_csv(r) == "\n".join(lines) + "\n"


def _rel_diff(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _oracle(states, cfg, plan, rngs):
    """Per-replica reference stepping: the test's own BAOAB step, its kicks
    from time-domain frac_laplacian calls, fed the same noise rows; each
    run lands on its start z + Z."""
    out = []
    for state, rng in zip(states, rngs):
        z = state.z + cfg.Z
        for _ in range(cfg.steps):
            noise = rng.standard_normal(state.grid.n) \
                * math.sqrt(cfg.dz / state.grid.dt)
            state = baoab_step(state, cfg.dz, noise, plan)
        out.append(FieldState(u=state.u, v=state.v, z=z, grid=state.grid))
    return out


def _direct_energy(u, v, plan):
    L1u = lap(u, 1.0, plan)
    return float(np.dot(v, v) + np.dot(u, L1u)) * plan.grid.dt


class TestBatchedEvolve:
    SEED = 13

    @pytest.fixture(scope="class")
    def sampler(self, grid):
        return StationarySampler(grid)

    def block(self, sampler, lo, hi):
        rngs = [sheet_rng(self.SEED, r) for r in range(lo, hi)]
        init = FieldState.stack([sampler.draw(g) for g in rngs])
        return init, rngs

    def test_matches_time_domain_oracle(self, grid, plan, sampler):
        # 20 steps at the stability limit: the once-a-step kick from u's
        # sine spectrum agrees with the per-replica time-domain route
        cfg = EvolveConfig(dz=stability_limit(grid), Z=1.0, observables=())
        assert cfg.steps == 20
        init, rngs = self.block(sampler, 0, 4)
        res = evolve(init, cfg, plan, rngs)
        # fresh streams, advanced past the stationary draw as in the block
        again, rngs = self.block(sampler, 0, 4)
        singles = [FieldState(u=again.u[r], v=again.v[r], z=0.0, grid=grid)
                   for r in range(4)]
        ref = _oracle(singles, cfg, plan, rngs)
        for r, st in enumerate(ref):
            assert _rel_diff(res.final_state.u[r], st.u) <= 1e-12
            assert _rel_diff(res.final_state.v[r], st.v) <= 1e-12
            assert res.final_state.z == st.z

    def test_rows_equal_single_runs_across_blocks(self, grid, plan, sampler):
        # 37 replicas in blocks of EVOLVE_BATCH: the last block is partial
        R = 37
        assert R % EVOLVE_BATCH
        h = hs.TestFunction(4.0, 1.0, grid)
        cfg = EvolveConfig(dz=stability_limit(grid), Z=0.25, observables=(h,))
        rows = [None] * R

        def replica(res, r):
            fs = res.final_state
            return ((res.u_obs[r], res.v_obs[r], fs.u[r], fs.v[r]),
                    res.bookkeeping_error[r])

        def task(lo, hi):
            init, rngs = self.block(sampler, lo, hi)
            res = evolve(init, cfg, plan, rngs)
            for r in range(lo, hi):
                rows[r] = replica(res, r - lo)

        _parallel([(lo, min(lo + EVOLVE_BATCH, R))
                   for lo in range(0, R, EVOLVE_BATCH)], 1, task)
        for r in range(R):
            init, rngs = self.block(sampler, r, r + 1)
            one, _ = replica(evolve(init, cfg, plan, rngs), 0)
            got, book = rows[r]
            assert got[0].shape == one[0].shape == (cfg.steps + 1, 1)
            for a, b in zip(got, one):
                assert _rel_diff(a, b) <= 1e-13
            assert book <= 1e-10

    def test_instability_names_z(self, grid, plan):
        u = np.zeros((3, N))
        u[1, 100] = np.inf
        init = FieldState(u=u, v=np.zeros((3, N)), z=0.0, grid=grid)
        cfg = EvolveConfig(dz=stability_limit(grid), Z=0.25, observables=(),
                           noise=False)
        with np.errstate(all="ignore"):
            with pytest.raises(InstabilityError,
                               match=r"non-finite state at z=0\.05"):
                evolve(init, cfg, plan)

    def test_block_needs_one_generator_per_replica(self, grid, plan, sampler):
        init, rngs = self.block(sampler, 0, 3)
        cfg = EvolveConfig(dz=stability_limit(grid), Z=0.25, observables=())
        with pytest.raises(ValueError, match="one generator per replica"):
            evolve(init, cfg, plan, rngs[:2])

    def test_noise_needs_a_generator(self, grid, plan):
        # noise is drawn only from rngs; a noisy run without them raises
        cfg = EvolveConfig(dz=stability_limit(grid), Z=0.25, observables=())
        with pytest.raises(ValueError, match="one generator per replica"):
            evolve(zero_block(grid), cfg, plan)


def _terminal(res: EvolveResult) -> np.ndarray:
    """The (B, 2m) terminal pairings of a run: u-pairings, then v."""
    return np.hstack([res.u_obs[:, -1], res.v_obs[:, -1]])


class TestAdjointWeights:
    # dt = 1/16 admits dz = 0.1; Z = 0.45 then takes 5 steps of 0.09, so the
    # weights must follow the step evolve takes, not the dz asked for
    @pytest.fixture(scope="class")
    def coarse(self):
        return TimeGrid(16.0, 256)

    def cfg(self, grid, noise):
        return EvolveConfig(dz=0.1, Z=0.45, noise=noise,
                            observables=tuple(evolve_observables(grid)))

    def test_noiseless_weights_reproduce_evolve(self, coarse):
        cfg = self.cfg(coarse, noise=False)
        assert (cfg.steps, cfg.step) == (5, 0.09)
        plan = SpectralPlan(coarse)
        alpha, beta, gamma = adjoint_weights(cfg, plan, coarse)
        assert alpha.shape == beta.shape == (6, coarse.n)
        assert gamma.shape == (5, 6, coarse.n)
        u, v = np.random.default_rng(2).standard_normal((2, 3, coarse.n))
        res = evolve(FieldState(u=u, v=v, z=0.0, grid=coarse), cfg, plan)
        got = u @ alpha.T + v @ beta.T
        assert np.max(np.abs(got - _terminal(res))) <= 1e-12

    def test_noisy_block_contraction_reproduces_evolve(self, coarse):
        # the block's streams contracted, then the same rows replayed into
        # evolve from a copy of each stream taken after the start
        cfg = self.cfg(coarse, noise=True)
        plan = SpectralPlan(coarse)
        alpha, beta, gamma = adjoint_weights(cfg, plan, coarse)
        sampler = StationarySampler(coarse)
        rngs = [sheet_rng(21, r) for r in range(4)]
        init = FieldState.stack([sampler.draw(g) for g in rngs])
        replay = [np.random.Generator(copy.deepcopy(g.bit_generator))
                  for g in rngs]
        got = init.u @ alpha.T + init.v @ beta.T
        noise = np.empty((4, coarse.n))
        for gk in gamma:
            noise_draw(rngs, coarse, cfg.step, out=noise)
            got += noise @ gk.T
        res = evolve(init, cfg, plan, replay)
        assert np.max(np.abs(got - _terminal(res))) <= 1e-12

    def test_weights_over_budget(self, coarse, monkeypatch):
        # 6 rows of 5 steps of 256 nodes, one cell over the budget
        monkeypatch.setattr(hs.gaussfield, "MAX_SHEET_CELLS", 6 * 4.5 * 256 - 1)
        with pytest.raises(hs.ResourceError,
                           match="^the pairing weights of 3 observables over "
                                 "Z=0.45 / dz=0.1 = 4.5 steps of "):
            adjoint_weights(self.cfg(coarse, noise=True), SpectralPlan(coarse),
                            coarse)


if __name__ == "__main__":
    pytest.main([__file__])
