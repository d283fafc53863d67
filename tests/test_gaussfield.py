"""Gaussian-field layer: covariances, sheet sampling, pairings, the drift
functional's two weight arrays, the Laplace-domain covariance identity and
the weak-form residual.

Cross-covariance and Gram reference values below were frozen from adaptive
double quadrature of the defining integrals (independent of the cell-wise
quadrature used by the implementation).
"""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.integrate import quad
from scipy.special import roots_legendre
from scipy.stats import ks_2samp

import heatsheet as hs
from heatsheet import (ResourceError, SheetLattice, TimeGrid,
                       cameron_martin_laplace, cameron_martin_target,
                       cov_u, cov_u_cross, cov_u_gram, cov_v_gram,
                       drift_variance_exact, residual_report, sheet_sample)
from heatsheet.gaussfield import (CM_LEVEL, PAIR_BLOCK_ENTRIES, SheetSample,
                                  TensorTestFunction, WeakformPlan,
                                  _cm_lower_triangle, _row_blocks,
                                  coverage_halfwidth,
                                  cov_u_apply, cov_v_apply,
                                  drift_field_weights, drift_integral_weights,
                                  exp_tails, gram_cholesky,
                                  pair_u_weights, pair_v_weights,
                                  point_weights, sheet_rng, _bracket,
                                  weakform_geometry,
                                  weakform_residual_reference)

SQRT4PI = math.sqrt(4.0 * math.pi)

# adaptive dblquad of the defining integrals, 1e-12 quadrature tolerance
CROSS_REF_111 = 0.19779655740130603           # cov_u_cross(1.0, 1.0, 1.0)
CROSS_REF_08 = 0.1715881368912905             # cov_u_cross(0.8, 1.0, 0.7)
GRAM_BUMPS = ((1.2, 0.5), (6.0, 0.5))         # on TimeGrid(8, 1024)
G1_REF = {(0, 0): 0.015352085971628416, (0, 1): 0.006851388103054392}
G2_REF = {(0, 0): 0.017545756218388796, (0, 1): 0.0005848369585408474}


def zeroed(sheet):
    return dataclasses.replace(sheet, increments=np.zeros_like(sheet.increments))


def contract(w, sheet):
    # a sheet pairing: cell weights summed against the increments
    return float(np.sum(w * sheet.increments))


def qf_cross(w1, w2, sheet):
    # covariance of two sheet pairings is the cell-weighted inner product
    return float(np.sum(w1 * w2)) * sheet.lattice.dy * sheet.lattice.ds


class TestCovU:
    def test_special_values(self):
        assert cov_u(2.0 * math.pi, 2.0 * math.pi) == 1.0
        assert cov_u(1.0, 1.0) == pytest.approx(math.sqrt(2.0) / SQRT4PI, rel=1e-15)

    @given(st.floats(0.01, 50.0), st.floats(0.01, 50.0))
    def test_symmetric_and_positive(self, t, t2):
        assert cov_u(t, t2) == cov_u(t2, t)
        assert cov_u(t, t2) > 0.0

    @given(st.floats(0.01, 50.0))
    def test_closed_form(self, t):
        assert cov_u(t, t) == pytest.approx(math.sqrt(2.0 * t) / SQRT4PI, rel=1e-14)


class TestCovUCross:
    def test_frozen_quadrature_values(self):
        assert cov_u_cross(1.0, 1.0, 1.0) == pytest.approx(CROSS_REF_111, rel=1e-12)
        assert cov_u_cross(0.8, 1.0, 0.7) == pytest.approx(CROSS_REF_08, rel=1e-12)

    def test_zero_separation_reduces_to_cov_u(self):
        assert cov_u_cross(0.0, 1.0, 0.7) == pytest.approx(cov_u(1.0, 0.7), rel=1e-12)

    def test_decay_in_separation(self):
        vals = [cov_u_cross(dx, 1.0, 1.0) for dx in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert cov_u_cross(50.0, 1.0, 1.0) < 1e-100


@pytest.fixture(scope="module")
def hs_pair():
    g = TimeGrid(8.0, 1024)
    return [hs.TestFunction(c, r, g) for c, r in GRAM_BUMPS]


class TestGrams:
    def test_cov_u_gram_against_quadrature(self, hs_pair):
        G = cov_u_gram(hs_pair)
        for (i, j), ref in G1_REF.items():
            assert G[i, j] == pytest.approx(ref, rel=1e-4)

    def test_cov_v_gram_against_quadrature(self, hs_pair):
        G = cov_v_gram(hs_pair)
        for (i, j), ref in G2_REF.items():
            assert G[i, j] == pytest.approx(ref, rel=1e-4)

    def test_symmetric_psd(self, hs_pair):
        for G in (cov_u_gram(hs_pair), cov_v_gram(hs_pair)):
            np.testing.assert_array_equal(G, G.T)
            assert np.linalg.eigvalsh(G).min() > -1e-14 * np.trace(G)

    def test_cholesky_reconstructs(self, hs_pair):
        G = cov_v_gram(hs_pair)
        L = gram_cholesky(G)
        assert np.max(np.abs(L @ L.T - G)) <= 1e-10 * np.trace(G)

    def test_single_function_variance_positive(self, hs_pair):
        assert cov_u_gram(hs_pair[:1])[0, 0] > 0.0

    @pytest.mark.parametrize("gram,apply_op", [(cov_u_gram, cov_u_apply),
                                               (cov_v_gram, cov_v_apply)])
    def test_rows_equal_the_entrywise_double_sum(self, gram, apply_op):
        # the oracle sums each entry <h_i; C h_j> on its own; a row summed
        # over the stacked columns must give the same bytes
        basis = hs.stationary_basis(TimeGrid(8.0, 512))
        g = basis[0].grid
        cols = [apply_op(h.values, g) for h in basis]
        G = np.array([[float(np.sum(hi.values * cj) * g.dt) for cj in cols]
                      for hi in basis])
        assert gram(basis).tobytes() == (0.5 * (G + G.T)).tobytes()

    def test_validation(self, hs_pair):
        with pytest.raises(ValueError):
            cov_u_gram([])
        other = hs.TestFunction(2.0, 1.0, TimeGrid(8.0, 512))
        with pytest.raises(ValueError):
            cov_u_gram([hs_pair[0], other])


class TestSheetSample:
    def test_deterministic_in_seed_and_stream(self):
        lat = SheetLattice(-1.0, 0.25, 0.125, 8, 4)
        a = sheet_sample(lat, seed=9, stream=3)
        b = sheet_sample(lat, seed=9, stream=3)
        np.testing.assert_array_equal(a.increments, b.increments)
        c = sheet_sample(lat, seed=9, stream=4)
        assert np.any(c.increments != a.increments)

    def test_cell_centers(self):
        lat = SheetLattice(-1.0, 0.5, 0.25, 4, 2)
        np.testing.assert_allclose(lat.y_nodes, [-0.75, -0.25, 0.25, 0.75])
        np.testing.assert_allclose(lat.s_nodes, [0.125, 0.375])
        assert (lat.y_max, lat.s_max, lat.cells) == (1.0, 0.5, 8)
        assert lat.scale == math.sqrt(0.125)
        assert sheet_sample(lat, seed=0).cells == 8

    def test_increment_moments(self):
        # 10^6 cells: the scaled sum of squares is chi^2 with that many
        # degrees of freedom, the plain sum is centered Gaussian
        s = sheet_sample(SheetLattice(0.0, 1e-3, 1e-3, 1000, 1000), seed=2)
        n = s.cells
        cell_var = s.lattice.dy * s.lattice.ds
        ssq = float(np.sum(s.increments ** 2)) / cell_var
        assert abs(ssq - n) / math.sqrt(2.0 * n) <= 4.0
        tot = float(np.sum(s.increments)) / math.sqrt(n * cell_var)
        assert abs(tot) <= 4.0

    def test_geometry_validation(self):
        for args in ((0.0, -0.1, 0.1, 10, 10), (0.0, 0.1, 0.0, 10, 10),
                     (0.0, 0.1, math.nan, 10, 10), (0.0, 0.1, 0.1, 0, 10),
                     (0.0, 0.1, 0.1, 10, 0)):
            with pytest.raises(ValueError):
                SheetLattice(*args)
        lat = SheetLattice(0.0, 0.5, 0.25, 2, 2)
        with pytest.raises(ValueError, match="2 x 2 lattice"):
            SheetSample(lat, increments=np.zeros((1, 2)))

    def test_cell_budget(self):
        with pytest.raises(ResourceError):
            SheetLattice(0.0, 1e-4, 1e-4, 10_000, 7_000)

    def test_generator_is_sfc64(self):
        # every draw site shares this one (seed, stream) generator
        assert isinstance(sheet_rng(5, 3).bit_generator, np.random.SFC64)


class TestMcPairingsBuffer:
    def test_reproduces_single_precision_sheets(self):
        # the Monte Carlo inner loop must equal pairing the float32 sheet
        # of the documented (seed, stream), cell for cell
        from heatsheet.cli import _mc_pairings
        lat = SheetLattice(-4.0, 0.125, 1.0 / 64, 64, 16)
        W = point_weights(lat.y_nodes, lat.s_nodes, 0.0, 0.25).reshape(1, -1)
        R = 5
        X = _mc_pairings(W, lat.cells, lat.scale, R,
                         seed=123, stream_base=17, workers=2)
        for r in range(R):
            z32 = sheet_rng(123, 17 + r).standard_normal(lat.cells,
                                                         dtype=np.float32)
            direct = lat.scale * float(W[0] @ z32)
            assert X[r, 0] == pytest.approx(direct, rel=1e-4)


class TestPointWeights:
    def test_zero_sheet_gives_zero(self):
        s = zeroed(sheet_sample(SheetLattice(-5.0, 0.25, 0.25, 40, 2), seed=0))
        lat = s.lattice
        assert contract(point_weights(lat.y_nodes, lat.s_nodes, 0.0, 0.25),
                        s) == 0.0

    def test_point_variance_quadrature(self):
        # deterministic check: the cell quadratic form converges to the
        # closed-form variance as the lattice refines in both directions
        L = coverage_halfwidth(1.0)
        rels = []
        for dyinv, ns in ((16, 1024), (32, 4096)):
            m = math.ceil(L * dyinv) + 1
            lat = SheetLattice(-m / dyinv, 1.0 / dyinv, 1.0 / ns, 2 * m, ns)
            w = point_weights(lat.y_nodes, lat.s_nodes, 0.0, 1.0)
            qf = float(np.sum(w * w)) * lat.dy * lat.ds
            rels.append(abs(qf / cov_u(1.0, 1.0) - 1.0))
        assert rels[0] <= 2e-2
        assert rels[1] <= 1e-2
        assert rels[1] < rels[0]

    def test_monte_carlo_moments(self):
        R = 2000
        lat = SheetLattice(-6.0, 1.0 / 16, 1.0 / 256, 192, 64)
        w = point_weights(lat.y_nodes, lat.s_nodes, 0.0, 0.25)
        target = float(np.sum(w * w)) * lat.dy * lat.ds
        vals = np.empty(R)
        for r in range(R):
            s = sheet_sample(lat, seed=31, stream=r)
            vals[r] = float(np.sum(w * s.increments))
        mean, se = hs.mean_se(vals)
        assert abs(mean) <= 4.0 * se
        var = float(np.var(vals, ddof=1))
        se_var = target * math.sqrt(2.0 / (R - 1))
        assert abs(var - target) <= 4.0 * se_var


@pytest.fixture(scope="module")
def geometry():
    g = TimeGrid(8.0, 512)
    h1 = hs.TestFunction(2.0, 0.7, g)
    h2 = hs.TestFunction(3.4, 0.7, g)
    m = math.ceil(coverage_halfwidth(8.0) * 8) + 1
    return g, (h1, h2), SheetLattice(-m / 8, 1.0 / 8, 1.0 / 64, 2 * m, 512)


def pair_u_weights_one(y_nodes, s_nodes, x, h, t_hi, nw=32):
    # one test function per build, the kernel table rebuilt for it: the
    # reference for the batched pair_u_weights
    xg, wg = roots_legendre(nw)
    d2 = (x - y_nodes) ** 2
    out = np.zeros((y_nodes.size, s_nodes.size))
    for k, s in enumerate(s_nodes):
        if s >= t_hi:
            continue
        wmax = math.sqrt(t_hi - s)
        w = 0.5 * wmax * (xg + 1.0)
        ww = 0.5 * wmax * wg
        hv = np.asarray(h(s + w * w), dtype=float)
        E = np.exp(-d2[:, None] / (4.0 * w[None, :] ** 2))
        out[:, k] = (2.0 / SQRT4PI) * (E @ (hv * ww))
    return out


def pair_v_weights_one(y_nodes, s_nodes, x, h, t_hi, nv=32, vcut=6.5):
    # the reference for the batched pair_v_weights, one function per build
    xg, wg = roots_legendre(nv)
    d = x - y_nodes
    ad = np.abs(d)
    out = np.zeros((y_nodes.size, s_nodes.size))
    for k, s in enumerate(s_nodes):
        if s >= t_hi:
            continue
        vmin = ad / (2.0 * math.sqrt(t_hi - s))
        vhi = np.maximum(vcut, vmin)
        v = vmin[:, None] + (vhi - vmin)[:, None] * 0.5 * (xg[None, :] + 1.0)
        jac = (vhi - vmin)[:, None] * 0.5 * wg[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            tt = s + ad[:, None] ** 2 / (4.0 * v * v)
        tt[ad == 0.0, :] = s
        hv = np.asarray(h(np.minimum(tt, t_hi)), dtype=float)
        hv[tt > t_hi] = 0.0
        out[:, k] = -np.sign(d) * (2.0 / SQRT4PI) * np.sum(
            np.exp(-v * v) * hv * jac, axis=1)
    return out


# [-16, 16] x [0, 3]: coverage_halfwidth(3.0) = 14.9 on both sides of x = 0
PAIR_LATTICE = SheetLattice(-16.0, 0.25, 1.0 / 32, 128, 96)


class TestPairings:
    def test_zero_sheet_gives_zero(self):
        g = TimeGrid(2.0, 64)
        h = hs.TestFunction(1.0, 0.5, g)
        s = zeroed(sheet_sample(PAIR_LATTICE, seed=0))
        yn, sn = PAIR_LATTICE.y_nodes, PAIR_LATTICE.s_nodes
        assert contract(pair_u_weights(yn, sn, 0.0, [h], g.t_max)[0], s) == 0.0
        assert contract(pair_v_weights(yn, sn, 0.0, [h], g.t_max)[0], s) == 0.0

    def test_quadratic_form_matches_gram(self, geometry):
        g, (h1, h2), lat = geometry
        yn, sn = lat.y_nodes, lat.s_nodes
        G1 = cov_u_gram([h1, h2])
        G2 = cov_v_gram([h1, h2])
        wu = pair_u_weights(yn, sn, 0.0, [h1, h2], g.t_max)
        wv = pair_v_weights(yn, sn, 0.0, [h1, h2], g.t_max)
        fake = sheet_sample(lat, seed=0)
        for i in range(2):
            for j in range(i, 2):
                qf = qf_cross(wu[i], wu[j], fake)
                assert qf == pytest.approx(G1[i, j], rel=2e-3)
                qf = qf_cross(wv[i], wv[j], fake)
                assert qf == pytest.approx(G2[i, j], rel=1e-2)

    def test_field_and_derivative_uncorrelated_at_same_point(self, geometry):
        # x -> u, x -> v are independent at equal x: the weight product is
        # odd in y and cancels exactly on the symmetric lattice
        g, (h1, h2), lat = geometry
        wu = pair_u_weights(lat.y_nodes, lat.s_nodes, 0.0, [h1], g.t_max)[0]
        wv = pair_v_weights(lat.y_nodes, lat.s_nodes, 0.0, [h2], g.t_max)[0]
        scale = math.sqrt(float(np.sum(wu ** 2)) * float(np.sum(wv ** 2)))
        assert abs(float(np.sum(wu * wv))) <= 1e-12 * scale

    @pytest.mark.parametrize("build,oracle", [
        (pair_u_weights, pair_u_weights_one),
        (pair_v_weights, pair_v_weights_one)])
    def test_batched_equals_per_function_builds(self, geometry, build,
                                                oracle):
        # one pass over the s-rows serves every test function: each slice
        # of the stack equals that function built alone
        g, (h1, h2), lat = geometry
        yn, sn = lat.y_nodes, lat.s_nodes
        # ny / 2 distinct distances, 32 nodes each: several row blocks
        assert len(_row_blocks(sn, g.t_max, lat.ny // 2 * 32)) >= 2
        fns = [h1, h2, hs.TestFunction(5.0, 1.5, g), lambda t: np.exp(-t)]
        stack = build(yn, sn, 0.0, fns, g.t_max)
        assert stack.shape == (len(fns), lat.ny, lat.ns)
        for w, h in zip(stack, fns):
            alone = oracle(yn, sn, 0.0, h, g.t_max)
            np.testing.assert_allclose(w, alone, rtol=1e-14,
                                       atol=1e-14 * np.max(np.abs(alone)))
        # a bump is not evaluated on the s-rows past its support; those rows
        # hold exact zeros, so plain callables give the same bytes
        plain = [lambda t, h=h: h(t) for h in fns]
        assert build(yn, sn, 0.0, plain, g.t_max).tobytes() == stack.tobytes()

    @pytest.mark.parametrize("build", [pair_u_weights, pair_v_weights])
    def test_any_subset_is_a_slice_of_the_full_build(self, geometry, build):
        # a weight depends on its own distance and s-row alone, and its
        # node sum is taken in a fixed order: a build on some s-rows and an
        # asymmetric subset of the nodes is that slice of the full build,
        # byte for byte
        g, (h1, h2), lat = geometry
        yn, sn = lat.y_nodes, lat.s_nodes
        fns = [h1, h2, lambda t: np.exp(-t)]
        full = build(yn, sn, 0.0, fns, g.t_max)
        rng = np.random.default_rng(3)
        for on_y, on_s in ((np.s_[:], np.s_[37:300]),
                           (np.s_[150:], np.s_[:]),
                           (np.s_[5:390:3], np.s_[500:]),
                           (np.sort(rng.choice(lat.ny, 90, replace=False)),
                            np.s_[200:201])):
            part = build(yn[on_y], sn[on_s], 0.0, fns, g.t_max)
            assert part.tobytes() == np.ascontiguousarray(
                full[:, on_y][:, :, on_s]).tobytes()

    def test_mirror_rows_on_a_symmetric_column(self, geometry):
        # node j and node ny - 1 - j lie at -d and d: the field weights are
        # equal there and the derivative weights exact negatives
        g, (h1, h2), lat = geometry
        assert np.array_equal(lat.y_nodes[::-1], -lat.y_nodes)
        wu = pair_u_weights(lat.y_nodes, lat.s_nodes, 0.0, [h1, h2], g.t_max)
        wv = pair_v_weights(lat.y_nodes, lat.s_nodes, 0.0, [h1, h2], g.t_max)
        assert wu[:, ::-1].tobytes() == wu.tobytes()
        assert np.array_equal(wv[:, ::-1], -wv)
        assert np.count_nonzero(wv) > wv.size // 8

    @pytest.mark.parametrize("per_row", [1, 6272, PAIR_BLOCK_ENTRIES // 3,
                                         PAIR_BLOCK_ENTRIES,
                                         PAIR_BLOCK_ENTRIES + 1])
    def test_row_blocks_cover_live_rows_in_order(self, per_row):
        # the rows with s < t_hi, each once and in order, in blocks of at
        # most the entry budget, or of one row when a row alone is over it
        s_nodes = np.concatenate([(np.arange(700) + 0.5) / 64,
                                  [20.0, 0.1, 30.0, 3.0]])
        t_hi = 8.0
        blocks = _row_blocks(s_nodes, t_hi, per_row)
        assert np.array_equal(np.concatenate(blocks),
                              np.flatnonzero(s_nodes < t_hi))
        cap = max(1, PAIR_BLOCK_ENTRIES // per_row)
        assert all(1 <= b.size <= cap for b in blocks)
        assert all(b.size * per_row <= PAIR_BLOCK_ENTRIES
                   for b in blocks if b.size > 1)
        assert _row_blocks(s_nodes, 0.0, per_row) == []

    def test_linearity_in_test_function(self):
        g = TimeGrid(3.0, 128)
        h = hs.TestFunction(1.5, 0.6, g)
        s = sheet_sample(PAIR_LATTICE, seed=4)
        wa, wb = pair_u_weights(
            PAIR_LATTICE.y_nodes, PAIR_LATTICE.s_nodes, 0.0,
            [h, lambda t: -2.5 * h(t)], g.t_max)
        assert contract(wb, s) == pytest.approx(-2.5 * contract(wa, s),
                                                rel=1e-12)

    def test_linearity_in_sheet(self):
        g = TimeGrid(3.0, 128)
        h = hs.TestFunction(1.5, 0.6, g)
        s1 = sheet_sample(PAIR_LATTICE, seed=4)
        s2 = sheet_sample(PAIR_LATTICE, seed=5)
        both = dataclasses.replace(s1, increments=s1.increments + s2.increments)
        w = pair_v_weights(PAIR_LATTICE.y_nodes, PAIR_LATTICE.s_nodes, 0.0,
                           [h], g.t_max)[0]
        assert contract(w, both) == pytest.approx(
            contract(w, s1) + contract(w, s2), rel=1e-10)

    def test_distribution_invariant_in_x(self):
        # stationarity of x -> U(x, h): independent replica blocks at
        # x = 0, 1, 2 must be KS-indistinguishable pairwise
        R = 400
        g = TimeGrid(3.0, 256)
        h = hs.TestFunction(2.0, 0.7, g)
        need = coverage_halfwidth(h.support[1]) + 1.0
        samples = []
        for xi, x in enumerate((0.0, 1.0, 2.0)):
            lat = SheetLattice(x - need, 1.0 / 8, 1.0 / 32,
                               round(2 * need * 8), 96)
            w = pair_u_weights(lat.y_nodes, lat.s_nodes, x, [h], g.t_max)[0]
            vals = np.empty(R)
            for r in range(R):
                rng = sheet_rng(77, xi * R + r)
                inc = rng.standard_normal(w.shape) * lat.scale
                vals[r] = float(np.sum(w * inc))
            samples.append(vals)
        for i in range(3):
            for j in range(i + 1, 3):
                p = ks_2samp(samples[i], samples[j], method="asymp").pvalue
                assert p > 0.01


class TestExpTails:
    @pytest.mark.parametrize("d,s", [(0.5, 3.0), (-1.2, 5.0), (0.0, 1.0)])
    def test_u_tail_matches_quadrature(self, d, s):
        nu, T = 1.0, 8.0
        ref, _ = quad(lambda t: math.exp(-(d * d) / (4.0 * (t - s)))
                      / math.sqrt(4.0 * math.pi * (t - s)) * math.exp(-nu * t),
                      T, np.inf)
        assert exp_tails(d, s, nu, T)[0] == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("d,s", [(0.5, 3.0), (-1.2, 5.0)])
    def test_v_tail_matches_quadrature(self, d, s):
        nu, T = 1.0, 8.0
        ref, _ = quad(lambda t: -d / (2.0 * (t - s))
                      * math.exp(-(d * d) / (4.0 * (t - s)))
                      / math.sqrt(4.0 * math.pi * (t - s)) * math.exp(-nu * t),
                      T, np.inf)
        assert exp_tails(d, s, nu, T)[1] == pytest.approx(ref, abs=1e-12)

    def test_distinct_distances_give_the_same_bytes(self):
        # drift_field_weights evaluates the tails per distinct |d| and
        # applies sgn(d) to the derivative tail: elementwise, so exact
        d = 0.5625 - (-6.0 + (np.arange(70) + 0.5) / 8)  # d = 0 included
        s = (np.arange(40) + 0.5) / 8
        u, v = exp_tails(d[:, None], s[None, :], 1.0, 5.0)
        ad, inv = np.unique(np.abs(d), return_inverse=True)
        assert ad.size < d.size
        ua, va = exp_tails(ad[:, None], s[None, :], 1.0, 5.0)
        assert u.tobytes() == ua[inv].tobytes()
        assert v.tobytes() == (np.sign(d)[:, None] * va[inv]).tobytes()

    def test_parity(self):
        (u, v), (u_neg, v_neg) = (exp_tails(d, 2.0, 1.0, 8.0)
                                  for d in (0.7, -0.7))
        assert u == u_neg and v == -v_neg
        assert exp_tails(0.0, 2.0, 1.0, 8.0)[1] == 0.0


DRIFT_NU = 1.0


@pytest.fixture(scope="module")
def lattice():
    # [-39.5, 39.5] x [0, 20] covers both the heat-kernel support around
    # y = 0, coverage_halfwidth(20) + 1 = 39.4, and the exponential reach
    # ln(1e8) / sqrt(nu) + 1 = 19.4 to the right
    return SheetLattice(-39.5, 1.0 / 8, 1.0 / 16, 632, 320)


class TestDrift:
    NU = DRIFT_NU

    def test_zero_sheet_gives_zero(self, lattice):
        s = zeroed(sheet_sample(lattice, seed=0))
        yn, sn = lattice.y_nodes, lattice.s_nodes
        assert contract(drift_field_weights(yn, sn, 0.0, self.NU,
                                            lattice.s_max), s) == 0.0
        assert contract(drift_integral_weights(yn, sn, 0.0, self.NU), s) == 0.0

    def test_weights_agree_cell_by_cell(self, lattice):
        # the two routes to the drift functional assign the same weight to
        # every sheet cell; this is the pathwise content of the identity
        yn, sn = lattice.y_nodes, lattice.s_nodes
        wf = drift_field_weights(yn, sn, 0.0, self.NU, lattice.s_max)
        wi = drift_integral_weights(yn, sn, 0.0, self.NU)
        scale = math.sqrt(float(np.mean(wi ** 2)))
        rms = math.sqrt(float(np.mean((wf - wi) ** 2)))
        assert rms <= 1e-3 * scale

    def test_variance_quadrature(self, lattice):
        yn, sn = lattice.y_nodes, lattice.s_nodes
        target = drift_variance_exact(self.NU)
        for W in (drift_field_weights(yn, sn, 0.0, self.NU, lattice.s_max),
                  drift_integral_weights(yn, sn, 0.0, self.NU)):
            qf = float(np.sum(W * W)) * lattice.dy * lattice.ds
            assert qf == pytest.approx(target, rel=1e-2)

    def test_variance_closed_form(self):
        assert drift_variance_exact(1.0) == 0.25
        assert drift_variance_exact(4.0) == pytest.approx(1.0 / 32.0, rel=1e-15)

    def test_weights_shift_invariant(self, lattice):
        yn, sn = lattice.y_nodes, lattice.s_nodes
        c = 3.75
        w0 = drift_integral_weights(yn, sn, 0.0, self.NU)
        wc = drift_integral_weights(yn + c, sn, c, self.NU)
        np.testing.assert_array_equal(w0, wc)

    def test_field_weights_shift_invariant(self, lattice):
        # a probe k cells above y = 0 sees rows K - k .. K - k + ny of one
        # build at y = 0 on the node column widened K cells downward
        yn, sn, dy = lattice.y_nodes, lattice.s_nodes, lattice.dy
        K = 12
        wide = drift_field_weights(
            lattice.y_min + (np.arange(-K, lattice.ny) + 0.5) * dy, sn, 0.0,
            self.NU, lattice.s_max)
        for k in (5, K):
            wk = drift_field_weights(yn, sn, k * dy, self.NU, lattice.s_max)
            np.testing.assert_array_equal(wide[K - k:K - k + lattice.ny], wk)

    def test_distribution_shift_invariant(self, lattice):
        # same functional at y = 0 and y = 1 over independent replicas
        yn, sn = lattice.y_nodes, lattice.s_nodes
        R = 300
        w0 = drift_integral_weights(yn, sn, 0.0, self.NU)
        w1 = drift_integral_weights(yn, sn, 1.0, self.NU)
        v0 = np.empty(R)
        v1 = np.empty(R)
        scale = lattice.scale
        for r in range(R):
            inc = sheet_rng(91, r).standard_normal(w0.shape) * scale
            v0[r] = float(np.sum(w0 * inc))
            inc = sheet_rng(91, R + r).standard_normal(w0.shape) * scale
            v1[r] = float(np.sum(w1 * inc))
        assert ks_2samp(v0, v1, method="asymp").pvalue > 0.01

    def test_validation(self, lattice):
        yn, sn = lattice.y_nodes, lattice.s_nodes
        for nu in (-1.0, 0.0):
            with pytest.raises(ValueError, match="nu must be positive"):
                drift_field_weights(yn, sn, 0.0, nu, lattice.s_max)
            with pytest.raises(ValueError, match="nu must be positive"):
                drift_integral_weights(yn, sn, 0.0, nu)


class TestCameronMartin:
    # CM_LEVEL = 2 quadrature values, frozen; gap = 0 is exact up to roundoff
    GAP0_REF = {(1.0, 1.0): 0.06249999999999968,
                (1.0, 2.0): 0.024407768234454286,
                (2.0, 2.0): 0.01104854345603973}
    GAP_HALF_REF = 0.007299418386784211  # (nu=1, nu2=2, gap=0.5)

    def test_target_closed_form(self):
        assert cameron_martin_target(1.0, 1.0, 0.0) == 0.0625
        assert cameron_martin_target(1.0, 2.0, 0.0) == pytest.approx(
            0.25 / (math.sqrt(2.0) * (1.0 + math.sqrt(2.0)) * 3.0), rel=1e-15)

    def test_gap_zero_exact(self):
        for (nu, nu2), ref in self.GAP0_REF.items():
            val = cameron_martin_laplace(nu, nu2, 0.0)
            assert val == pytest.approx(ref, rel=1e-12)
            assert val == pytest.approx(cameron_martin_target(nu, nu2, 0.0),
                                        rel=1e-12)

    def test_symmetric_in_rates(self):
        assert cameron_martin_laplace(1.0, 2.0, 0.5) == \
            cameron_martin_laplace(2.0, 1.0, 0.5)

    def test_positive_gap_value(self):
        val = cameron_martin_laplace(1.0, 2.0, 0.5)
        assert val == pytest.approx(self.GAP_HALF_REF, rel=1e-12)
        assert val == pytest.approx(cameron_martin_target(1.0, 2.0, 0.5), rel=1e-8)

    def test_level_refinement(self):
        # at equal rates the two triangles are one; each level cuts the
        # error a hundredfold, and cameron_martin_laplace runs CM_LEVEL
        tgt = cameron_martin_target(1.0, 1.0, 0.7)
        vals = [2.0 * _cm_lower_triangle(1.0, 1.0, 0.7, l) for l in range(4)]
        errs = [abs(v / tgt - 1.0) for v in vals]
        assert errs[0] / errs[1] >= 100.0
        assert errs[1] / errs[2] >= 100.0
        assert errs[3] <= 1e-12
        assert cameron_martin_laplace(1.0, 1.0, 0.7) == vals[CM_LEVEL]

    def test_report(self):
        # the relative-error report suite_drift builds at gap 0, here at a
        # positive gap, passes its 1e-4 bound at the default level
        val = cameron_martin_laplace(1.0, 2.0, 0.5)
        rel = abs(val / cameron_martin_target(1.0, 2.0, 0.5) - 1.0)
        rep = residual_report("laplace covariance identity nu=1 nu2=2",
                              rel, 1e-4)
        assert rep.passed

    def test_validation(self):
        with pytest.raises(ValueError):
            cameron_martin_laplace(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            cameron_martin_laplace(1.0, 1.0, -0.5)


def small_tensor(nt=32, which=1):
    # 1: centered on x = 0; 2: off center, narrower in x and in t
    g = TimeGrid(4.0, nt)
    if which == 2:
        return TensorTestFunction(0.4, 0.8, hs.TestFunction(1.6, 0.9, g))
    return TensorTestFunction(0.0, 1.0, hs.TestFunction(2.0, 1.0, g))


def plan_sheet(plan, seed, stream=0):
    return sheet_sample(plan.lattice, seed=seed, stream=stream)


def omega_by_distance_loop(f, **kw):
    """The plan weights by one pass per x node: Ohat[c] += conj(Khat[q])
    Bhat[i] over the distances q = Q0 + 2i - c, then one inverse transform
    in time.  The oracle for WeakformPlan's FFT correlation."""
    x, dx, lat = weakform_geometry(f, **kw)
    g = f.ft.grid
    nt, nx, ny = g.n, x.size, lat.ny
    A = _bracket(f, x)
    Q0 = int(round((f.x_support[0] - lat.y_min) / lat.dy))
    qmin = Q0 - (ny - 1)
    dist = lat.dy * (np.arange(qmin, Q0 + 2 * (nx - 1) + 1) + 0.5)
    um = (np.arange(2 * nt) + 0.5) * lat.ds
    Ktab = np.exp(-dist[:, None] ** 2 / (4.0 * um[None, :])) \
        / np.sqrt(4.0 * np.pi * um[None, :])
    NF = 4 * nt
    Khat = np.fft.rfft(Ktab, n=NF, axis=1)
    Bt = np.zeros((nx, NF))
    Bt[:, 0:2 * nt:2] = A * dx * g.dt
    Bhat = np.fft.rfft(Bt, axis=1)
    Ohat = np.zeros((ny, NF // 2 + 1), dtype=complex)
    crange = np.arange(ny)
    for i in range(nx):
        Ohat += np.conj(Khat[Q0 + 2 * i - crange - qmin]) * Bhat[i][None, :]
    return np.fft.irfft(Ohat, n=NF, axis=1)[:, :lat.ns]


class TestWeakform:
    def test_tensor_validation(self):
        ft = hs.TestFunction(2.0, 1.0, TimeGrid(4.0, 32))
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="x_radius"):
                TensorTestFunction(0.0, bad, ft)

    def test_zero_sheet_gives_zero(self):
        f = small_tensor()
        plan = WeakformPlan(f, x_res=8)
        assert plan.residual(zeroed(plan_sheet(plan, 0))) == 0.0

    @pytest.mark.parametrize("which,seed", [(1, 3), (1, 11), (2, 3), (2, 19)])
    def test_reordering_is_exact(self, which, seed):
        # the FFT-reordered cell weights and the literal U-tabulation path
        # on the plan's x nodes are the same linear functional of the sheet;
        # the oracle builds U from the sheet alone, never from omega
        f = small_tensor(which=which)
        plan = WeakformPlan(f, x_res=8)
        s = plan_sheet(plan, seed)
        fast = plan.residual(s)
        plan.omega = None
        slow = weakform_residual_reference(s, plan)
        assert abs(fast - slow) <= 1e-11

    @pytest.mark.parametrize("which,kw", [(1, dict(x_res=8)),
                                          (2, dict(x_res=8)),
                                          (1, {})])
    def test_omega_matches_distance_loop(self, which, kw):
        # one FFT correlation along the distance axis sums the same terms
        # as the loop; only the rounding differs
        f = small_tensor(which=which)
        omega = WeakformPlan(f, **kw).omega
        ref = omega_by_distance_loop(f, **kw)
        assert omega.shape == ref.shape and omega.flags.c_contiguous
        assert np.max(np.abs(omega - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_plan_memory(self):
        # the transforms run in place: the plan peaks at its two complex
        # tables, 2 nt + 1 time frequencies by next_fast_len(ny + 2 nx - 2)
        # distances each (the loop held about twice that)
        g = TimeGrid(8.0, 256)  # f2 of verify-spde --n 256
        f = TensorTestFunction(0.0, 1.0, hs.TestFunction(2.0, 1.0, g))
        x, _, lat = weakform_geometry(f)
        table = 16 * (2 * 256 + 1) * next_fast_len(lat.ny + 2 * x.size - 2)
        tracemalloc.start()
        try:
            plan = WeakformPlan(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.omega.size == lat.cells
        assert peak < 2.25 * table

    def test_geometry_mismatch_rejected(self):
        f = small_tensor()
        plan = WeakformPlan(f, x_res=8)
        lat = plan.lattice
        for bad in (SheetLattice(lat.y_min, lat.dy, lat.ds / 2, lat.ny,
                                 2 * lat.ns),
                    SheetLattice(lat.y_min + lat.dy, lat.dy, lat.ds, lat.ny,
                                 lat.ns)):
            with pytest.raises(ValueError, match="does not match"):
                plan.residual(sheet_sample(bad, seed=0))

    def test_plans_compare_by_identity(self):
        f = small_tensor()
        plan = WeakformPlan(f, x_res=8)
        assert plan == plan
        assert plan != WeakformPlan(f, x_res=8)

    def test_discrete_variance_near_l2sq(self):
        # at production resolution, and with room for the operator tails
        # beyond the bump support, the weight variance reproduces ||f||^2
        g = TimeGrid(8.0, 256)
        f = TensorTestFunction(0.0, 1.0, hs.TestFunction(2.0, 1.0, g))
        plan = WeakformPlan(f)
        assert plan.variance_discrete() == pytest.approx(f.l2sq(), rel=1e-2)

    def test_monte_carlo_moments(self):
        f = small_tensor()
        plan = WeakformPlan(f, x_res=8)
        R = 600
        vals = np.array([plan.residual(plan_sheet(plan, 13, stream=r))
                         for r in range(R)])
        mean, se = hs.mean_se(vals)
        assert abs(mean) <= 4.0 * se
        target = plan.variance_discrete()
        var = float(np.var(vals, ddof=1))
        assert abs(var - target) <= 4.0 * target * math.sqrt(2.0 / (R - 1))


if __name__ == "__main__":
    pytest.main([__file__])
