"""Verification suites and the command-line entry point.

Five subcommands, one per suite:

* verify-ops    deterministic operator identities on the time grid
* verify-cov    Monte Carlo covariance and independence checks of the field
* verify-drift  the boundary drift functional, pathwise and in law
* verify-spde   weak-form residual: white-noise law of the paired field
* evolve        spatial dynamics: stationarity preserved over a horizon

Each writes <suite>_report.json into --out (plus, for evolve, the sample
replica's trajectory.csv and its final (u, v) as final_state.npy, a float64
(2, n) array for np.load) and exits 0 when every report passes, 1 when
any fails, 2 on a bad option or input (a ValueError) or a file error (an
OSError) and 3 on a numerical or resource failure, exhausted memory
included, which yields no verdict.  Each run option has one way in, its
flag (OPTIONS), and each command takes only the flags its suite reads
(COMMAND_FLAGS); the decay rates and the heat-kernel tail tolerance are
fixed constants.  Replica streams are derived as seed XOR suite tag (TAGS),
then one SeedSequence spawn per replica, so results are independent of the
worker count; write_report records that suite seed with every report.
"""

from __future__ import annotations

import argparse
import concurrent.futures as cf
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .grid import TimeGrid, TestFunction
from .kernels import SQRT4PI, l_nu, l_nu_laplace
from .fracops import (SpectralPlan, frac_laplacian, op_A1, op_A2,
                      halfroot_conv, a1_a2_residual, A2_TAIL_POWER)
from .gaussfield import (TAIL_TOL, cov_u, cov_u_gram,
                         cov_v_gram, coverage_halfwidth, sheet_rng,
                         sheet_sample, point_weights, pair_u_weights,
                         pair_v_weights, drift_field_weights,
                         drift_integral_weights, drift_variance_exact,
                         cameron_martin_laplace, cameron_martin_target,
                         TensorTestFunction, WeakformPlan, SheetLattice,
                         check_sheet_cells, weakform_geometry, ResourceError)
from .sde import (EvolveConfig, FieldState, StationarySampler, evolve,
                  stability_limit)
from .stats import mean_se, var_se, z_test, residual_report, matrix_compare

# suite tags XORed into the master seed (hex digits of pi: nothing up
# the sleeve, just five fixed distinct words)
TAGS = {"ops": 0x243F6A8885A308D3, "cov": 0x13198A2E03707344,
        "drift": 0xA4093822299F31D0, "spde": 0x082EFA98EC4E6C89,
        "evolve": 0x452821E638D01377}

U64 = 1 << 64

# default grids: identity suites live on (8, 4096); the weak-form suite
# trades time resolution for replica count; the dynamics suite buys domain
# margin (t_max 16) against truncation backflow at the far end
OPS_T_MAX, OPS_N = 8.0, 4096
SPDE_T_MAX, SPDE_N = 8.0, 512
EVOLVE_T_MAX, EVOLVE_N = 16.0, 1024

COV_POINT_REPLICAS = 20000
COV_GRAM_REPLICAS = 4000
DRIFT_REPLICAS = 4000
SPDE_REPLICAS = 10000
EVOLVE_REPLICAS = 5000

COV_POINT_DS = 1.0 / 512
COV_GRAM_DS = 1.0 / 64
COV_GRAM_DY = 1.0 / 8
COV_RADIUS = 0.7               # radius of the eight Gram observables
GRAM_STREAM_BASE = 1 << 20     # keep gram streams clear of the point block
SPDE_STREAM_STRIDE = 1 << 20   # stream offset between test-function runs

DRIFT_Y_COUNT = 20
DRIFT_Y_STEP = 1.0 / 8         # lattice-aligned probe locations
# the drift variance target integrates over all s >= 0; a sheet that ends at
# s_max misses a share e^(-2 nu s_max) of it, which must stay below this
DRIFT_TRUNCATION = 1e-3
DRIFT_NU = 1.0                 # decay rate of the drift functional

CHUNK_REPLICAS = 128
# float32 cells per chunk buffer, 8 MB a worker; 16 M-cell buffers ran no
# faster on a 2-core Xeon and raised peak memory by their size
CHUNK_CELL_BUDGET = 2_000_000
# evolve steps this many replicas as one (B, n) block; at the default grid
# larger blocks ran slower and raised peak memory (their transform
# temporaries outgrow the cache and grow with B)
EVOLVE_BATCH = 16

# refinement reports: halving dt must shrink the error by this factor
REFINE_GAIN = 1.8


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters; None means 'suite default'."""

    seed: int = 0
    t_max: float | None = None
    n: int | None = None
    dz: float | None = None
    Z: float | None = None
    replicas: int | None = None
    out_dir: str = "."
    workers: int = 1

    def validate(self):
        for name, v in (("tmax", self.t_max), ("dz", self.dz), ("Z", self.Z)):
            if v is not None and not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.n is not None and (self.n < 2 or self.n & (self.n - 1)):
            raise ValueError("n must be a power of two")
        if not (0 <= self.seed < U64):
            raise ValueError("seed must fit in 64 bits")
        for name, v in (("tmax", self.t_max), ("dz", self.dz), ("Z", self.Z)):
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive")
        if self.replicas is not None and self.replicas < 2:
            raise ValueError("replicas must be at least 2")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


def suite_seed(cfg: RunConfig, suite: str) -> int:
    return (cfg.seed ^ TAGS[suite]) % U64


def _sheet_band(y_last: float, t: float, dy: float, ds: float,
                reach: float) -> SheetLattice:
    """The lattice over [-m dy, y_last + m dy] x [0, t], m = ceil(reach/dy)
    + 1: every probe in [0, y_last] has reach plus a spare cell each side."""
    m = math.ceil(reach / dy) + 1
    return SheetLattice(-m * dy, dy, ds, 2 * m + round(y_last / dy),
                        round(t / ds))


def _parallel(ranges: list, workers: int, task):
    """Run task(lo, hi) over the ranges (lo, hi); callers fix the ranges
    independently of the worker count, so outputs written by replica index
    are reproducible."""
    if workers <= 1:
        for lo, hi in ranges:
            task(lo, hi)
    else:
        with cf.ThreadPoolExecutor(max_workers=workers) as ex:
            list(ex.map(lambda c: task(*c), ranges))


# ----------------------------------------------------------------------
# verify-ops

# padding for the identity comparisons: the spectral side's periodization
# error is dt-independent, so pad=2 floors the refinement study; pad=4
# pushes the floor below the dt-part at desk resolutions
OPS_PAD = 4
OPS_MARGIN = 0.5   # factorization error is read on (margin, t_max - margin)
OPS_T_CUT = 4.0    # eigenfunctions are compared on t <= min(t_cut, t_max)
OPS_NUS = (1.0, 4.0)  # decay rates of the exponential eigenfunctions
OPS_MIN_N = 8      # coarser grids put no node where the bump's h' is nonzero
# error tolerances: factorization, halfroot inversion, composition identity
OPS_FACTOR_TOL, OPS_INV_TOL, OPS_COMPOSITION_TOL = 1e-2, 1e-2, 2e-2


def _ops_bump(grid: TimeGrid) -> TestFunction:
    return TestFunction(0.25 * grid.t_max, 0.125 * grid.t_max, grid)


def _interior(grid: TimeGrid) -> np.ndarray:
    t = grid.nodes
    return (t > OPS_MARGIN) & (t < grid.t_max - OPS_MARGIN)


def _check_ops_grid(grid: TimeGrid):
    """n >= OPS_MIN_N, since errors are scaled by max |h'| of the ops bump;
    and both comparison masks must hold a node: the middle node t_max/2 -
    dt/2 must clear the margin and the first node dt/2 must not pass t_cut."""
    if grid.n < OPS_MIN_N:
        raise ValueError(f"n must be at least {OPS_MIN_N} for verify-ops, "
                         f"got {grid.n}")
    if not (_interior(grid).any()
            and grid.nodes[0] <= min(OPS_T_CUT, grid.t_max)):
        lo = 2.0 * OPS_MARGIN * grid.n / (grid.n - 1)
        raise ValueError(
            f"tmax must lie in ({lo:g}, {2.0 * OPS_T_CUT * grid.n:g}] at "
            f"n={grid.n} for verify-ops, got {grid.t_max:g}")


def _a2_factorization_err(grid: TimeGrid) -> float:
    h = _ops_bump(grid)
    plan = SpectralPlan(grid, pad=OPS_PAD)
    lhs = op_A2(h)
    rhs = math.sqrt(2.0) * frac_laplacian(h.values, 0.5, plan)
    m = _interior(grid)
    return float(np.max(np.abs(lhs - rhs)[m]) / h.sup_norm)


def _a1a2_err(grid: TimeGrid) -> float:
    h = _ops_bump(grid)
    plan = SpectralPlan(grid, pad=OPS_PAD)
    return float(a1_a2_residual(h, plan=plan)
                 / np.max(np.abs(h.deriv_values)))


def _refinement_reports(label: str, what: str, tol: float, err_of,
                        grid: TimeGrid, gdesc: dict) -> list:
    """The error err_of(grid) against tol, then the quotient err(dt/2) /
    err(dt), which must drop below 1/REFINE_GAIN."""
    fine = TimeGrid(grid.t_max, 2 * grid.n)
    err, err_f = err_of(grid), err_of(fine)
    return [residual_report(f"{label}, {what}", err, tol, grid=gdesc),
            residual_report(f"{label}, refinement quotient",
                            err_f / max(err, 1e-300), 1.0 / REFINE_GAIN,
                            grid={**gdesc, "fine_n": fine.n,
                                  "fine_error": err_f})]


def suite_ops(cfg: RunConfig) -> list:
    grid = TimeGrid(cfg.t_max or OPS_T_MAX, cfg.n or OPS_N)
    _check_ops_grid(grid)
    gdesc = {"t_max": grid.t_max, "n": grid.n}

    # factorization of the second operator through the quarter-order one
    reports = _refinement_reports(
        "quarter-order factorization", "interior max error", OPS_FACTOR_TOL,
        _a2_factorization_err, grid, gdesc)

    # inversion: convolving the image against the halfroot kernel returns h
    h = _ops_bump(grid)
    a2 = op_A2(h)
    back = halfroot_conv(a2, grid, tail=("power", A2_TAIL_POWER))
    inv_err = float(np.max(np.abs(back - h.values)) / h.sup_norm)
    reports.append(residual_report(
        "halfroot inversion, max error", inv_err, OPS_INV_TOL, grid=gdesc))

    # composition identity with first-order refinement
    reports += _refinement_reports("composition identity", "residual",
                                   OPS_COMPOSITION_TOL, _a1a2_err, grid, gdesc)

    # exponential eigenfunctions of the first operator
    tcut = min(OPS_T_CUT, grid.t_max)
    mask = grid.nodes <= tcut
    for nu in OPS_NUS:
        f = np.exp(-nu * grid.nodes)
        out = op_A1(f, grid, tail=("exp", nu))
        rel = float(np.max(np.abs(out - math.sqrt(nu) * f)[mask]
                           / (math.sqrt(nu) * f[mask])))
        reports.append(residual_report(
            f"exponential eigenfunction nu={nu:g}", rel, 1e-3,
            grid={**gdesc, "t_cut": tcut}))

    # window integral l: pinned at 0, bounded normalized tail, Laplace value
    reports.append(residual_report(
        "window integral at t=0", abs(l_nu(1.0, 0.0)), 0.0))
    ts = np.geomspace(10.0, 1000.0, 25)
    sup = max(abs(t ** 1.5 * l_nu(1.0, t)) for t in ts)
    reports.append(residual_report(
        "window integral normalized tail bound", sup, 1.0,
        grid={"t_lo": 10.0, "t_hi": 1000.0, "limit": 1.0 / SQRT4PI}))
    lap = l_nu_laplace(1.0, 1.0)
    reports.append(residual_report(
        "window integral laplace value", abs(lap - 0.25), 1e-4,
        grid={"value": lap}))
    return reports


# ----------------------------------------------------------------------
# verify-cov

def cov_observables(grid: TimeGrid) -> list:
    centers = 1.0 + 0.8 * np.arange(8)
    return [TestFunction(center=float(c), radius=COV_RADIUS, grid=grid)
            for c in centers]


def _check_cov_grid(grid: TimeGrid):
    """dt <= COV_RADIUS / 2: the Gram targets cov_u_gram and cov_v_gram
    sample the observables on the grid, and on coarser grids their
    discretisation bias alone fails the Gram gates."""
    half = COV_RADIUS / 2
    if grid.dt > half:
        n_min = 2
        while grid.t_max / n_min > half:
            n_min *= 2
        raise ValueError(
            f"n must be at least {n_min} for verify-cov at tmax="
            f"{grid.t_max:g}, where dt = tmax/n may not exceed {half:g}, "
            f"half the observables' radius; got {grid.n}")


def _mc_chunks(R: int, ncells: int) -> list:
    """ceil(R / cap) replica ranges (lo, hi), in order and of sizes that
    differ by at most 1; the cap is CHUNK_REPLICAS replicas, fewer to keep
    a chunk within CHUNK_CELL_BUDGET cells, but at least 1."""
    cap = max(1, min(CHUNK_REPLICAS, CHUNK_CELL_BUDGET // max(ncells, 1)))
    k = -(-R // cap)
    edges = [R * j // k for j in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


@dataclass(frozen=True)
class SheetCrop:
    """Weights cropped to the Daubechies-4 coefficients that carry their
    energy."""

    W: np.ndarray       # (rows, kept): the kept coefficients, in _db4 order
    keep: np.ndarray    # (ny * ns,) bool: the kept coefficients of _db4
    scale: float        # standard deviation of one cell increment
    dropped: float      # largest share of a row's ||w||^2 left out

    @property
    def cells(self) -> int:
        """Normals drawn per replica: one per kept coefficient."""
        return self.W.shape[1]

    def gram(self) -> np.ndarray:
        """The exact covariance scale^2 W_kept W_kept^T of the statistics."""
        return self.scale ** 2 * (self.W @ self.W.T)

    def grid(self) -> dict:
        """Report fields: normals drawn per replica, the dropped energy share
        and, for one row, the exact variance of the statistic it draws."""
        out = {"cells_drawn": self.cells, "energy_dropped": self.dropped}
        if self.W.shape[0] == 1:
            out["discrete_variance"] = float(self.gram()[0, 0])
        return out


# orthonormal Daubechies-4 filters (four vanishing moments, 8 taps): the
# scaling filter h and the wavelet filter g_k = (-1)^k h_(7-k)
DB4_H = np.array([0.2303778133088964, 0.7148465705529154, 0.6308807679298587,
                  -0.0279837694168599, -0.1870348117190931, 0.0308413818355607,
                  0.0328830116668852, -0.0105974017850690])
DB4_HG = np.stack([DB4_H, (-1.0) ** np.arange(8) * DB4_H[::-1]])


def _db4(w: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D Daubechies-4 coefficients of a (ny, ns) float64
    array, written over it; returns w.

    Runs along y, then along s; each axis is halved while its length n is
    even, x becoming the n/2 coarse sums sum_k h_k x_(2i+k mod n) followed
    by the n/2 details sum_k g_k x_(2i+k mod n), so 1440 = 45 * 2^5 takes 5
    levels and leaves 45 coarse sums.  The filters wrap periodically, with
    no padding; periodized they stay orthonormal at every even length,
    short ones included, so the transform is an orthogonal matrix on the
    ny * ns cells.
    """
    for v in (w, w.T):
        n = v.shape[0]
        while n % 2 == 0:
            ext = v[np.arange(n + 6) % n]  # x_(j mod n) for j < n + 6
            win = np.lib.stride_tricks.sliding_window_view(ext, 8, axis=0)
            out = DB4_HG @ np.moveaxis(win[::2], -1, 1)  # (n/2, 2, ...)
            v[:n // 2], v[n // 2:n] = out[:, 0], out[:, 1]
            n //= 2
    return w


def _support(W: np.ndarray, lat: SheetLattice) -> SheetCrop:
    """Weights W of shape (rows, ny, ns) on lat, cropped by energy in the
    lattice's Daubechies-4 basis.

    Each row drops its smallest Daubechies-4 coefficients (_db4) while their
    summed energy c^2 stays within TAIL_TOL of the row's own ||w||^2;
    coefficients of equal energy go together, so each row's cut is a
    threshold and zero coefficients always go.  The crop keeps every
    coefficient that some row keeps.  The transform D is orthonormal, so
    w . z = (Dw) . (Dz) and the coefficients Dz of a sheet are again i.i.d.
    normals: a statistic drawn on the kept coefficients alone is exactly
    N(0, scale^2 ||(DW)_kept||^2), within a relative TAIL_TOL of its law on
    the full lattice.  Each row is transformed once, in place: a float64
    C-contiguous W is overwritten by its coefficients, so callers hand over
    weights they no longer need.
    """
    C = np.asarray(W, dtype=float).reshape(W.shape[0], -1)
    keep = np.zeros(lat.cells, dtype=bool)
    for c in C:
        _db4(c.reshape(lat.ny, lat.ns))
        e = c ** 2
        s = np.sort(e)
        cs = np.cumsum(s)
        k = int(np.searchsorted(cs, TAIL_TOL * cs[-1], side="right"))
        if k < s.size:  # back to the start of a group of ties
            k = int(np.searchsorted(s, s[k]))
        keep |= e > (s[k - 1] if k else 0.0)
    drop = ~keep
    dropped = 0.0
    for c in C:
        cd = c[drop]
        dropped = max(dropped, float(cd @ cd / (c @ c)))
    return SheetCrop(C[:, keep], keep, lat.scale, dropped)


def _mc_pairings(W: np.ndarray, ncells: int, scale: float, R: int,
                 seed: int, stream_base: int, workers: int) -> np.ndarray:
    """Monte Carlo pairings X[r] = W @ sheet_r for per-replica streams.

    W holds ncells columns, in the suites the Daubechies-4 coefficients kept
    by _support, and replica r draws one float32 normal per column from
    stream stream_base + r: its k-th normal, times scale, is the sheet's
    k-th kept coefficient.  Float32 halves bandwidth; the estimator noise floor
    is far above single precision.  The normals go straight into the rows
    of one chunk buffer of at most max(one sheet, CHUNK_CELL_BUDGET) cells
    per worker.
    """
    check_sheet_cells(ncells)
    X = np.zeros((R, W.shape[0]))
    W32 = W.astype(np.float32)

    def task(lo, hi):
        buf = np.empty((hi - lo, ncells), dtype=np.float32)
        for r in range(lo, hi):
            sheet_rng(seed, stream_base + r).standard_normal(
                dtype=np.float32, out=buf[r - lo])
        X[lo:hi] = (buf @ W32.T).astype(np.float64) * scale

    _parallel(_mc_chunks(R, ncells), workers, task)
    return X


def _cov_se(S: np.ndarray, R: int) -> np.ndarray:
    d = np.diag(S)
    return np.sqrt((np.outer(d, d) + S ** 2) / (R - 1))


def suite_cov(cfg: RunConfig) -> list:
    seed = suite_seed(cfg, "cov")
    t_max = cfg.t_max or OPS_T_MAX
    grid = TimeGrid(t_max, cfg.n or OPS_N)
    R_point = cfg.replicas or COV_POINT_REPLICAS
    R_gram = min(cfg.replicas or COV_GRAM_REPLICAS, COV_GRAM_REPLICAS)
    # both sheets must fit before any weights are built
    point = _sheet_band(0.0, 1.0, math.sqrt(COV_POINT_DS), COV_POINT_DS,
                        coverage_halfwidth(1.0))
    gram = _sheet_band(0.0, t_max, COV_GRAM_DY, COV_GRAM_DS,
                       coverage_halfwidth(t_max))
    _check_cov_grid(grid)
    reports = []

    # point variance of the field at (0, 1)
    crop = _support(point_weights(point.y_nodes, point.s_nodes, 0.0,
                                  1.0)[None], point)
    X = _mc_pairings(crop.W, crop.cells, crop.scale, R_point, seed, 0,
                     cfg.workers)
    var, se = var_se(X[:, 0])
    tgt = cov_u(1.0, 1.0)
    reports.append(z_test(
        var, se, tgt, name="field variance at (0,1)", replicas=R_point,
        grid={"dy": point.dy, "ds": point.ds, "ny": point.ny,
              "ns": point.ns, **crop.grid()}))

    # Gram comparison of field and derivative pairings at x = 0
    hs = cov_observables(grid)
    yn, sn = gram.y_nodes, gram.s_nodes
    crop = _support(np.concatenate([
        pair_u_weights(yn, sn, 0.0, hs, t_max),
        pair_v_weights(yn, sn, 0.0, hs, t_max)]), gram)
    X = _mc_pairings(crop.W, crop.cells, crop.scale, R_gram,
                     seed, GRAM_STREAM_BASE, cfg.workers)
    m = len(hs)
    S = np.cov(X.T, ddof=1)
    se = _cov_se(S, R_gram)
    gdesc = {"dy": gram.dy, "ds": gram.ds, "ny": gram.ny, "ns": gram.ns,
             "t_max": t_max, **crop.grid()}
    # the exact law of the drawn pairings, against the continuum target
    G = crop.gram()
    for name, block, target in (
            ("field pairing Gram (8x8)", np.s_[:m, :m], cov_u_gram(hs)),
            ("derivative pairing Gram (8x8)", np.s_[m:, m:], cov_v_gram(hs)),
            ("field/derivative cross-covariance vs 0", np.s_[:m, m:],
             np.zeros((m, m)))):
        gap = float(np.max(np.abs(G[block] - target)))
        reports.append(matrix_compare(
            S[block], target, se[block], name=name, replicas=R_gram,
            grid={**gdesc, "discrete_gap": gap}))
    return reports


# ----------------------------------------------------------------------
# verify-drift

def _probe_weights(lat: SheetLattice, yvals: np.ndarray, build) -> list:
    """The weight arrays build(y_nodes, s_nodes, y) of every probe y.

    The drift weights depend on y only through y - y_node, so a probe k
    whole cells above the first is the first probe's array on a node column
    shifted down by k cells: one build at the first probe on a column
    widened by the probes' spread, sliced once per probe.  The slices are
    exact: the pairing weights are built per distinct |y - y_node|, in
    bounded blocks of s-rows, with a node sum whose order does not depend
    on which other distances share the build.
    """
    k = (yvals - yvals[0]) / lat.dy
    shift = np.rint(k).astype(int)
    if np.any(np.abs(k - shift) > 1e-9):
        raise ValueError(f"drift probes {yvals.tolist()} are not whole cells "
                         f"of {lat.dy} apart")
    lo, hi = int(shift.min()), int(shift.max())
    yn = lat.y_min + (np.arange(-hi, lat.ny - lo) + 0.5) * lat.dy
    W = build(yn, lat.s_nodes, float(yvals[0]))
    return [W[hi - j:hi - j + lat.ny] for j in shift]


def suite_drift(cfg: RunConfig) -> list:
    seed = suite_seed(cfg, "drift")
    t_max = cfg.t_max or OPS_T_MAX
    nu = DRIFT_NU
    R = cfg.replicas or DRIFT_REPLICAS
    s_max = round(t_max / COV_GRAM_DS) * COV_GRAM_DS
    deficit = math.exp(-2.0 * nu * s_max)
    if deficit > DRIFT_TRUNCATION:
        raise ValueError(
            f"tmax={t_max:g} is too short for verify-drift at nu={nu:g}: the "
            f"sheet ends at s={s_max:g}, where the variance target still lacks "
            f"a share e^(-2 nu s)={deficit:.3g}; the bound "
            f"{DRIFT_TRUNCATION:g} needs s >= ln(1/{DRIFT_TRUNCATION:g}) / "
            f"(2 nu) = {math.log(1.0 / DRIFT_TRUNCATION) / (2.0 * nu):.4g}")
    # heat-kernel support and the exponential's reach around every probe
    reach = max(coverage_halfwidth(t_max),
                math.log(1.0 / TAIL_TOL) / math.sqrt(nu))
    lat = _sheet_band((DRIFT_Y_COUNT - 1) * DRIFT_Y_STEP, t_max,
                      COV_GRAM_DY, COV_GRAM_DS, reach)
    gdesc = {"dy": lat.dy, "ds": lat.ds, "ny": lat.ny, "ns": lat.ns,
             "t_max": t_max, "nu": nu}
    reports = []

    # pathwise identity on one shared sheet, probed on the cell-edge lattice
    sheet = sheet_sample(lat, seed=seed, stream=0)
    yvals = np.arange(DRIFT_Y_COUNT) * DRIFT_Y_STEP
    wi = _probe_weights(lat, yvals, lambda yn, sn, y:
                        drift_integral_weights(yn, sn, y, nu))
    integral = [float(np.sum(w * sheet.increments)) for w in wi]

    def field_rms(nw):
        wf = _probe_weights(lat, yvals, lambda yn, sn, y: drift_field_weights(
            yn, sn, y, nu, t_max, nw=nw))
        num = den = 0.0
        for w, b in zip(wf, integral):
            num += (float(np.sum(w * sheet.increments)) - b) ** 2
            den += b * b
        return math.sqrt(num / den)

    rms = field_rms(32)
    reports.append(residual_report(
        "drift pathwise identity, relative RMS", rms, 5e-2, grid=gdesc))
    rms_coarse = field_rms(8)
    reports.append(residual_report(
        "drift quadrature refinement gain", rms / max(rms_coarse, 1e-300),
        0.25, grid={**gdesc, "coarse_nodes": 8, "fine_nodes": 32,
                    "coarse_rms": rms_coarse}))

    # law: variance of the explicit form matches the closed double integral,
    # on the weights of the first probe, y = 0, which the crop overwrites
    crop = _support(wi[0][None], lat)
    X = _mc_pairings(crop.W, crop.cells, crop.scale, R, seed, 1, cfg.workers)
    var, se = var_se(X[:, 0])
    reports.append(z_test(
        var, se, drift_variance_exact(nu), name="drift functional variance",
        replicas=R, grid={**gdesc, **crop.grid()}))

    # Laplace-domain identity for the shifted covariance kernel, the
    # continuum statement behind the drift construction
    for nu_a in (1.0, 2.0):
        for nu_b in (1.0, 2.0):
            val = cameron_martin_laplace(nu_a, nu_b, 0.0)
            tgt = cameron_martin_target(nu_a, nu_b, 0.0)
            reports.append(residual_report(
                f"laplace covariance identity nu={nu_a:g} nu2={nu_b:g}",
                abs(val / tgt - 1.0), 1e-4,
                grid={"value": val, "closed_form": tgt}))
    return reports


# ----------------------------------------------------------------------
# verify-spde

def _moment_tests(data: np.ndarray, var_target: float, what: str, which: str,
                  **kw) -> list:
    """z-tests of the sample mean against 0 and the sample variance against
    var_target, named '<what> mean, <which>' and '<what> variance, <which>'."""
    (mean, se_m), (var, se_v) = mean_se(data), var_se(data)
    return [z_test(mean, se_m, 0.0, name=f"{what} mean, {which}",
                   replicas=data.size, **kw),
            z_test(var, se_v, var_target, name=f"{what} variance, {which}",
                   replicas=data.size, **kw)]


def spde_test_functions(grid: TimeGrid) -> list:
    ft = TestFunction(2.0, 1.0, grid)
    return [TensorTestFunction(0.0, 2.5, ft), TensorTestFunction(0.0, 1.0, ft)]


def suite_spde(cfg: RunConfig) -> list:
    seed = suite_seed(cfg, "spde")
    t_max = cfg.t_max or SPDE_T_MAX
    n = cfg.n or SPDE_N
    grid = TimeGrid(t_max, n)
    R = cfg.replicas or SPDE_REPLICAS
    fs = spde_test_functions(grid)
    # every plan must fit before any is built
    for f in fs:
        weakform_geometry(f)
    reports = []
    for fi, f in enumerate(fs):
        plan = WeakformPlan(f)
        lat = plan.lattice
        tgt = f.l2sq()
        bias = abs(plan.variance_discrete() / tgt - 1.0)
        # the crop overwrites omega by its coefficients
        crop = _support(plan.omega[None], lat)
        gdesc = {"t_max": t_max, "n": n, "x_radius": f.x_radius,
                 "dy": lat.dy, "ds": lat.ds, "nx": plan.nx, "dx": plan.dx,
                 **crop.grid()}
        del plan  # only the kept weights are held while drawing
        X = _mc_pairings(crop.W, crop.cells, crop.scale, R,
                         seed, fi * SPDE_STREAM_STRIDE, cfg.workers)
        reports += _moment_tests(X[:, 0], tgt, "weak-form residual",
                                 f"f{fi + 1}", grid=gdesc)
        reports.append(residual_report(
            f"weak-form discrete variance bias, f{fi + 1}", bias, 2e-2,
            grid=gdesc))
    return reports


# ----------------------------------------------------------------------
# evolve

def evolve_observables(grid: TimeGrid) -> list:
    return [TestFunction(center=c, radius=0.4, grid=grid)
            for c in (1.5, 4.0, 5.8)]


def suite_evolve(cfg: RunConfig):
    seed = suite_seed(cfg, "evolve")
    t_max = cfg.t_max or EVOLVE_T_MAX
    n = cfg.n or EVOLVE_N
    grid = TimeGrid(t_max, n)
    dz = cfg.dz if cfg.dz is not None else stability_limit(grid)
    Z = cfg.Z if cfg.Z is not None else 1.0
    R = cfg.replicas or EVOLVE_REPLICAS

    obs = evolve_observables(grid)
    m = len(obs)
    ecfg = EvolveConfig(dz=dz, Z=Z, observables=tuple(obs))
    ecfg.check_stability(grid)
    # a block's records must fit before anything is drawn
    ecfg.check_records(min(R, EVOLVE_BATCH))

    sampler = StationarySampler(grid)
    plan = SpectralPlan(grid)
    G1 = cov_u_gram(obs)
    G2 = cov_v_gram(obs)

    UZ = np.zeros((R, m))
    VZ = np.zeros((R, m))
    book = np.zeros(R)
    first = {}

    def task(lo, hi):
        # replica r keeps its own stream: its stationary draw, then its
        # noise rows, in the same order as a run of r alone
        rngs = [sheet_rng(seed, r) for r in range(lo, hi)]
        init = FieldState.stack([sampler.draw(rng) for rng in rngs])
        res = evolve(init, ecfg, plan, rngs)
        UZ[lo:hi] = res.u_obs[:, -1]
        VZ[lo:hi] = res.v_obs[:, -1]
        book[lo:hi] = res.bookkeeping_error
        if lo == 0:
            first["block"] = res

    _parallel([(lo, min(lo + EVOLVE_BATCH, R))
               for lo in range(0, R, EVOLVE_BATCH)], cfg.workers, task)

    gdesc = {"t_max": t_max, "n": n, "dz": dz, "Z": Z,
             "basis": len(sampler.basis)}
    reports = [residual_report(
        "telescoping audit, max over replicas", float(book.max()), 1e-10,
        grid=gdesc)]
    for i, h in enumerate(obs):
        lab = f"h{i + 1} (center {h.center:g})"
        for name, data, tgt_var in (("u", UZ[:, i], G1[i, i]),
                                    ("v", VZ[:, i], G2[i, i])):
            reports += _moment_tests(data, float(tgt_var),
                                     f"terminal {name}-pairing", lab,
                                     grid=gdesc)
    return reports, first["block"]


# ----------------------------------------------------------------------
# orchestration

def write_report(path: str, suite: str, cfg: RunConfig, reports: list):
    doc = {
        "suite": suite,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": {k: v for k, v in asdict(cfg).items() if k != "out_dir"},
        "reports": [{**r.to_dict(), "seed": suite_seed(cfg, suite)}
                    for r in reports],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(suite: str, cfg: RunConfig, reports: list) -> int:
    write_report(os.path.join(cfg.out_dir, f"{suite}_report.json"), suite,
                 cfg, reports)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.statistic}: estimate "
              f"{r.estimate:.6g} target {r.target:.6g} ({r.rule})")
    return 0 if all(r.passed for r in reports) else 1


def cmd_evolve(cfg: RunConfig) -> int:
    reports, block = suite_evolve(cfg)
    with open(os.path.join(cfg.out_dir, "trajectory.csv"), "w") as fh:
        fh.write(block.to_csv(0))
    # the sample, replica 0: its final (u, v) as a float64 (2, n) array
    state = block.final_state
    np.save(os.path.join(cfg.out_dir, "final_state.npy"),
            np.vstack([state.u[0], state.v[0]]))
    return _finish("evolve", cfg, reports)


# the suites are looked up when a command runs, so a suite replaced on the
# module (by a test or a tracer) is the one that runs
COMMANDS = {
    "verify-ops": lambda cfg: _finish("ops", cfg, suite_ops(cfg)),
    "verify-cov": lambda cfg: _finish("cov", cfg, suite_cov(cfg)),
    "verify-drift": lambda cfg: _finish("drift", cfg, suite_drift(cfg)),
    "verify-spde": lambda cfg: _finish("spde", cfg, suite_spde(cfg)),
    "evolve": cmd_evolve,
}


# flag --key -> (RunConfig field, parser): each field has this one way in;
# the defaults live in RunConfig alone
OPTIONS = {
    "seed": ("seed", int),
    "tmax": ("t_max", float),
    "n": ("n", int),
    "dz": ("dz", float),
    "Z": ("Z", float),
    "replicas": ("replicas", int),
    "workers": ("workers", int),
    "out": ("out_dir", str),
}
# the flags each command reads; any other is rejected, so that no flag is
# echoed into a report without changing it
COMMON_FLAGS = ("seed", "workers", "out")
COMMAND_FLAGS = {
    "verify-ops": COMMON_FLAGS + ("tmax", "n"),
    "verify-cov": COMMON_FLAGS + ("tmax", "n", "replicas"),
    "verify-drift": COMMON_FLAGS + ("tmax", "replicas"),
    "verify-spde": COMMON_FLAGS + ("tmax", "n", "replicas"),
    "evolve": COMMON_FLAGS + ("tmax", "n", "replicas", "dz", "Z"),
}


def build_config(args) -> RunConfig:
    given = {}
    for key in COMMAND_FLAGS[args.command]:
        v = getattr(args, key)
        if v is not None:
            given[OPTIONS[key][0]] = v
    cfg = RunConfig(**given)
    cfg.validate()
    return cfg


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="heatsheet",
        description="verification suites for the heat-sheet laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        for key in COMMAND_FLAGS[name]:
            sp.add_argument(f"--{key}", type=OPTIONS[key][1], default=None)
    return p


def main(argv=None) -> int:
    args, unread = make_parser().parse_known_args(argv)
    try:
        if unread:
            flags = " ".join(f"--{key}" for key in COMMAND_FLAGS[args.command])
            raise ValueError(f"{unread[0].split('=')[0]} does not apply to "
                             f"{args.command}, which reads {flags}")
        cfg = build_config(args)
        os.makedirs(cfg.out_dir, exist_ok=True)
        return COMMANDS[args.command](cfg)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ResourceError, ArithmeticError, MemoryError) as e:
        print(f"error: {str(e) or 'memory exhausted'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
