"""Brownian-sheet sampling and the Gaussian field it drives.

The solution field is represented two ways and the module exists to play
them against each other:

* analytically, through closed-form covariance kernels for the field and
  its spatial derivative (cov_u, cov_v_* below), and
* pathwise, as cell weights of heat-kernel integrals (point_weights,
  pair_u_weights, pair_v_weights) contracted against a sampled sheet of
  independent Gaussian cell increments, plus the boundary-drift functional
  in its two forms (drift_field_weights, drift_integral_weights) and the
  weak-form residual (WeakformPlan) built from the same machinery.

Every sheet statistic is a precomputed weight array w, the isonormal map
w -> sum w dB, so replicas reduce to dot products; everything downstream
of a (seed, stream) pair is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len
from scipy.special import erfc

from .grid import TimeGrid, TestFunction, antisym_extend, bump_profile
from .fracops import SpectralPlan, cell_conv, frac_laplacian, halfroot_conv
from .kernels import SQRTPI, SQRT4PI, laplace_g, unit_rule

# heat-kernel tail tolerance: sizes every sheet band (coverage_halfwidth)
# and bounds the share of a weight row's energy that the crop leaves out
TAIL_TOL = 1e-8
GRAM_JITTER = 1e-12
MAX_SHEET_CELLS = 60_000_000

# unit_rule node counts: the w-integral of cov_u_cross, the per-cell time
# integrals of pairing weights, where 32 puts the quadrature residual far
# below every discretization effect at the default grids, and each factor
# of TensorTestFunction.l2sq; the Cameron-Martin rule has 16 2^CM_LEVEL.
CROSS_NODES = 200
PAIR_NODES = 32
L2SQ_NODES = 400
CM_LEVEL = 2
PAIR_V_CUT = 6.5  # e^(-v^2) support cut for the derivative-kernel integral
# (s-row, distance, node) entries of one block of a pairing build's tables:
# 0.5 MB per float64 table, a handful of them alive at once; blocks of 2^15
# to 2^17 entries built the default cov and drift weights equally fast on a
# 2-core Xeon, 2^18 and more ran slower
PAIR_BLOCK_ENTRIES = 1 << 16

# weak-form plan: x cells per space-bump radius, sheet margin beyond the
# x support
WEAKFORM_X_RES = 40
WEAKFORM_YPAD = 8.0


class ResourceError(RuntimeError):
    """Requested sheet exceeds the in-memory cell budget."""


# ----------------------------------------------------------------------
# closed-form covariances

def cov_u(t: float, t2: float) -> float:
    """Field covariance at one location: (sqrt(t+t2) - sqrt(|t-t2|)) / sqrt(4 pi)."""
    if t < 0 or t2 < 0:
        raise ValueError("times must be nonnegative")
    return (math.sqrt(t + t2) - math.sqrt(abs(t - t2))) / SQRT4PI


def cov_u_cross(dx: float, t: float, t2: float) -> float:
    """Two-location field covariance.

    Equals (1/(2 sqrt(4 pi))) int_{|t-t2|}^{t+t2} r^(-1/2) e^(-dx^2/(4r)) dr,
    evaluated after r = w^2 as a nonsingular Gauss-Legendre integral
    (1/sqrt(4 pi)) int e^(-dx^2/(4 w^2)) dw between sqrt(|t-t2|) and
    sqrt(t+t2).  Reduces to cov_u at dx = 0 and decays monotonically in |dx|.
    """
    if t < 0 or t2 < 0:
        raise ValueError("times must be nonnegative")
    lo = math.sqrt(abs(t - t2))
    hi = math.sqrt(t + t2)
    if hi <= lo:
        return 0.0
    xg, wg = unit_rule(CROSS_NODES)
    w = lo + (hi - lo) * xg
    ww = (hi - lo) * wg
    vals = np.exp(-dx * dx / (4.0 * w * w))  # exactly 1 at dx = 0
    return float(np.sum(vals * ww) / SQRT4PI)


# ----------------------------------------------------------------------
# exact-cell covariance operators on a TimeGrid

def cov_u_apply(f: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """C1 f: kernel -sqrt(|u|)/sqrt(4 pi) against the odd extension.

    Antisymmetrizing reproduces the positive closed form
    (sqrt(t+t') - sqrt(|t-t'|))/sqrt(4 pi) printed for the covariance, so
    C1 is positive despite the leading minus in the kernel.
    """
    F = lambda u: -(2.0 / 3.0) * np.sign(u) * np.abs(u) ** 1.5 / SQRT4PI
    return cell_conv(antisym_extend(np.asarray(f, dtype=float)), grid.dt, F)


def cov_v_apply(f: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """C2 f: kernel 1/(2 sqrt(4 pi |u|)) against the odd extension, half of
    halfroot_conv's (4 pi |u|)^(-1/2)."""
    return 0.5 * halfroot_conv(f, grid)


def _gram(h_list: list[TestFunction], apply_op) -> np.ndarray:
    if not h_list:
        raise ValueError("empty test-function list")
    g = h_list[0].grid
    if any(h.grid != g for h in h_list):
        raise ValueError("test functions not on one grid")
    # row i is <h_i; C h_j> over all j at once: a row sum of the stacked
    # columns takes the same pairwise order as each scalar sum would
    C = np.stack([apply_op(h.values, g) for h in h_list])
    G = np.array([np.sum(hi.values * C, axis=1) * g.dt for hi in h_list])
    return 0.5 * (G + G.T)  # kernel symmetry, up to roundoff


def cov_u_gram(h_list: list[TestFunction]) -> np.ndarray:
    """Gram matrix <h_i; C1 h_j> by exact-cell double quadrature."""
    return _gram(h_list, cov_u_apply)


def cov_v_gram(h_list: list[TestFunction]) -> np.ndarray:
    """Gram matrix <h_i; C2 h_j>; the |t-t'|^(-1/2) diagonal is integrated
    exactly per cell.  Raises if the result is not PSD after jitter."""
    G = _gram(h_list, cov_v_apply)
    jit = _jitter(G)
    evals = np.linalg.eigvalsh(G + jit * np.eye(len(G)))
    if evals.min() < -jit:
        raise ArithmeticError(
            f"cov_v Gram not PSD after jitter: min eigenvalue {evals.min():.3e}")
    return G


def _jitter(G: np.ndarray) -> float:
    """The standard trace-scaled jitter GRAM_JITTER tr(G) / m of an m x m G."""
    return GRAM_JITTER * np.trace(G) / len(G)


def gram_cholesky(G: np.ndarray) -> np.ndarray:
    """Cholesky factor after the standard trace-scaled jitter."""
    return np.linalg.cholesky(G + _jitter(G) * np.eye(len(G)))


# ----------------------------------------------------------------------
# Brownian sheet

def check_sheet_cells(ncells: int, what: str = "sheet"):
    """Raise ResourceError for an array (a sheet by default) of more float64
    cells than the in-memory cell budget."""
    if ncells > MAX_SHEET_CELLS:
        raise ResourceError(
            f"{what} of {ncells} cells exceeds budget {MAX_SHEET_CELLS}")


@dataclass(frozen=True)
class SheetLattice:
    """The cells of a sheet on [y_min, y_max] x [0, s_max]: ny rows of
    height dy, ns columns of width ds, centers y_min + (j + 1/2) dy and
    (k + 1/2) ds.  A lattice over the cell budget cannot be built."""

    y_min: float
    dy: float
    ds: float
    ny: int
    ns: int

    def __post_init__(self):
        if not (0 < self.dy < math.inf and 0 < self.ds < math.inf):
            raise ValueError(f"dy and ds must be finite and positive, got "
                             f"{self.dy} and {self.ds}")
        if self.ny < 1 or self.ns < 1:
            raise ValueError(
                f"empty sheet lattice ({self.ny} x {self.ns} cells)")
        check_sheet_cells(self.cells)

    @property
    def y_max(self) -> float:
        return self.y_min + self.ny * self.dy

    @property
    def s_max(self) -> float:
        return self.ns * self.ds

    @property
    def cells(self) -> int:
        return self.ny * self.ns

    @property
    def scale(self) -> float:
        """Standard deviation sqrt(dy ds) of one cell increment."""
        return math.sqrt(self.dy * self.ds)

    @property
    def y_nodes(self) -> np.ndarray:
        return self.y_min + (np.arange(self.ny) + 0.5) * self.dy

    @property
    def s_nodes(self) -> np.ndarray:
        return (np.arange(self.ns) + 0.5) * self.ds


@dataclass(frozen=True, eq=False)
class SheetSample:
    """One realization of sheet increments on a lattice.

    increments[j, k] is the integral of B(dy, ds) over cell (j, k): i.i.d.
    centered Gaussians with variance dy * ds.
    """

    lattice: SheetLattice
    increments: np.ndarray = field(repr=False)

    def __post_init__(self):
        lat = self.lattice
        if self.increments.shape != (lat.ny, lat.ns):
            raise ValueError(f"increments of shape {self.increments.shape} "
                             f"on a {lat.ny} x {lat.ns} lattice")

    @property
    def cells(self) -> int:
        return self.increments.size


def sheet_rng(seed: int, stream: int) -> np.random.Generator:
    """The deterministic generator owned by (seed, stream): SFC64 seeded by
    SeedSequence(entropy=seed, spawn_key=(stream,)).  SFC64 is the
    cheapest of numpy's bit generators per normal."""
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream,))))


def sheet_sample(lattice: SheetLattice, seed: int,
                 stream: int = 0) -> SheetSample:
    """Sample sheet increments; a pure function of (seed, stream)."""
    inc = sheet_rng(seed, stream).standard_normal((lattice.ny, lattice.ns))
    inc *= lattice.scale
    return SheetSample(lattice=lattice, increments=inc)


def coverage_halfwidth(t_hi: float) -> float:
    """Half-width sqrt(4 t ln(1/TAIL_TOL)) of the kernel's effective
    support."""
    return math.sqrt(4.0 * t_hi * math.log(1.0 / TAIL_TOL))


# ----------------------------------------------------------------------
# sheet weights: point evaluation and test-function pairings

def point_weights(y_nodes: np.ndarray, s_nodes: np.ndarray,
                  x: float, t: float) -> np.ndarray:
    """Heat-kernel values g(y, s; x, t) at cell centers (0 for s >= t)."""
    tau = t - s_nodes
    pos = tau > 0
    out = np.zeros((y_nodes.size, s_nodes.size))
    taup = tau[pos]
    out[:, pos] = np.exp(-(x - y_nodes)[:, None] ** 2 / (4.0 * taup[None, :])) \
        / np.sqrt(4.0 * np.pi * taup[None, :])
    return out


def _distances(x: float, y_nodes: np.ndarray) -> tuple:
    """(ad, inv, sgn): the distinct |x - y| of the nodes, ascending, the
    index into ad of each node's distance, and sign(x - y) per node."""
    d = x - y_nodes
    ad, inv = np.unique(np.abs(d), return_inverse=True)
    return ad, inv, np.sign(d)


def _row_blocks(s_nodes: np.ndarray, t_hi: float, per_row: int) -> list:
    """The indices of the live s-rows (s < t_hi), in order, as blocks of at
    most PAIR_BLOCK_ENTRIES // per_row rows (at least one row each)."""
    live = np.flatnonzero(s_nodes < t_hi)
    size = max(1, PAIR_BLOCK_ENTRIES // max(per_row, 1))
    return [live[i:i + size] for i in range(0, live.size, size)]


def _block_values(h, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """h on the quadrature nodes t of a block of s-rows, row r's nodes
    t[r] all at or after s[r]: a TestFunction is 0 on the rows that start
    after its support ends, and those rows are not evaluated."""
    if not isinstance(h, TestFunction):
        return np.asarray(h(t), dtype=float)
    on = s < h.support[1]
    if on.all():
        return np.asarray(h(t), dtype=float)
    out = np.zeros(t.shape)
    if on.any():
        out[on] = h(t[on])
    return out


def pair_u_weights(y_nodes: np.ndarray, s_nodes: np.ndarray, x: float,
                   hs, t_hi: float, nw: int = PAIR_NODES) -> np.ndarray:
    """Per-cell weights int_s^{t_hi} g(y,s;x,t) h(t) dt of every h in hs,
    stacked as (len(hs), ny, ns).

    The substitution w = sqrt(t - s) removes the kernel's 1/sqrt
    singularity; the integrand is then smooth and a fixed Gauss-Legendre
    rule per s-row suffices.  Each h is any callable on [0, t_hi].  A
    weight depends on y only through |x - y|, so it is built once per
    distinct distance and gathered back onto the nodes.  The live s-rows
    go in blocks (_row_blocks) whose (row, distance, node) kernel table is
    built once for all h; each h is evaluated once per block.  The node
    sum of each weight is an einsum over the last axis, whose order does
    not depend on the other rows or distances in the call, so a build on
    any subset of the nodes or s-rows is that slice of the full build.
    """
    xg, wg = unit_rule(nw)
    ad, inv, _ = _distances(x, y_nodes)
    d2 = ad ** 2
    out = np.zeros((len(hs), ad.size, s_nodes.size))
    for rows in _row_blocks(s_nodes, t_hi, ad.size * nw):
        s = s_nodes[rows]
        wmax = np.sqrt(t_hi - s)
        w = wmax[:, None] * xg
        ww = ((2.0 / SQRT4PI) * wmax)[:, None] * wg
        E = np.exp(-d2[None, :, None] / (4.0 * w[:, None, :] ** 2))
        t = s[:, None] + w * w
        for i, h in enumerate(hs):
            Hw = _block_values(h, t, s) * ww
            out[i][:, rows] = np.einsum("rdk,rk->dr", E, Hw)
    return out[:, inv]


def pair_v_weights(y_nodes: np.ndarray, s_nodes: np.ndarray, x: float,
                   hs, t_hi: float, nv: int = PAIR_NODES) -> np.ndarray:
    """Per-cell weights int_s^{t_hi} (dg/dx)(y,s;x,t) h(t) dt of every h in
    hs, stacked as (len(hs), ny, ns).

    With d = x - y and v = |d| / (2 sqrt(t - s)) the integral becomes
    -sgn(d) (2/sqrt(4 pi)) int e^(-v^2) h(s + d^2/(4 v^2)) dv from
    v_min = |d|/(2 sqrt(t_hi - s)) upward; e^(-v^2) kills everything
    beyond PAIR_V_CUT.  The integral depends on y only through |d|, so it
    is built once per distinct distance, gathered back onto the nodes and
    multiplied by sgn(d), exactly; rows with d = 0 vanish.  The live
    s-rows go in blocks (_row_blocks) whose (row, distance, node) tables
    of nodes and of Jacobian times e^(-v^2), zero past t_hi, are built
    once for all h; each h is evaluated once per block.  The node sum of
    each weight is an einsum over the last axis, whose order does not
    depend on the other rows or distances in the call, so a build on any
    subset of the nodes or s-rows is that slice of the full build.
    """
    xg, wg = unit_rule(nv)
    ad, inv, sgn = _distances(x, y_nodes)
    out = np.zeros((len(hs), ad.size, s_nodes.size))
    for rows in _row_blocks(s_nodes, t_hi, ad.size * nv):
        s = s_nodes[rows]
        vmin = ad / (2.0 * np.sqrt(t_hi - s))[:, None]
        span = (np.maximum(PAIR_V_CUT, vmin) - vmin)[:, :, None]
        v = vmin[:, :, None] + span * xg
        ej = np.exp(-v * v) * (span * wg)
        with np.errstate(divide="ignore", invalid="ignore"):
            tt = s[:, None, None] + ad[:, None] ** 2 / (4.0 * v * v)
        tt[:, ad == 0.0] = s[:, None, None]  # zeroed by sgn(d) anyway
        ej[tt > t_hi] = 0.0  # the integral ends at t_hi
        np.minimum(tt, t_hi, out=tt)
        for i, h in enumerate(hs):
            out[i][:, rows] = -(2.0 / SQRT4PI) * np.einsum(
                "rdk,rdk->dr", ej, _block_values(h, tt, s))
    out = out[:, inv]
    out *= sgn[:, None]
    return out


# ----------------------------------------------------------------------
# boundary-drift functionals

def exp_tails(d, s, nu: float, T: float) -> tuple:
    """The pair int_T^inf g(d; t - s) e^(-nu t) dt and int_T^inf (dg/dx)(d;
    t - s) e^(-nu t) dt (d = x - y') in closed erfc form, sharing their two
    erfc terms; the Gaussian boundary terms of the differentiation cancel
    exactly, so the second is pure erfc terms too."""
    a = T - s
    ad = np.abs(d)
    sr = math.sqrt(nu)
    ra = np.sqrt(a)
    up = sr * ra + ad / (2.0 * ra)
    um = sr * ra - ad / (2.0 * ra)
    plus = np.exp(sr * ad) * erfc(up)
    minus = np.exp(-sr * ad) * erfc(um)
    decay = np.exp(-nu * s)
    return (decay / (4.0 * sr) * (plus + minus),
            decay * np.sign(d) * 0.25 * (plus - minus))


def drift_field_weights(y_nodes: np.ndarray, s_nodes: np.ndarray, y: float,
                        nu: float, T: float,
                        nw: int = PAIR_NODES) -> np.ndarray:
    """Cell weights of U(y, sqrt(nu) e^(-nu .)) + d/dx U(y, e^(-nu .)), both
    pairings on nw quadrature nodes.

    The exponentials are not compactly supported, so the grid part on
    [0, T] is completed with the analytic erfc tails beyond T.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    hu = lambda t: math.sqrt(nu) * np.exp(-nu * t)
    hv = lambda t: np.exp(-nu * t)
    W = pair_u_weights(y_nodes, s_nodes, y, [hu], T, nw=nw)[0]
    W += pair_v_weights(y_nodes, s_nodes, y, [hv], T, nv=nw)[0]
    ad, inv, sgn = _distances(y, y_nodes)
    tail_u, tail_v = exp_tails(ad[:, None], s_nodes[None, :], nu, T)
    W += math.sqrt(nu) * tail_u[inv]
    W += sgn[:, None] * tail_v[inv]
    return W


def drift_integral_weights(y_nodes: np.ndarray, s_nodes: np.ndarray, y: float,
                           nu: float) -> np.ndarray:
    """Cell weights of the explicit boundary integral: e^(-nu s') e^(-sqrt(nu)(y'-y))
    over the quadrant y' > y, sampled at cell centers."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    d = y_nodes - y
    out = np.exp(-nu * s_nodes)[None, :] * \
        np.exp(-math.sqrt(nu) * np.maximum(d, 0.0))[:, None]
    out[d < 0, :] = 0.0
    return out


def drift_variance_exact(nu: float) -> float:
    """Var of the drift functional: (1/(2 nu)) * (1/(2 sqrt(nu))).

    This is the elementary double integral of e^(-2 nu s') e^(-2 sqrt(nu) u)
    over s' > 0, u > 0.
    """
    return 1.0 / (4.0 * nu ** 1.5)


# ----------------------------------------------------------------------
# Laplace-domain identity for the shifted covariance

def _cm_lower_triangle(nu_t: float, nu_tp: float, gap: float, level: int) -> float:
    # integral over t > t' > 0 of e^(-nu_t t - nu_tp t') K(t, t') where
    # K(t,t') = int_0^{t'} erfc(gap sqrt((a+b)/(4ab)))/(4 sqrt(pi (a+b))) ds',
    # a = t - s', b = t' - s'.  Substitutions: the inner integral uses
    # w^2 = a + b (exact for gap = 0, erfc-flat endpoint otherwise); the
    # triangle maps t = xi, t' = xi (1 - rho^2); xi runs through a rational
    # map of (0, 1).  All integrands are then smooth, so Gauss-Legendre
    # converges spectrally in the level.
    xw, ww = unit_rule(16 * 2 ** level)
    L = 2.0 / nu_t
    u = xw / (1.0 - xw)
    xi = L * u * u
    jxi = L * 2.0 * u / (1.0 - xw) ** 2
    XI = xi[:, None]
    R = xw[None, :]
    TP = XI * (1.0 - R * R)
    wlo = np.sqrt(XI) * R
    whi = np.sqrt(XI * (2.0 - R * R))
    if gap == 0.0:
        K = (whi - wlo) / (4.0 * SQRTPI)
    else:
        WQ = wlo[:, :, None] + (whi - wlo)[:, :, None] * xw[None, None, :]
        ab4 = np.maximum(WQ ** 4 - (XI * R * R)[:, :, None] ** 2, 0.0)
        arg = np.full_like(WQ, np.inf)
        nz = ab4 > 0
        arg[nz] = gap * WQ[nz] / np.sqrt(ab4[nz])
        K = (whi - wlo) / (4.0 * SQRTPI) * np.einsum(
            "ijk,k->ij", erfc(arg), ww)
    F = np.exp(-nu_t * XI - nu_tp * TP) * K * XI * 2.0 * R
    return float(np.einsum("ij,i,j->", F, jxi * ww, ww))


def cameron_martin_laplace(nu: float, nu2: float, y_gap: float) -> float:
    """Double Laplace transform of the half-plane covariance kernel applied
    to e^(-nu .), evaluated at nu2, by triangle-split quadrature at
    CM_LEVEL."""
    if nu <= 0 or nu2 <= 0:
        raise ValueError("decay rates must be positive")
    if y_gap < 0:
        raise ValueError("y_gap must be nonnegative")
    return _cm_lower_triangle(nu2, nu, y_gap, CM_LEVEL) \
        + _cm_lower_triangle(nu, nu2, y_gap, CM_LEVEL)


def cameron_martin_target(nu: float, nu2: float, y_gap: float) -> float:
    """Closed form g_hat(nu2) g_hat(nu) / ((sqrt(nu2)+sqrt(nu)) (nu2+nu))."""
    return laplace_g(y_gap, nu) * laplace_g(y_gap, nu2) \
        / ((math.sqrt(nu) + math.sqrt(nu2)) * (nu + nu2))


# ----------------------------------------------------------------------
# weak-form residual

@dataclass(frozen=True)
class TensorTestFunction:
    """Space-time test function f(x,t) = fx(x) ft(t): fx the bump_profile of
    center x_center and radius x_radius on the x axis, ft a time bump; the
    canonical two-variable element of the weak formulation."""

    x_center: float
    x_radius: float
    ft: TestFunction

    def __post_init__(self):
        if not self.x_radius > 0.0:
            raise ValueError("x_radius must be positive")

    @property
    def x_support(self) -> tuple[float, float]:
        return self.x_center - self.x_radius, self.x_center + self.x_radius

    def l2sq(self) -> float:
        """||f||^2 over the quadrant: the product of the two factors' 1-D
        norms, each by the L2SQ_NODES-node unit_rule over its support."""
        xg, wg = unit_rule(L2SQ_NODES)
        fx = lambda x: bump_profile(x, self.x_center, self.x_radius)
        out = 1.0
        for f, (lo, hi) in ((fx, self.x_support), (self.ft, self.ft.support)):
            fv = f(lo + (hi - lo) * xg)
            out *= float(np.sum(fv * fv * wg) * (hi - lo))
        return out


def _x_nodes(f: TensorTestFunction, x_res: int) -> tuple:
    """Cell-centered x tabulation over the support of f, x_res cells per
    radius of its space bump; returns (nodes, dx)."""
    xlo, xhi = f.x_support
    dx = f.x_radius / x_res
    nx = int(math.ceil((xhi - xlo) / dx - 1e-9))
    return xlo + (np.arange(nx) + 0.5) * dx, dx


def weakform_geometry(f: TensorTestFunction,
                      x_res: int = WEAKFORM_X_RES) -> tuple:
    """The WeakformPlan of f before it is built: (x nodes, dx, lattice).

    Raises ResourceError, before anything is built, when the sheet or the
    plan's largest tables are over the cell budget: the complex Khat and
    Bhat it holds at once, 2 nt + 1 time frequencies by next_fast_len(ny +
    2 nx - 2) distances each, two float64 cells per entry.
    """
    x, dx = _x_nodes(f, x_res)
    nx = x.size
    g = f.ft.grid
    # half-offset lattice dy = dx / 2, ds = dt / 2; the pad is snapped to
    # whole cells so every distance x_i - y_c lands exactly on dy (q + 1/2)
    dy = dx / 2.0
    pad_cells = int(math.ceil(WEAKFORM_YPAD / dy))
    lat = SheetLattice(f.x_support[0] - pad_cells * dy, dy, g.dt / 2.0,
                       2 * nx + 2 * pad_cells, 2 * g.n)
    check_sheet_cells(2 * (2 * g.n + 1) * next_fast_len(lat.ny + 2 * nx - 2),
                      "kernel table")
    return x, dx, lat


def _bracket(f: TensorTestFunction, x: np.ndarray) -> np.ndarray:
    """A = dxx f + halflap_t f^a - sqrt(2) dx quarterlap_t f^a on the x
    nodes times the time grid of f; shape (x.size, n)."""
    ft = f.ft
    plan = SpectralPlan(ft.grid)
    L1 = frac_laplacian(ft.values, 1.0, plan)
    L12 = frac_laplacian(ft.values, 0.5, plan)
    fx = lambda order: bump_profile(x, f.x_center, f.x_radius, order)[:, None]
    A = fx(2) * ft.values[None, :]
    A += fx(0) * L1[None, :]
    A -= math.sqrt(2.0) * fx(1) * L12[None, :]
    return A


@dataclass(eq=False)
class WeakformPlan:
    """Precomputed sheet-cell weights omega for the residual functional.

    eta(f) = sum_cells omega * dB reproduces, by exact reordering, the
    double sum over the (x, t) tabulation grid of U(x,t) A(x,t) dx dt with

        A = dxx f + halflap_t f^a - sqrt(2) dx quarterlap_t f^a

    and U tabulated from the heat-kernel representation on the same sheet.
    Half-offset lattices (dy = dx/2, ds = dt/2) keep every kernel
    evaluation away from the t = s singularity.
    """

    f: TensorTestFunction
    x_res: int = WEAKFORM_X_RES
    omega: np.ndarray = field(init=False, repr=False)
    lattice: SheetLattice = field(init=False)
    nx: int = field(init=False)
    dx: float = field(init=False)

    def __post_init__(self):
        f = self.f
        nt = f.ft.grid.n
        dt = f.ft.grid.dt
        x, dx, lat = weakform_geometry(f, self.x_res)
        nx = x.size
        dy, ds, ny, ns = lat.dy, lat.ds, lat.ny, lat.ns
        A = _bracket(f, x)
        # distance lattice: x_i - y_c = dy (q + 1/2), q = Q0 + 2i - c
        Q0 = int(round((f.x_support[0] - lat.y_min) / dy))
        qmin = Q0 - (ny - 1)
        qmax = Q0 + 2 * (nx - 1)
        dist = dy * (np.arange(qmin, qmax + 1) + 0.5)
        um = (np.arange(2 * nt) + 0.5) * ds  # half-integer lags m = 2j - k
        # tables run time lag (or frequency) by distance, so that every
        # transform writes into a table slice or runs in place along rows
        Ktab = np.exp(-dist[None, :] ** 2 / (4.0 * um[:, None])) \
            / np.sqrt(4.0 * np.pi * um[:, None])
        NF = 4 * nt
        Khat = np.zeros((NF // 2 + 1, next_fast_len(dist.size)), dtype=complex)
        np.fft.rfft(Ktab, n=NF, axis=0, out=Khat[:, :dist.size])
        del Ktab
        Bt = np.zeros((NF, nx))
        Bt[0:2 * nt:2] = (A * dx * dt).T
        Bhat = np.zeros_like(Khat)  # the bracket, upsampled 2x in distance
        np.fft.rfft(Bt, axis=0, out=Bhat[:, 0:2 * nx:2])
        # Ohat[c] = sum_i conj(Khat[ny - 1 - c + 2i]) Bhat[2i] = conj(C[ny - 1
        # - c]) with C[d] = sum_p Khat[d + p] conj(Bhat[p]), one correlation
        # by FFT along distance; its lags d + p < dist.size do not wrap
        np.fft.fft(Khat, axis=1, out=Khat)
        np.fft.fft(Bhat, axis=1, out=Bhat)
        Khat *= np.conjugate(Bhat, out=Bhat)
        del Bhat
        np.fft.ifft(Khat, axis=1, out=Khat)
        np.conjugate(Khat, out=Khat)
        om = np.fft.irfft(Khat[:, ny - 1::-1], n=NF, axis=0)
        del Khat
        self.omega = np.ascontiguousarray(om[:ns].T)
        self.lattice, self.nx, self.dx = lat, nx, dx

    def residual(self, sheet: SheetSample) -> float:
        if sheet.lattice != self.lattice:
            raise ValueError("sheet lattice does not match the plan")
        return float(np.sum(self.omega * sheet.increments))

    def variance_discrete(self) -> float:
        lat = self.lattice
        return float(np.sum(self.omega ** 2) * lat.dy * lat.ds)


def weakform_residual_reference(sheet: SheetSample,
                                plan: WeakformPlan) -> float:
    """Literal tabulation path on plan's f and x nodes, never its omega:
    U(x_i, t_j) from the sheet's own lattice (point_weights) summed against
    the bracket.  Quadratically more work than the plan path; kept as the
    oracle that the reordering is exact.  Use small grids.
    """
    f, g = plan.f, plan.f.ft.grid
    x, dx = _x_nodes(f, plan.x_res)
    A = _bracket(f, x)
    yn, sn = sheet.lattice.y_nodes, sheet.lattice.s_nodes
    eta = 0.0
    for i in range(x.size):
        for j, t in enumerate(g.nodes):
            w = point_weights(yn, sn, x[i], t)
            eta += float(np.sum(w * sheet.increments)) * A[i, j] * dx * g.dt
    return eta
