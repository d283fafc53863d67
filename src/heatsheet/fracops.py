"""Abel-type integral operators and spectral fractional Laplacians.

Two operator families live here.  The convolution family (op_A2,
halfroot_conv, op_A1) integrates singular kernels exactly over each grid
cell using the kernel antiderivative, never by sampling 1/sqrt at nodes:
the kernels are integrable but unbounded, and node sampling diverges.  The
spectral family (frac_laplacian) multiplies by |tau|^beta on the sine
transform of the zero-padded antisymmetric extension, which serves as an
independent oracle for the convolution family.

Upper limits at infinity are truncated at t_max with analytic tail models;
callers must state how their function decays beyond the grid.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dst, idst, irfft, next_fast_len, rfft
from scipy.special import erfc

from .grid import TimeGrid, TestFunction, antisym_extend
from .kernels import SQRTPI, SQRT4PI, unit_rule

# Decay exponent of op_A2 output beyond the support of a compactly
# supported input.  The odd extension has zero total mass, so the generic
# t^(-3/2) envelope of the kernel gains one extra power from the first
# moment; the far field is -(3/(2 sqrt(pi))) t^(-5/2) int t' h(t') dt'.
A2_TAIL_POWER = 2.5

# Node count for the Gauss-Legendre evaluation of power-law tail integrals.
TAIL_NODES = 200

BOUNDARY_WARN_FACTOR = 1e-6


@dataclass
class SpectralPlan:
    """Sine-transform workspace for the odd extensions of TimeGrid values.

    An even multiplier applied to an odd sequence is diagonal in the sine
    basis, so forward takes the half-line values f (..., n) of f^a and
    returns the DST-II of f zero-padded to padded_len // 2.  Its bin k has
    the magnitude of bin k + 1 of the complex transform of the 2n values of
    f^a on [-t_max, t_max] zero-padded to padded_len = pad 2n, whose bin 0
    vanishes.  pad >= 2 guarantees linear (not circular) convolution
    semantics for inputs that decay at t_max.  Multipliers are cached per
    beta.
    """

    grid: TimeGrid
    pad: int = 2
    _mult: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.pad < 2:
            raise ValueError("zero-padding factor must be >= 2")

    @property
    def padded_len(self) -> int:
        return self.pad * 2 * self.grid.n

    @functools.cached_property
    def tau(self) -> np.ndarray:
        """Angular frequency of each sine bin: 2 pi k / (padded_len dt),
        k = 1..padded_len/2."""
        N = self.padded_len
        return 2.0 * np.pi * (
            np.arange(1, N // 2 + 1) * (1.0 / (N * self.grid.dt)))

    def multiplier(self, beta: float) -> np.ndarray:
        if beta not in self._mult:
            self._mult[beta] = self.tau ** beta
        return self._mult[beta]

    def forward(self, f: np.ndarray) -> np.ndarray:
        """Sine spectrum (..., padded_len/2) of half-line values (..., n)."""
        if f.shape[-1] != self.grid.n:
            raise ValueError("input not on the plan's TimeGrid")
        return dst(f, type=2, n=self.padded_len // 2, axis=-1)

    def inverse(self, spec: np.ndarray) -> np.ndarray:
        """Inverse of forward, restricted to the half line: (..., n)."""
        return idst(spec, type=2, axis=-1)[..., :self.grid.n]


def frac_laplacian(fa: np.ndarray, beta: float,
                   plan: SpectralPlan) -> np.ndarray:
    """Fractional Laplacian with Fourier multiplier |tau|^beta, applied to
    the odd extension f^a and returned on the half line.

    fa holds f^a by its half-line values, shape (..., n) for batched input;
    the output has the same shape.  f^a has zero mean, so the multiplier
    never meets tau = 0.  Input that does not vanish at t_max draws a
    warning; t = 0 is interior to f^a.
    """
    fa = np.asarray(fa, dtype=float)
    norms = np.max(np.abs(fa), axis=-1)
    if np.any(np.abs(fa[..., -1])
              > BOUNDARY_WARN_FACTOR * np.maximum(norms, 1e-300)):
        warnings.warn("frac_laplacian input does not decay at t_max; "
                      "wrap-around error is no longer negligible",
                      RuntimeWarning, stacklevel=2)
    return plan.inverse(plan.forward(fa) * plan.multiplier(beta))


def _fftconv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real 1-D arrays by real FFTs."""
    n = a.size + b.size - 1
    L = next_fast_len(n, real=True)
    return irfft(rfft(a, L) * rfft(b, L), L)[:n]


def cell_conv(fs: np.ndarray, dt: float, antideriv) -> np.ndarray:
    """Convolve the 2n values fs of an extension over [-t_max, t_max] with a
    singular kernel given by its antiderivative, and return the positive
    half (length n).

    The kernel is integrated exactly over the cell at each lag k dt,
    k = -(2n-1)..(2n-1), so it is never sampled at its singularity.
    """
    n = fs.shape[-1] // 2
    k = np.arange(-(2 * n - 1), 2 * n)
    w = antideriv(k * dt + 0.5 * dt) - antideriv(k * dt - 0.5 * dt)
    return _fftconv(fs, w)[2 * n - 1: 4 * n - 1][n:]


def op_A2(h: TestFunction) -> np.ndarray:
    """Second Abel operator: [sgn(.)/sqrt(pi |.|) * (h^a)'] on [0, t_max].

    The derivative of the odd extension is the even extension of h', taken
    from the closed form; the singular kernel is integrated exactly over
    each cell.  The result restricted to the positive half determines the
    whole (odd) output.
    """
    hd = h.deriv_values
    hd_sym = np.concatenate([hd[::-1], hd])  # (h^a)' is even
    # kernel sgn(u)/sqrt(pi |u|); antiderivative (2/sqrt(pi)) sqrt(|u|)
    return cell_conv(hd_sym, h.grid.dt,
                     lambda u: (2.0 / SQRTPI) * np.sqrt(np.abs(u)))


def _tail_sum(g, T: float, t: np.ndarray) -> np.ndarray:
    """int_T^inf g(t') / sqrt(t' - t_i) dt' at every t_i < T, on the
    TAIL_NODES-node unit_rule v mapped to t' = T + (v / (1 - v))^2; callers
    take the mirror tail over (-inf, -T) as the same sum at -t_i, since
    sqrt(t' + t) = sqrt(t' - (-t))."""
    v, wv = unit_rule(TAIL_NODES)
    w = v / (1.0 - v)
    wq = wv * (2.0 * w / (1.0 - v) ** 2)  # dt' = 2 w dw, dw = dv / (1-v)^2
    tp = T + w * w
    return ((g(tp) * wq)[None, :] / np.sqrt(tp[None, :] - t[:, None])).sum(axis=1)


def halfroot_conv(f: np.ndarray, grid: TimeGrid,
                  tail: tuple | None = None) -> np.ndarray:
    """Convolution with (4 pi |.|)^(-1/2) against the odd extension of f.

    tail, when given, is ("power", p): beyond t_max the integrand is modeled
    as f(T) (t/T)^(-p) (odd in t), and the missing pieces on (T, inf) and
    (-inf, -T) are added by quadrature.  Omitting the tail is fine for
    inputs that vanish at the far end of the grid.
    """
    f = np.asarray(f, dtype=float)
    n = grid.n
    if f.shape != (n,):
        raise ValueError("halfroot_conv: values not on the given grid")
    # kernel (4 pi |u|)^(-1/2); antiderivative sgn(u) sqrt(|u|) / sqrt(pi)
    out = cell_conv(antisym_extend(f), grid.dt,
                    lambda u: np.sign(u) * np.sqrt(np.abs(u)) / SQRTPI)
    if tail is not None:
        kind, p = tail[0], float(tail[1])
        if kind != "power":
            raise ValueError("halfroot_conv tail model must be ('power', p)")
        t = grid.nodes
        T = t[-1]
        C = f[-1] * T ** p
        g = lambda tp: C * tp ** (-p) / SQRT4PI
        #  (T, inf) adds, and its odd mirror (-inf, -T) subtracts
        out += _tail_sum(g, T, t) - _tail_sum(g, T, -t)
    return out


def op_A1(f: np.ndarray, grid: TimeGrid, tail: tuple) -> np.ndarray:
    """First Abel operator: int_t^inf (-f'(t')) / sqrt(pi (t'-t)) dt'.

    The grid part treats f as piecewise linear between nodes (exact-cell
    Abel quadrature on the slopes); the part beyond the last node uses the
    stated tail model:

      ("exp", nu)   f(t) ~ f(T) e^(-nu (t-T)),  closed erfc form
      ("power", p)  f(t) ~ f(T) (t/T)^(-p),     Gauss-Legendre on (T, inf)

    A tail model is required; the integral genuinely runs to infinity.
    """
    f = np.asarray(f, dtype=float)
    n = grid.n
    if f.shape != (n,):
        raise ValueError("op_A1: values not on the given grid")
    if tail is None or not isinstance(tail, tuple) or len(tail) == 0:
        raise ValueError(
            "op_A1 needs a tail decay model ('exp', nu) or ('power', p)")
    dt = grid.dt
    t = grid.nodes
    slopes = np.diff(f) / dt
    k = np.arange(n)
    seg = (2.0 / SQRTPI) * (np.sqrt((k + 1) * dt) - np.sqrt(k * dt))
    corr = _fftconv(-slopes, seg[::-1])
    out = np.zeros(n)
    out[: n - 1] = corr[n - 1: 2 * n - 2]

    kind = tail[0]
    T = t[-1]
    fT = f[-1]
    if kind == "exp":
        nu = float(tail[1])
        if nu <= 0:
            raise ValueError("exp tail needs nu > 0")
        a = T - t
        out += np.sqrt(nu) * fT * np.exp(nu * a) * erfc(np.sqrt(nu * a))
    elif kind == "power":
        p = float(tail[1])
        if p <= 0.5:
            raise ValueError("power tail needs p > 1/2 for convergence")
        C = fT * T ** p
        out += _tail_sum(lambda tp: p * C * tp ** (-p - 1.0) / SQRTPI, T, t)
    else:
        raise ValueError(f"unknown tail model {kind!r}")
    return out


def a1_a2_residual(h: TestFunction, plan: SpectralPlan) -> float:
    """Max-abs residual of the composition identity

        op_A1(op_A2 h) = -h' + frac_laplacian(h^a, 1)

    restricted to [0, t_max]."""
    g = h.grid
    a2 = op_A2(h)
    a1a2 = op_A1(a2, g, tail=("power", A2_TAIL_POWER))
    lhs_minus = frac_laplacian(h.values, 1.0, plan)
    return float(np.max(np.abs(a1a2 + h.deriv_values - lhs_minus)))

