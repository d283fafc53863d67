"""Closed-form kernels for the half-plane heat field.

Everything here is a pure function of its arguments: the time-Laplace
transform of the heat kernel started on a vertical line, and the slowly
decaying comparison function l_nu that arises when a half-root convolution
hits a decaying exponential, together with its Laplace transform.

l_nu is evaluated from its elementary closed form in the scaled special
functions dawsn and erfcx, which cannot overflow at large nu t.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import dawsn, erfcx, roots_legendre

SQRTPI = math.sqrt(math.pi)
SQRT4PI = math.sqrt(4.0 * math.pi)

# l_nu_laplace: Gauss-Legendre nodes on w in [0, sqrt(LAPLACE_T_CUT)], t = w^2
LAPLACE_NODES = 64
LAPLACE_T_CUT = 60.0


def laplace_g(dist: float, nu: float) -> float:
    """Time-Laplace transform of the kernel pinned on a line at distance dist.

    laplace_g(d, nu) = exp(-sqrt(nu) d) / (2 sqrt(nu)), d >= 0.
    """
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    if dist < 0.0:
        raise ValueError("dist must be nonnegative")
    rt = np.sqrt(nu)
    return float(np.exp(-rt * dist) / (2.0 * rt))


def l_nu(nu: float, t: float) -> float:
    """The comparison function

        l_nu(t) = sqrt(t)/sqrt(4 pi) * int_0^inf (|1-r|^(-1/2) - (1+r)^(-1/2)) e^(-nu t r) dr
                = (e^(-a) + (2/sqrt(pi)) dawsn(sqrt(a)) - erfcx(sqrt(a))) / (2 sqrt(nu)),

    with a = nu t.  l_nu(0) = 0 exactly, l_nu is continuous and nonnegative,
    and t^(3/2) l_nu(t) stays bounded as t grows.
    """
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    a = nu * t
    ra = math.sqrt(a)
    return float((math.exp(-a) + 2.0 / SQRTPI * dawsn(ra) - erfcx(ra))
                 / (2.0 * math.sqrt(nu)))


def l_nu_laplace(nu: float, nu_tilde: float) -> float:
    """Numerical Laplace transform of l_nu at nu_tilde.

    Used as an oracle: the transform algebra gives the closed form
    1 / ((sqrt(nu_tilde) + sqrt(nu)) (nu_tilde + nu)).  After t = w^2 the
    integrand 2 w e^(-nu_tilde w^2) l_nu(w^2) is entire in w, so one fixed
    Gauss-Legendre rule on [0, sqrt(60)] converges spectrally; the tail past
    t = 60 decays like e^(-nu_tilde t) t^(-3/2) and stays below 1e-26 at
    nu_tilde = 1.
    """
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    if nu_tilde <= 0.0:
        raise ValueError("nu_tilde must be positive")
    xg, wg = roots_legendre(LAPLACE_NODES)
    half = 0.5 * math.sqrt(LAPLACE_T_CUT)
    w = half * (xg + 1.0)
    f = np.array([2.0 * wi * math.exp(-nu_tilde * wi * wi) * l_nu(nu, wi * wi)
                  for wi in w])
    return float(np.sum(f * wg) * half)
