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
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import dawsn, erfcx

SQRTPI = math.sqrt(math.pi)


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


@dataclass(frozen=True)
class LnuSpec:
    """Decay rate of the exponential window in l_nu."""

    nu: float

    def __post_init__(self):
        if self.nu <= 0.0:
            raise ValueError("nu must be positive")


def l_nu(spec: LnuSpec, t: float) -> float:
    """The comparison function

        l_nu(t) = sqrt(t)/sqrt(4 pi) * int_0^inf (|1-r|^(-1/2) - (1+r)^(-1/2)) e^(-nu t r) dr
                = (e^(-a) + (2/sqrt(pi)) dawsn(sqrt(a)) - erfcx(sqrt(a))) / (2 sqrt(nu)),

    with a = nu t.  l_nu(0) = 0 exactly, l_nu is continuous and nonnegative,
    and t^(3/2) l_nu(t) stays bounded as t grows.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    a = spec.nu * t
    ra = math.sqrt(a)
    return float((math.exp(-a) + 2.0 / SQRTPI * dawsn(ra) - erfcx(ra))
                 / (2.0 * math.sqrt(spec.nu)))


def l_nu_laplace(spec: LnuSpec, nu_tilde: float, t_cut: float = 60.0) -> float:
    """Numerical Laplace transform of l_nu at nu_tilde.

    Used as an oracle: the transform algebra gives the closed form
    1 / ((sqrt(nu_tilde) + sqrt(nu)) (nu_tilde + nu)).  The integrand decays
    like e^(-nu_tilde t) t^(-3/2); t_cut = 60 leaves a tail below 1e-26 at
    nu_tilde = 1.
    """
    if nu_tilde <= 0.0:
        raise ValueError("nu_tilde must be positive")
    f = lambda t: np.exp(-nu_tilde * t) * l_nu(spec, t)
    total = 0.0
    for lo, hi in [(0.0, 1.0), (1.0, 5.0), (5.0, 15.0), (15.0, t_cut)]:
        total += quad(f, lo, hi, epsabs=1e-11, epsrel=1e-11, limit=200)[0]
    return total
