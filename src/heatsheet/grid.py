"""Discretization primitives: cell-centered time grids, the antisymmetric
extension of grid values, and the smooth compactly supported bump.

All downstream operators evaluate singular kernels at cell centers only, so
the grids deliberately place no node at t = 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform cell-centered grid on [0, t_max].

    Nodes sit at t_k = (k + 1/2) dt for k = 0..n-1, strictly inside
    (0, t_max).  n must be a power of two so the spectral operators
    downstream can use radix-2 transforms.
    """

    t_max: float
    n: int

    def __post_init__(self):
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if not _is_pow2(self.n):
            raise ValueError("n must be a power of two")

    @property
    def dt(self) -> float:
        return self.t_max / self.n

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.dt


def antisym_extend(f: np.ndarray) -> np.ndarray:
    """Odd reflection of grid values: returns f^a with f^a(-t) = -f(t).

    The (virtual) origin value is 0 by antisymmetry; it is not a node.
    Restricting the result back to the positive half recovers f exactly.
    """
    f = np.asarray(f)
    return np.concatenate([-f[..., ::-1], f], axis=-1)


def bump_profile(x, center: float, radius: float,
                 order: int = 0) -> np.ndarray:
    """The bump exp(-1 / (1 - u^2)), u = (x - c)/r, inside |u| < 1 and 0
    outside (order 0), or its first or second derivative in x (order 1, 2).

    With phi the bump and mu = -2u / (1 - u^2)^2 the log-derivative in u,
    phi' = phi mu / r and phi'' = phi (mu^2 + mu') / r^2.  All derivatives
    vanish at |u| = 1, so the bump is C-infinity in exact arithmetic.
    """
    x = np.asarray(x, dtype=float)
    u = (x - center) / radius
    out = np.zeros_like(x)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    one = 1.0 - ui * ui
    phi = np.exp(-1.0 / one)
    if order == 0:
        out[inside] = phi
    elif order == 1:
        out[inside] = phi * (-2.0 * ui) / (radius * (one * one))
    else:
        mu = -2.0 * ui / (one * one)
        dmu = (-2.0 - 6.0 * ui * ui) / (one * one * one)
        out[inside] = phi * (mu * mu + dmu) / (radius * radius)
    return out


@dataclass(frozen=True)
class TestFunction:
    """The bump_profile on the time axis, sampled on a TimeGrid.

    Support [c - r, c + r] must sit strictly inside (0, t_max).
    """

    center: float
    radius: float
    grid: TimeGrid

    def __post_init__(self):
        if not (0.0 < self.center - self.radius
                and self.center + self.radius < self.grid.t_max):
            raise ValueError(
                "bump support [c-r, c+r] must lie strictly inside (0, t_max)")

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.radius, self.center + self.radius)

    def __call__(self, t) -> np.ndarray:
        return bump_profile(t, self.center, self.radius)

    def deriv(self, t) -> np.ndarray:
        return bump_profile(t, self.center, self.radius, 1)

    def deriv2(self, t) -> np.ndarray:
        return bump_profile(t, self.center, self.radius, 2)

    @functools.cached_property
    def values(self) -> np.ndarray:
        """Samples on the grid nodes, taken through __call__ once."""
        return self(self.grid.nodes)

    @functools.cached_property
    def deriv_values(self) -> np.ndarray:
        return self.deriv(self.grid.nodes)

    @property
    def sup_norm(self) -> float:
        # exact peak value: h(c) = 1 / e
        return 1.0 / np.e
