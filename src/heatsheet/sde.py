"""Spatial dynamics: an SDE in the location variable z.

The state is a pair of time profiles (u, v) on a TimeGrid.  The location
plays the role usually taken by time: u advances by v, v feels a damped
restoring drift built from fractional operators in t, plus white noise.
evolve steps a (B, n) block of replicas by explicit Euler-Maruyama; see
stability_limit for the step rule and spectral_radius for the exact
amplification factor of the noiseless scheme.
"""

from __future__ import annotations

import io
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid, TestFunction
from .fracops import SpectralPlan
from .gaussfield import (cov_u_gram, cov_v_gram, gram_cholesky,
                         check_sheet_cells)

SQRT2 = math.sqrt(2.0)

# explicit Euler keeps |amplification| < 1 up to dz sqrt(tau_max) < sqrt(2);
# the shipped rule stays an order of magnitude inside that.
STABILITY_FACTOR = 0.1

BASIS_PER_UNIT_T = 5    # stationary basis bumps per unit of t
BASIS_MARGIN = 0.6      # keep bump supports off both t boundaries
BASIS_RADIUS = 0.30


class InstabilityError(ArithmeticError):
    """Non-finite state during stepping; message carries z and the
    noiseless amplification factor of the scheme."""


def stability_limit(grid: TimeGrid) -> float:
    """Largest dz the stepping rule admits on this grid."""
    return STABILITY_FACTOR * math.sqrt(grid.dt)


def spectral_radius(grid: TimeGrid, dz: float) -> float:
    """Exact max amplification of the noiseless Euler map over grid modes.

    Mode tau steps by the 2x2 matrix [[1, dz], [-tau dz, 1 - sqrt(2)
    sqrt(tau) dz]]; its eigenvalues give |lambda|^2 = 1 - sqrt(2) dz
    sqrt(tau) + dz^2 tau, so instability begins at dz sqrt(tau) = sqrt(2).
    That is convex in tau, so its maximum over [0, pi/dt] sits at an end:
    1 at tau = 0, or its value at the Nyquist mode.
    """
    tau_max = math.pi / grid.dt
    nyquist = 1.0 - SQRT2 * dz * math.sqrt(tau_max) + dz * dz * tau_max
    return math.sqrt(max(1.0, nyquist))


@dataclass(frozen=True, eq=False)
class FieldState:
    """State (u, v) of the spatial dynamics at location z.

    u and v are (B, n) for a block of B replicas at a common z, or (n,) for
    one replica: a stationary draw, or one row of a result.  evolve reads
    its start from one and returns its end in one, not its steps.
    """

    u: np.ndarray
    v: np.ndarray
    z: float
    grid: TimeGrid

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.ndim not in (1, 2) or u.shape[-1] != self.grid.n \
                or v.shape != u.shape:
            raise ValueError("state vectors must live on the grid")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @staticmethod
    def stack(states: list) -> "FieldState":
        """One (B, n) block from B single states at a common z."""
        s0 = states[0]
        return FieldState(u=np.stack([s.u for s in states]),
                          v=np.stack([s.v for s in states]),
                          z=s0.z, grid=s0.grid)


def _drift_terms(U: np.ndarray, V: np.ndarray, plan: SpectralPlan) -> np.ndarray:
    """dv/dz = -(halflap u^a + sqrt(2) quarterlap v^a) on t > 0, from the
    sine spectra U, V of u, v: both terms in one inverse transform."""
    # evolving states carry sqrt(t)-growth at t_max by design; the domain
    # margin handles the truncation, so no decay check happens here
    mixed = U * plan.multiplier(1.0)
    mixed += V * (SQRT2 * plan.multiplier(0.5))
    return -plan.inverse(mixed)


def noise_draw(rngs: Sequence[np.random.Generator], grid: TimeGrid,
               dz: float, out: np.ndarray) -> None:
    """One white-in-t Brownian increment per replica, drawn in place into
    the (B, n) block out, row r from rngs[r]: N(0, dz/dt) per cell, so that
    <dW; h> has variance dz ||h||^2 up to grid resolution."""
    for row, rng in zip(out, rngs, strict=True):
        rng.standard_normal(out=row)
    out *= math.sqrt(dz / grid.dt)


# ----------------------------------------------------------------------
# stationary initialization

def stationary_basis(grid: TimeGrid) -> list:
    """Evenly spread bump family used to carry the stationary Gaussian law:
    m = round(5 t_max) bumps.  Before any is built, m > n (a singular Gram)
    raises ValueError and m n values over the cell budget ResourceError."""
    m = int(round(BASIS_PER_UNIT_T * grid.t_max))
    if m > grid.n:
        raise ValueError(
            f"tmax={grid.t_max:g} needs {m:.6g} stationary basis bumps, more "
            f"than the n={grid.n} grid nodes, so their Gram is singular")
    check_sheet_cells(m * grid.n,
                      f"the values of {m} stationary basis bumps")
    centers = np.linspace(BASIS_MARGIN, grid.t_max - BASIS_MARGIN, m)
    return [TestFunction(center=float(c), radius=BASIS_RADIUS, grid=grid)
            for c in centers]


class StationarySampler:
    """Draws (u, v) from the stationary law restricted to the bump family
    stationary_basis(grid), kept as basis.

    u-pairings get covariance Gram(C1), v-pairings Gram(C2), independent.
    Grid values are reconstructed through the dual basis: the minimal-norm
    element of span{h_i} matching the drawn pairings.  Components outside
    the span are dropped, so reconstructed fields are smoother than true
    samples; pairings against the basis (and against anything well inside
    its span) are exact in law.
    """

    def __init__(self, grid: TimeGrid):
        self.grid = grid
        self.basis = stationary_basis(grid)
        if not self.basis:
            raise ValueError("empty basis")
        H = np.stack([h.values for h in self.basis])
        M = H @ H.T * grid.dt
        try:
            self.L1 = gram_cholesky(cov_u_gram(self.basis))
            self.L2 = gram_cholesky(cov_v_gram(self.basis))
            # dual-basis rows: pairing the reconstruction against h_j
            # returns exactly the drawn coefficient c_j
            self.dual = np.linalg.solve(M, H)
        except np.linalg.LinAlgError as e:
            raise ArithmeticError(f"Gram factorization failed: {e}") from e

    def draw(self, rng: np.random.Generator) -> FieldState:
        """One state at z = 0."""
        m = len(self.basis)
        cu = self.L1 @ rng.standard_normal(m)
        cv = self.L2 @ rng.standard_normal(m)
        return FieldState(u=cu @ self.dual, v=cv @ self.dual, z=0.0,
                          grid=self.grid)


# ----------------------------------------------------------------------
# trajectories

@dataclass(frozen=True)
class EvolveConfig:
    dz: float
    Z: float
    observables: tuple
    noise: bool = True

    def __post_init__(self):
        if self.dz <= 0 or self.Z <= 0:
            raise ValueError("dz and Z must be positive")
        # round(Z / dz) == 0 exactly when Z / dz <= 1/2; testing the
        # quotient never rounds an infinite one
        if self.Z / self.dz <= 0.5:
            raise ValueError(
                f"Z={self.Z:g} is at most dz/2 = {self.dz / 2:g}, "
                f"so the run would take no step")
        if self.observables:
            g = self.observables[0].grid
            if any(h.grid != g for h in self.observables):
                raise ValueError("observables not on one grid")

    def check_stability(self, grid: TimeGrid):
        lim = stability_limit(grid)
        if self.dz > lim * (1.0 + 1e-12):
            raise ValueError(
                f"dz={self.dz:g} violates the stability rule "
                f"dz <= {STABILITY_FACTOR:g} sqrt(dt) = {lim:.6g}")

    def check_records(self, block: int):
        """Raise ResourceError unless the records evolve allocates for a
        block of this many replicas fit: (steps + 1) rows of 2m pairings a
        replica, plus the steps + 1 z nodes.  The step count is taken as
        the float Z / dz, so that an infinite one fails here too."""
        steps = self.Z / self.dz
        check_sheet_cells(
            (steps + 1.0) * (block * 2 * len(self.observables) + 1),
            f"the records of Z={self.Z:g} / dz={self.dz:g} = {steps:.6g} "
            f"steps")

    @property
    def steps(self) -> int:
        return int(round(self.Z / self.dz))


@dataclass(frozen=True, eq=False)
class EvolveResult:
    """Trajectory record of a block: observable pairings at every step,
    the end state and a telescoping-sum audit, each with a leading axis
    (B, ...) whose index r holds the block's replica r."""

    z_nodes: np.ndarray            # (steps+1,)
    u_obs: np.ndarray              # (B, steps+1, m)
    v_obs: np.ndarray              # (B, steps+1, m)
    final_state: FieldState
    bookkeeping_error: np.ndarray  # (B,) max |<u_Z-u_0;h> - sum <v_z;h> dz|

    def to_csv(self, r: int) -> str:
        """The record of replica r as CSV: a header z,u_h0,..,v_h0,.. and
        one row per z node, every value in %.12g."""
        cols = [f"{x}_h{i}" for x in "uv" for i in range(self.u_obs.shape[2])]
        buf = io.StringIO()
        np.savetxt(buf, np.column_stack([self.z_nodes, self.u_obs[r],
                                         self.v_obs[r]]), fmt="%.12g",
                   delimiter=",", header=",".join(["z"] + cols), comments="")
        return buf.getvalue()


def evolve(init: FieldState, cfg: EvolveConfig, plan: SpectralPlan,
           rngs: Sequence[np.random.Generator] = ()) -> EvolveResult:
    """Run the explicit scheme from the (B, n) block init to z + Z,
    recording observables.

    rngs holds one generator per replica, replica r drawing its noise rows
    from rngs[r] in step order, so each row reproduces that replica run as
    a block of one.  A noiseless run (cfg.noise False) needs none.

    A copy of init is stepped in place: u += v dz from the old v, then
    v += dv dz - dW, one noise_draw call filling the block's dW.  The sine
    spectrum U of u is carried across steps (u += v dz gives U += dz V
    exactly), so a step costs one real forward transform (V) and one real
    inverse (the fused drift).  As u += v dz literally, the pairings satisfy
    <u_Z; h> - <u_0; h> = sum of <v_z; h> dz over steps to roundoff; the
    realized maximum deviation is stored on the result.
    """
    grid = init.grid
    if init.u.ndim != 2:
        raise ValueError(f"evolve steps a (B, n) block of replicas, not a "
                         f"state of shape {init.u.shape}")
    cfg.check_stability(grid)
    if plan.grid != grid:
        raise ValueError("state and plan grids differ")
    if cfg.observables and cfg.observables[0].grid != grid:
        raise ValueError("observables not on the state grid")
    B = init.u.shape[0]
    if cfg.noise and len(rngs) != B:
        raise ValueError("a noisy run needs one generator per replica in rngs")
    cfg.check_records(B)
    Hobs = np.stack([h.values for h in cfg.observables]) \
        if cfg.observables else np.zeros((0, grid.n))
    dt = grid.dt
    dz = cfg.dz
    steps = cfg.steps
    m = Hobs.shape[0]
    u_obs = np.zeros((B, steps + 1, m))
    v_obs = np.zeros((B, steps + 1, m))
    zs = init.z + dz * np.arange(steps + 1)
    noise = np.zeros((B, grid.n))

    u = init.u.copy()
    v = init.v.copy()
    z = init.z
    U = plan.forward(u)
    vsum = np.zeros((B, m))
    for k in range(steps + 1):
        u_obs[:, k] = u @ Hobs.T * dt
        v_obs[:, k] = v @ Hobs.T * dt
        if k == steps:
            break
        V = plan.forward(v)
        dv = _drift_terms(U, V, plan)
        vsum += v_obs[:, k] * dz
        if cfg.noise:
            noise_draw(rngs, grid, dz, out=noise)
        u += v * dz
        v += dv * dz
        v -= noise
        z += dz
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise InstabilityError(
                f"non-finite state at z={z:.6g}; noiseless amplification "
                f"factor {spectral_radius(grid, dz):.4f} (>= 1 means the step"
                f" violates stability; limit dz <= {stability_limit(grid):.3e})")
        U += dz * V

    book = np.max(np.abs((u_obs[:, -1] - u_obs[:, 0]) - vsum), axis=1,
                  initial=0.0)
    return EvolveResult(z_nodes=zs, u_obs=u_obs, v_obs=v_obs,
                        final_state=FieldState(u=u, v=v, z=z, grid=grid),
                        bookkeeping_error=book)
