"""Spatial dynamics: an SDE in the location variable z.

The state is a pair of time profiles (u, v) on a TimeGrid.  The location
plays the role usually taken by time: u advances by v, v feels a damped
restoring drift built from fractional operators in t, plus white noise.
Read in z, this is underdamped Langevin dynamics for (u, v): the potential
is 1/2 <u; halflap u^a>, the friction sqrt(2) quarterlap and the noise has
unit intensity.  evolve steps a (B, n) block of replicas by the BAOAB
splitting (Leimkuhler & Matthews 2013): half kick, half drift, an exact
Ornstein-Uhlenbeck step per sine mode, half drift, half kick.  Per mode it
keeps the stationary u-law exact at every stable dz and lowers the v
variance by the factor 1 - h^2/4, h = dz sqrt(tau).  See stability_limit
for the step rule and spectral_radius for the exact amplification factor
of the noiseless scheme.

The scheme is linear in the start (u, v) and the noise rows, so each
terminal pairing evolve records is a fixed linear functional of them.
adjoint_weights walks the step's factors in reverse once and returns its
weights; contracting a start and its noise_draw rows against them gives
the same pairings, to roundoff, without stepping the field.  The noise
rows are the increments of a Brownian sheet in (z, t) over cells of dz x
dt, divided by dt, so the weights can also be drawn against that sheet
in a cropped basis, without drawing the rows at all.
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

# BAOAB is stable while h = dz sqrt(tau) < 2 at the Nyquist mode tau = pi/dt,
# that is dz < 1.13 sqrt(dt); the shipped rule puts h at 0.4 sqrt(pi) = 0.71,
# where the smooth observables' v variances sit 0.15 % low
STABILITY_FACTOR = 0.4

BASIS_PER_UNIT_T = 5    # stationary basis bumps per unit of t
BASIS_MARGIN = 0.6      # keep bump supports off both t boundaries
BASIS_RADIUS = 0.30


class InstabilityError(ArithmeticError):
    """Non-finite state during stepping; message carries z and the
    noiseless amplification factor of the scheme."""


def stability_limit(grid: TimeGrid) -> float:
    """Largest dz the stepping rule admits on this grid: STABILITY_FACTOR
    sqrt(dt), inside the BAOAB bound dz sqrt(pi/dt) < 2."""
    return STABILITY_FACTOR * math.sqrt(grid.dt)


def _ou_factors(gamma: np.ndarray, dz: float) -> tuple:
    """Exact Ornstein-Uhlenbeck step over dz at friction gamma: the decay
    e^(-gamma dz), and the gain that turns a white increment of variance dz
    into the step's noise, of variance (1 - e^(-2 gamma dz)) / (2 gamma)."""
    decay = np.exp(-gamma * dz)
    gain = np.sqrt(-np.expm1(-2.0 * gamma * dz) / (2.0 * gamma * dz))
    return decay, gain


def spectral_radius(grid: TimeGrid, dz: float) -> float:
    """Exact max amplification of the noiseless BAOAB map over grid modes.

    The step map of mode tau depends on h = dz sqrt(tau) alone: its trace
    is (1 - h^2/2)(1 + e^(-sqrt(2) h)) and its determinant e^(-sqrt(2) h).
    Its spectral radius falls from 1 at h = 0 to 0.29 near h = 1.75, where
    the eigenvalues turn real, climbs back to exactly 1 at h = 2
    (eigenvalues -1 and -e^(-2 sqrt(2))) and exceeds 1 beyond, so
    instability begins at dz sqrt(pi/dt) = 2.  Every sine mode of the
    grid's plan is scanned.
    """
    h = dz * np.sqrt(SpectralPlan(grid).tau)
    det = np.exp(-SQRT2 * h)
    tr = (1.0 - 0.5 * h * h) * (1.0 + det)
    disc = np.sqrt((tr * tr - 4.0 * det).astype(complex))
    return float(np.maximum(np.abs(tr + disc), np.abs(tr - disc)).max() / 2)


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


def noise_draw(rngs: Sequence[np.random.Generator], grid: TimeGrid,
               dz: float, out: np.ndarray) -> None:
    """One white-in-t Brownian increment per replica, drawn in place into
    the (B, n) block out, row r from rngs[r]: N(0, dz/dt) per cell, so that
    <dW; h> has variance dz ||h||^2 up to grid resolution.  Row r is the
    increments of a Brownian sheet over the n cells of dz x dt of one
    step, divided by dt.  evolve colours each row per sine mode into its
    Ornstein-Uhlenbeck step's noise; a block contracted against
    adjoint_weights pairs each row with one step of its noise weights
    instead."""
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
        the float Z / dz, so that an infinite one fails here, before steps
        takes its ceiling."""
        steps = self.Z / self.dz
        check_sheet_cells(
            (steps + 1.0) * (block * 2 * len(self.observables) + 1),
            f"the records of Z={self.Z:g} / dz={self.dz:g} = {steps:.6g} "
            f"steps")

    def check_weights(self, grid: TimeGrid):
        """Raise ResourceError unless the noise weights adjoint_weights
        allocates fit: 2m rows of n nodes a step, the step count taken as
        the float Z / dz as in check_records."""
        m, steps = len(self.observables), self.Z / self.dz
        check_sheet_cells(
            2 * m * grid.n * steps,
            f"the pairing weights of {m} observables over Z={self.Z:g} / "
            f"dz={self.dz:g} = {steps:.6g} steps")

    @property
    def steps(self) -> int:
        """The fewest steps of at most dz that reach Z, at least one; a
        quotient Z / dz within roundoff of a whole number takes that
        number."""
        return max(1, math.ceil(self.Z / self.dz * (1.0 - 1e-12)))

    @property
    def step(self) -> float:
        """The step evolve takes, Z / steps: at most dz, so it keeps the
        stability rule that dz meets, and it lands on Z."""
        return self.Z / self.steps


@dataclass(frozen=True, eq=False)
class EvolveResult:
    """Trajectory record of a block: observable pairings at every step,
    the end state and a telescoping-sum audit, each with a leading axis
    (B, ...) whose index r holds the block's replica r."""

    z_nodes: np.ndarray            # (steps+1,)
    u_obs: np.ndarray              # (B, steps+1, m)
    v_obs: np.ndarray              # (B, steps+1, m)
    final_state: FieldState
    # (B,) max |<u_Z-u_0;h> - sum of (dz/2) <v;h> over the half drifts|
    bookkeeping_error: np.ndarray

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
    """Run the BAOAB scheme from the (B, n) block init to z + Z, recording
    observables.

    rngs holds one generator per replica, replica r drawing its noise rows
    from rngs[r] in step order, so each row reproduces that replica run as
    a block of one.  A noiseless run (cfg.noise False) needs none.

    A copy of init is stepped in place, cfg.steps times by dz = cfg.step
    = Z / cfg.steps, so the run ends at z + Z.  With A1 = halflap and
    gamma = sqrt(2) tau^(1/2) on the sine modes of the plan, one step is:
      B  v -= (dz/2) A1 u
      A  u += (dz/2) v
      O  V = e^(-gamma dz) V + gain W, v = inverse(V), where W is the sine
         spectrum of one noise_draw row and gain = sqrt((1 - e^(-2 gamma
         dz)) / (2 gamma dz)), so each mode takes its exact OU step
      A  u += (dz/2) v
      B  v -= (dz/2) A1 u
    Only (u, v) and the kick (dz/2) A1 u, computed from u once a step,
    are carried across steps: a step's closing kick and the next step's
    opening kick read the same u.  A step costs three forward transforms
    (v before O, the noise row, u for the kick) and two inverses (v, A1 u),
    each a pair of real sine transforms of length pad n / 2.  Every z
    reported, the end state's included, is a node init.z + Z k / steps, so
    the last is exactly init.z + Z.  As u moves only by the half drifts,
    the pairings satisfy <u_Z; h> - <u_0; h> = sum of (dz/2) <v; h> over
    the two half-drift velocities of every step, to roundoff; the realized
    maximum deviation is stored on the result.  The terminal pairings alone
    are cheaper to get by contraction against adjoint_weights; evolve is
    the reference that contraction is checked against, and the one source
    of the step records and end states.
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
    steps = cfg.steps
    dz = cfg.step
    half = 0.5 * dz
    m = Hobs.shape[0]
    u_obs = np.zeros((B, steps + 1, m))
    v_obs = np.zeros((B, steps + 1, m))
    zs = init.z + cfg.Z * (np.arange(steps + 1) / steps)
    noise = np.zeros((B, grid.n))
    halflap = plan.multiplier(1.0)
    decay, gain = _ou_factors(SQRT2 * plan.multiplier(0.5), dz)

    u = init.u.copy()
    v = init.v.copy()
    kick = half * plan.inverse(plan.forward(u) * halflap)
    vsum = np.zeros((B, m))
    for k in range(steps + 1):
        u_obs[:, k] = u @ Hobs.T * dt
        v_obs[:, k] = v @ Hobs.T * dt
        if k == steps:
            break
        v -= kick
        V = plan.forward(v)
        u += half * v
        vsum += v @ Hobs.T * (dt * half)
        V *= decay
        if cfg.noise:
            noise_draw(rngs, grid, dz, out=noise)
            V += gain * plan.forward(noise)
        v[:] = plan.inverse(V)
        u += half * v
        vsum += v @ Hobs.T * (dt * half)
        kick = half * plan.inverse(plan.forward(u) * halflap)
        v -= kick
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise InstabilityError(
                f"non-finite state at z={zs[k + 1]:.6g}; noiseless "
                f"amplification factor {spectral_radius(grid, dz):.4f} (>= 1 "
                f"means the step violates stability; limit dz <= "
                f"{stability_limit(grid):.3e})")

    book = np.max(np.abs((u_obs[:, -1] - u_obs[:, 0]) - vsum), axis=1,
                  initial=0.0)
    end = FieldState(u=u, v=v, z=float(zs[-1]), grid=grid)
    return EvolveResult(z_nodes=zs, u_obs=u_obs, v_obs=v_obs,
                        final_state=end, bookkeeping_error=book)


def adjoint_weights(cfg: EvolveConfig, plan: SpectralPlan,
                    grid: TimeGrid) -> tuple:
    """Weights (alpha, beta, gamma) of the terminal pairings of evolve.

    With m observables h_i, row i < m stands for <u_Z; h_i> and row m + i
    for <v_Z; h_i>, both taken as evolve records them, sum(. h_i) dt.  For
    a start (u_0, v_0) and noise_draw rows eta_k, k < cfg.steps, the
    pairing of row i is
        <u_0, alpha_i> + <v_0, beta_i> + sum_k <eta_k, gamma_k,i>,
    plain dot products over the n nodes: alpha and beta are (2m, n), gamma
    is (steps, 2m, n).  A noiseless run pairs to the first two terms.

    The rows start at z + Z as (a, b) = (dt h_i, 0) for u-pairings and
    (0, dt h_i) for v-pairings and walk evolve's five factors backwards,
    last step first.  Every operator of the step is symmetric on the grid
    (inverse . diag . forward of one plan), so each transpose reuses it:
      B  a -= (dz/2) A1 b
      A  b += (dz/2) a
      O  F = forward(b); gamma_k = inverse(gain F); b = inverse(decay F)
      A  b += (dz/2) a
      B  a -= (dz/2) A1 b
    The sweep costs 2m rows of one evolve run.  gamma must pass
    EvolveConfig.check_weights; ResourceError otherwise, before anything
    is allocated.
    """
    if plan.grid != grid:
        raise ValueError("plan and weights grids differ")
    if cfg.observables and cfg.observables[0].grid != grid:
        raise ValueError("observables not on the weights grid")
    cfg.check_stability(grid)
    cfg.check_weights(grid)
    m = len(cfg.observables)
    steps = cfg.steps
    half = 0.5 * cfg.step
    halflap = plan.multiplier(1.0)
    decay, gain = _ou_factors(SQRT2 * plan.multiplier(0.5), cfg.step)
    H = np.stack([h.values for h in cfg.observables]) * grid.dt \
        if cfg.observables else np.zeros((0, grid.n))
    a = np.concatenate([H, np.zeros_like(H)])
    b = np.concatenate([np.zeros_like(H), H])
    gamma = np.empty((steps, 2 * m, grid.n))
    for k in reversed(range(steps)):
        a -= half * plan.inverse(plan.forward(b) * halflap)
        b += half * a
        F = plan.forward(b)
        gamma[k] = plan.inverse(gain * F)
        b = plan.inverse(decay * F)
        b += half * a
        a -= half * plan.inverse(plan.forward(b) * halflap)
    return a, b, gamma

