#!/usr/bin/env python3
"""Stationarity of the damped second-order flow in the spatial variable.

The t-variable SDE
    du = v dz,
    dv = -(halflap u + sqrt(2) quarterlap v) dz - dW

preserves the field/derivative law of the heat-equation solution.  Started
from a stationary draw and stepped one spatial unit, the terminal pairing
variances against a bump family must reproduce the same Gram diagonals the
initializer used.  A noiseless run of the same flow shows the energy
<v;v> + <u; halflap u> decaying, which is what makes the law stationary
rather than exploding or dying.
"""
import math
import warnings

import numpy as np

from heatsheet import (EvolveConfig, SpectralPlan, StationarySampler,
                       TestFunction, TimeGrid, evolve, frac_laplacian,
                       smooth_window, stability_limit)
from heatsheet.gaussfield import cov_u_gram, cov_v_gram, sheet_rng
from heatsheet.sde import FieldState

T_MAX = 8.0
N = 256
SEED = 5
REPLICAS = 600
Z = 0.5


def energy(state: FieldState, plan: SpectralPlan) -> float:
    """<v;v> dt + <u; halflap u^a> dt of a block of one replica."""
    u, v = state.u[0], state.v[0]
    # the flow carries u out to t_max, a truncation that belongs to the
    # scheme itself, so frac_laplacian's decay warning is not wanted here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        halflap = frac_laplacian(u, 1.0, plan)
    return float(v @ v + u @ halflap) * plan.grid.dt


def main() -> int:
    grid = TimeGrid(T_MAX, N)
    dz = stability_limit(grid)
    steps = int(round(Z / dz))
    plan = SpectralPlan(grid)
    obs = [TestFunction(center=c, radius=0.4, grid=grid)
           for c in (1.5, 4.0, 5.8)]
    cfg = EvolveConfig(dz=dz, Z=Z, observables=tuple(obs))
    sampler = StationarySampler(grid)
    G1 = cov_u_gram(obs)
    G2 = cov_v_gram(obs)

    print(f"grid [0, {T_MAX:g}] with n = {N}: dz = {dz:.4g}, "
          f"{steps} steps to Z = {Z:g}, basis of {len(sampler.basis)} bumps")
    print(f"running {REPLICAS} replicas from stationary draws...\n")
    # replica r draws its stationary start, then its noise, from stream r
    rngs = [sheet_rng(SEED, r) for r in range(REPLICAS)]
    init = FieldState.stack([sampler.draw(rng) for rng in rngs])
    res = evolve(init, cfg, plan, rngs)
    UZ = res.u_obs[:, -1]
    VZ = res.v_obs[:, -1]

    print("observable        field pairing var        derivative pairing var")
    print("                  empirical   target       empirical   target")
    ok = True
    for i, h in enumerate(obs):
        for data, G in ((UZ, G1), (VZ, G2)):
            var = float(data[:, i].var(ddof=1))
            se = var * math.sqrt(2.0 / (REPLICAS - 1))
            ok = ok and abs(var - G[i, i]) < 4 * se
        print(f"center {h.center:<8g}  {UZ[:, i].var(ddof=1):<11.5f} "
              f"{G1[i, i]:<11.5f}  {VZ[:, i].var(ddof=1):<11.5f} "
              f"{G2[i, i]:<11.5f}")
    print("\nterminal variances match the stationary Gram diagonals:",
          "OK" if ok else "OUTSIDE 4 SE")

    # noise off: the same flow drains the energy <v;v> + <u; halflap u>;
    # the window's low-frequency skirt decays slowest, so give it a unit
    w = smooth_window(grid, 1.0, T_MAX - 1.0)
    state = FieldState(u=[w * np.sin(4.0 * grid.nodes)],
                       v=np.zeros((1, grid.n)), z=0.0, grid=grid)
    e = [energy(state, plan)]
    for z_end in (0.5, 1.0):
        quiet = EvolveConfig(dz=dz / 2, Z=z_end, observables=(), noise=False)
        e.append(energy(evolve(state, quiet, plan).final_state, plan))
    print(f"\nnoiseless energy track from a windowed tone over one unit: "
          f"{e[0]:.4f} -> {e[1]:.4f} -> {e[2]:.4f}")
    decayed = e[-1] < 0.6 * e[0]
    print("damping drains the tone, balancing the injected noise:",
          "OK" if decayed else "NOT DECAYING")
    return 0 if (ok and decayed) else 1


if __name__ == "__main__":
    raise SystemExit(main())
