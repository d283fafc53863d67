#!/usr/bin/env python3
"""Stationarity of the damped second-order flow in the spatial variable.

The t-variable SDE
    du = v dz,
    dv = -(halflap u + sqrt(2) quarterlap v) dz - dW

preserves the field/derivative law of the heat-equation solution.  Started
from a stationary draw and stepped one spatial unit, the terminal pairing
variances against a bump family must reproduce the same Gram diagonals the
initializer used.  A noiseless run of the same flow shows the energy
functional decaying, which is what makes the law stationary rather than
exploding or dying.
"""
import math

import numpy as np

from heatsheet import (EvolveConfig, SpectralPlan, StationarySampler,
                       TestFunction, TimeGrid, evolve, smooth_window,
                       stability_limit, stationary_basis)
from heatsheet.gaussfield import cov_u_gram, cov_v_gram, sheet_rng
from heatsheet.sde import FieldState

T_MAX = 8.0
N = 256
SEED = 5
REPLICAS = 600
Z = 0.5


def main() -> int:
    grid = TimeGrid(T_MAX, N)
    dz = stability_limit(grid)
    steps = int(round(Z / dz))
    plan = SpectralPlan(grid)
    obs = [TestFunction(center=c, radius=0.4, grid=grid)
           for c in (1.5, 4.0, 5.8)]
    cfg = EvolveConfig(dz=dz, Z=Z, observables=tuple(obs))
    basis = stationary_basis(grid)
    sampler = StationarySampler(basis, grid)
    G1 = cov_u_gram(obs)
    G2 = cov_v_gram(obs)

    print(f"grid [0, {T_MAX:g}] with n = {N}: dz = {dz:.4g}, "
          f"{steps} steps to Z = {Z:g}, basis of {len(basis)} bumps")
    print(f"running {REPLICAS} replicas from stationary draws...\n")
    UZ = np.empty((REPLICAS, len(obs)))
    VZ = np.empty((REPLICAS, len(obs)))
    for r in range(REPLICAS):
        rng = sheet_rng(SEED, r)
        res = evolve(sampler.draw(rng), cfg, plan, rng=rng)
        UZ[r] = res.u_obs[-1]
        VZ[r] = res.v_obs[-1]

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
    state = FieldState(u=w * np.sin(4.0 * grid.nodes),
                       v=np.zeros(grid.n), z=0.0, grid=grid)
    quiet = EvolveConfig(dz=dz / 2, Z=1.0, observables=(), noise=False)
    res = evolve(state, quiet, plan)
    e = res.energy
    print(f"\nnoiseless energy track from a windowed tone over one unit: "
          f"{e[0]:.4f} -> {e[len(e) // 2]:.4f} -> {e[-1]:.4f}")
    decayed = e[-1] < 0.6 * e[0]
    print("damping drains the tone, balancing the injected noise:",
          "OK" if decayed else "NOT DECAYING")
    return 0 if (ok and decayed) else 1


if __name__ == "__main__":
    raise SystemExit(main())
