#!/usr/bin/env python3
"""Weak-form residual of the modified equation on sampled sheets.

For a tensor test function f the residual functional eta(f) collects the
field against

    dxx f + half-order time derivative of the extension
          - sqrt(2) * d/dx quarter-order time derivative,

reordered into a single pass over the noise cells.  If the new equation
holds weakly, eta(f) is centered Gaussian with variance ||f||^2.  The
script builds two plans, shows the reordering against the literal
two-stage tabulation on one sheet, then runs a small ensemble.
"""
import numpy as np

from heatsheet import (TensorTestFunction, TestFunction, TimeGrid,
                       WeakformPlan, mean_se, sheet_rng, sheet_sample, var_se,
                       weakform_residual_reference)

SEED = 11
REPLICAS = 800


def make_f(grid: TimeGrid, x_radius: float) -> TensorTestFunction:
    return TensorTestFunction(0.0, x_radius, TestFunction(2.0, 1.0, grid))


def main() -> int:
    small = TimeGrid(6.0, 32)   # the literal path is quadratic; keep it tiny
    f0 = make_f(small, 1.5)
    # same x tabulation on both paths, so the comparison is exact reordering
    plan0 = WeakformPlan(f0, x_res=8)
    sheet = sheet_sample(plan0.lattice, seed=SEED, stream=0)
    fast = plan0.residual(sheet)
    slow = weakform_residual_reference(sheet, f0, x_res=8)
    print("reordering check on one sheet (small grid):")
    print(f"  single-pass plan      {fast:+.12f}")
    print(f"  two-stage tabulation  {slow:+.12f}")
    print(f"  difference            {fast - slow:+.2e}  (pure float noise)\n")

    grid = TimeGrid(8.0, 256)
    f = make_f(grid, 2.5)
    plan = WeakformPlan(f)
    tgt = f.l2sq()
    disc = plan.variance_discrete()
    print(f"test function ||f||^2 = {tgt:.6f}; the plan's own cell-sum "
          f"variance is {disc:.6f} (bias {disc / tgt - 1.0:+.2e})")

    w = plan.omega.ravel()
    eta = np.empty(REPLICAS)
    for r in range(REPLICAS):
        z = sheet_rng(SEED, 1 + r).standard_normal(w.size)
        eta[r] = plan.lattice.scale * float(w @ z)
    mean, se_m = mean_se(eta)
    var, se_v = var_se(eta)
    print(f"\nensemble of {REPLICAS} sheets:")
    print(f"  mean eta(f)  {mean:+.6f} +- {se_m:.6f}   (target 0)")
    print(f"  var  eta(f)  {var:.6f} +- {se_v:.6f}   (target {tgt:.6f})")
    ok = abs(mean) < 4 * se_m and abs(var - disc) < 4 * se_v
    print("\nresidual is centered with the predicted variance:",
          "OK" if ok else "OUTSIDE 4 SE")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
