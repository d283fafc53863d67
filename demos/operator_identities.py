#!/usr/bin/env python3
"""Fractional-operator identities on a smooth bump, with refinement.

Three identities are checked at two grid resolutions:

  1. the second operator factors through the quarter-order derivative of
     the antisymmetric extension, up to a factor sqrt(2);
  2. convolving its image against the inverse-square-root kernel recovers
     the input (Abel-type inversion);
  3. composing the two operators equals minus the ordinary derivative
     plus the half-order derivative of the extension.

Interior errors should drop roughly linearly in dt; the printed quotient
makes that visible.
"""
import math

import numpy as np

from heatsheet import (SpectralPlan, TestFunction, TimeGrid, frac_laplacian,
                       halfroot_conv, op_A2)
from heatsheet.cli import (OPS_COMPOSITION_TOL, OPS_FACTOR_TOL, OPS_INV_TOL,
                           OPS_MARGIN as MARGIN, OPS_PAD as PAD, REFINE_GAIN)
from heatsheet.fracops import A2_TAIL_POWER, a1_a2_residual

# verify-ops' bump, pad (which keeps the spectral floor below the dt part),
# interior margin and gates, on a coarser pair of grids
T_MAX = 8.0


def interior(grid: TimeGrid) -> np.ndarray:
    t = grid.nodes
    return (t > MARGIN) & (t < grid.t_max - MARGIN)


def factorization_err(grid: TimeGrid) -> float:
    h = TestFunction(2.0, 1.0, grid)
    plan = SpectralPlan(grid, pad=PAD)
    lhs = op_A2(h)
    rhs = math.sqrt(2.0) * frac_laplacian(h.values, 0.5, plan)
    return float(np.max(np.abs(lhs - rhs)[interior(grid)]) / h.sup_norm)


def inversion_err(grid: TimeGrid) -> float:
    h = TestFunction(2.0, 1.0, grid)
    back = halfroot_conv(op_A2(h), grid, tail=("power", A2_TAIL_POWER))
    return float(np.max(np.abs(back - h.values)) / h.sup_norm)


def composition_err(grid: TimeGrid) -> float:
    h = TestFunction(2.0, 1.0, grid)
    plan = SpectralPlan(grid, pad=PAD)
    r = a1_a2_residual(h, plan=plan)
    return float(np.max(np.abs(r)) / np.max(np.abs(h.deriv_values)))


def main() -> int:
    coarse = TimeGrid(T_MAX, 2048)
    fine = TimeGrid(T_MAX, 4096)
    # the inversion error sits on the kernel's tail-completion floor, which
    # does not move with dt, so only the other two get a refinement gate
    checks = (("factorization through quarter order", factorization_err,
               OPS_FACTOR_TOL, True),
              ("inversion against halfroot kernel  ", inversion_err,
               OPS_INV_TOL, False),
              ("composition vs derivative identity ", composition_err,
               OPS_COMPOSITION_TOL, True))
    print(f"bump (center 2, radius 1) on [0, {T_MAX:g}], "
          f"n = {coarse.n} then {fine.n}\n")
    print("identity                              err(dt)    err(dt/2)  quotient")
    ok = True
    for name, fn, tol, refines in checks:
        e0, e1 = fn(coarse), fn(fine)
        q = e1 / e0
        ok = ok and e1 < tol and (q < 1.0 / REFINE_GAIN or not refines)
        print(f"{name}  {e0:.3e}  {e1:.3e}  {q:.3f}")
    print("\nquotients near 0.5 mean the residual is dominated by the "
          "first-order quadrature term; the inversion row instead sits on "
          "its dt-independent tail floor, well under tolerance.")
    print("all identities hold:", "OK" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
