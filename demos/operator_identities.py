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
from heatsheet.fracops import A2_TAIL_POWER, a1_a2_residual

T_MAX = 8.0
PAD = 4          # periodization pad; keeps the spectral floor below the dt part
MARGIN = 0.5     # interior window excludes this much of each endpoint


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
    checks = (("factorization through quarter order", factorization_err, True),
              ("inversion against halfroot kernel  ", inversion_err, False),
              ("composition vs derivative identity ", composition_err, True))
    print(f"bump (center 2, radius 1) on [0, {T_MAX:g}], "
          f"n = {coarse.n} then {fine.n}\n")
    print("identity                              err(dt)    err(dt/2)  quotient")
    ok = True
    for name, fn, refines in checks:
        e0, e1 = fn(coarse), fn(fine)
        q = e1 / e0
        ok = ok and e1 < 1e-2 and (q < 0.6 or not refines)
        print(f"{name}  {e0:.3e}  {e1:.3e}  {q:.3f}")
    print("\nquotients near 0.5 mean the residual is dominated by the "
          "first-order quadrature term; the inversion row instead sits on "
          "its dt-independent tail floor, well under tolerance.")
    print("all identities hold:", "OK" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
