#!/usr/bin/env python3
"""Pathwise drift identity and its Laplace-domain closed form.

One white-noise sheet is drawn and the correction drift is evaluated two
ways at a row of spatial points, each as a weight array contracted against
the sheet's cell increments:

  field form     pairing of the field and its spatial derivative against
                 exponential windows (no explicit geometry of the point);
  integral form  the explicit exponential integral over the quadrant to
                 the right of the point.

The two numbers agree path by path, not just in law.  The second half
prints the Laplace-transform identity behind the construction, where the
quadrature must hit a closed rational form in (nu, nu2).
"""
import math

import numpy as np

from heatsheet import (SheetLattice, cameron_martin_laplace,
                       cameron_martin_target, drift_variance_exact,
                       sheet_sample)
from heatsheet.gaussfield import (coverage_halfwidth, drift_field_weights,
                                  drift_integral_weights)

NU = 1.0
S_MAX = 20.0
SEED = 7
DY = 1.0 / 8
DS = 1.0 / 16
Y_VALUES = np.arange(8) * 0.25


def main() -> int:
    # the field form needs heat-kernel coverage on both sides of every
    # probe point; that reach dominates the integral form's exponential one
    lo = coverage_halfwidth(S_MAX) + 1.0
    ny = round((2.0 * lo + float(Y_VALUES.max())) / DY)
    lat = SheetLattice(-lo, DY, DS, ny, round(S_MAX / DS))
    sheet = sheet_sample(lat, seed=SEED, stream=0)
    print(f"sheet on [{lat.y_min:.1f}, {lat.y_max:.1f}] x [0, {lat.s_max:g}], "
          f"{lat.cells} cells, nu = {NU:g}\n")

    print("y       field form   integral form   difference")
    a = np.empty(Y_VALUES.size)
    b = np.empty(Y_VALUES.size)
    yn, sn, dB = lat.y_nodes, lat.s_nodes, sheet.increments
    for i, y in enumerate(Y_VALUES):
        y = float(y)
        a[i] = np.sum(drift_field_weights(yn, sn, y, NU, lat.s_max) * dB)
        b[i] = np.sum(drift_integral_weights(yn, sn, y, NU) * dB)
        print(f"{y:<6g}  {a[i]:+.6f}    {b[i]:+.6f}      {a[i] - b[i]:+.2e}")
    rms = float(np.sqrt(np.mean((a - b) ** 2)) / np.sqrt(np.mean(b ** 2)))
    print(f"\nrelative RMS over the row: {rms:.2e} "
          f"(pure quadrature error; both numbers use the same sheet)")
    print(f"law check: Var of the functional is exactly "
          f"1/(4 nu^(3/2)) = {drift_variance_exact(NU):.6f}")

    print("\nLaplace identity, quadrature vs closed form:")
    print("nu    nu2   quadrature      closed form     rel err")
    worst = 0.0
    for nu in (1.0, 2.0):
        for nu2 in (1.0, 2.0):
            val = cameron_martin_laplace(nu, nu2, 0.0)
            tgt = cameron_martin_target(nu, nu2, 0.0)
            rel = abs(val / tgt - 1.0)
            worst = max(worst, rel)
            print(f"{nu:<5g} {nu2:<5g} {val:.10f}    {tgt:.10f}    {rel:.2e}")
    print(f"\nworst relative error {worst:.2e}", "OK" if worst < 1e-4 else "FAIL")
    return 0 if (rms < 5e-2 and worst < 1e-4) else 1


if __name__ == "__main__":
    raise SystemExit(main())
