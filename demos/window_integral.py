#!/usr/bin/env python3
"""The exponential-window integral l(t) and its three pinned facts.

l(t) integrates the boundary kernel against a decaying exponential window;
it shows up whenever the field is paired with e^(-nu .).  Three facts are
checked directly from the overflow-safe closed form:

  value     l(0) = 0 exactly (the kernel carries no mass at zero gap);
  tail      t^(3/2) l(t) stays bounded as t grows, i.e. the window decays
            like the free kernel once the exponential has died;
  laplace   the double-exponential pairing integral has the rational
            closed form 1/((sqrt(nu2)+sqrt(nu))(nu2+nu)), so at
            nu = nu2 = 1 it equals 1/4.
"""
import numpy as np

from heatsheet import l_nu, l_nu_laplace

NUS = (0.5, 1.0, 2.0, 4.0)


def main() -> int:
    print("l(0) for several decay rates (must be exactly zero):")
    for nu in NUS:
        print(f"  nu={nu:<4g} l(0) = {l_nu(nu, 0.0)!r}")

    print("\nnormalized tail t^(3/2) l(t), nu = 1:")
    print("t         t^1.5 * l(t)")
    ts = np.geomspace(10.0, 1000.0, 9)
    vals = [t ** 1.5 * l_nu(1.0, float(t)) for t in ts]
    for t, v in zip(ts, vals):
        print(f"{t:<9.4g} {v:.8f}")
    sup = max(abs(v) for v in vals)
    print(f"sup over the table: {sup:.6f} (bounded; the plateau is the "
          f"free-kernel constant)")

    print("\nLaplace values against the rational closed form:")
    print("nu    nu2   computed        closed form     abs err")
    worst = 0.0
    for nu in (1.0, 2.0):
        for nu2 in (1.0, 2.0):
            got = l_nu_laplace(nu, nu2)
            ref = 1.0 / ((np.sqrt(nu2) + np.sqrt(nu)) * (nu2 + nu))
            err = abs(got - ref)
            worst = max(worst, err)
            print(f"{nu:<5g} {nu2:<5g} {got:.12f}  {ref:.12f}  {err:.1e}")
    at_one = abs(l_nu_laplace(1.0, 1.0) - 0.25)
    print(f"\nat nu = nu2 = 1 the value is 1/4 to {at_one:.1e}")
    ok = all(l_nu(nu, 0.0) == 0.0 for nu in NUS) \
        and sup <= 1.0 and worst < 1e-12
    print("all three facts hold:", "OK" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
