#!/usr/bin/env python3
"""A narrated tour of the five verification suites.

For each suite the tour prints what it checks, runs it at the demo sizes in
SIZES through the same suite function the `heatsheet` command calls, and
prints every report it returns: the statistic, estimate, target and rule,
with the `grid` fields the narrative cites.  Before the suites it prints
the closed-form covariance of the field.  It exits 0 only if every report
passed.

    python demos/tour.py
"""
import math

from heatsheet import cli, cov_u, cov_u_cross

WORKERS = 2

# RunConfig fields per suite; the rest are the suite defaults, seed 0
# included
SIZES = {
    "ops": dict(n=2048),
    "cov": dict(replicas=2000),
    "drift": dict(replicas=1000),
    "spde": dict(n=256, replicas=800),
    "evolve": dict(t_max=8.0, n=256, replicas=600, Z=0.5),
}

# (suite, narrative, the grid fields it cites)
SUITES = (
    ("ops", """\
Fractional-operator identities on a smooth bump, each read at n and again
at 2n.  The second operator factors through the quarter-order derivative
of the antisymmetric extension, up to a factor sqrt(2); convolving its
image against the inverse-square-root kernel recovers the input (Abel-type
inversion); composing the two operators equals minus the ordinary
derivative plus the half-order derivative of the extension.  Halving dt
must shrink the factorization and composition errors: the refinement
quotient is fine_error, the error at fine_n, over the error at n.  The
inversion instead sits on its dt-independent tail floor.
Exponentials are eigenfunctions of the first operator with eigenvalue
sqrt(nu).  The exponential-window integral l(t) vanishes at 0 (the kernel
carries no mass at zero gap), t^(3/2) l(t) stays bounded with the
free-kernel constant as its limit, and the double-exponential pairing
integral has the rational closed form 1/((sqrt(nu2)+sqrt(nu))(nu2+nu)),
whose value at nu = nu2 = 1 is 1/4.""",
     ("fine_n", "fine_error", "limit", "value")),
    ("cov", """\
The variance of the field at (0, 1), rebuilt from white-noise sheets,
must match the closed form above, and so must the Grams of field and
derivative pairings against a family of bumps; field and derivative
pairings at one point must be uncorrelated.  The field weights are even
about the point and the derivative weights odd, so the sheet is folded
there into the sums and the differences of mirrored cells, and each
statistic is drawn in the Daubechies-4 basis of its own half,
cells_drawn normals per replica: field and derivative pairings share no
normal, and the drawn cross-covariance is exactly 0.
discrete_variance is the exact variance of the drawn quadrature: its
distance from the target is the cell-size bias, while the Monte Carlo
estimate scatters around it within a few se.  discrete_gap is the same
distance for a Gram block.""",
     ("cells_drawn", "discrete_variance", "discrete_gap")),
    ("drift", """\
One white-noise sheet is drawn and the correction drift is evaluated two
ways at a row of probe points, each as a weight array contracted
against the sheet's cell increments: the field form pairs the field and
its spatial derivative against exponential windows, with no explicit
geometry of the point; the integral form is the explicit exponential
integral over the quadrant to the right of the point.  The two agree path
by path, not just in law, and their relative RMS is pure quadrature
error: refining the window quadrature from coarse_nodes to fine_nodes
must shrink it, coarse_rms being the coarse value.  The functional's
variance is exactly 1/(4 nu^(3/2)), and the Laplace-transform identity
behind the construction must hit its closed rational form in (nu, nu2).""",
     ("coarse_nodes", "fine_nodes", "coarse_rms", "cells_drawn",
      "discrete_variance", "closed_form")),
    ("spde", """\
For a tensor test function f the residual functional eta(f) collects the
field against dxx f + the half-order time derivative of the extension -
sqrt(2) d/dx of its quarter-order time derivative, reordered into a
single pass over the noise cells.  If the new equation holds weakly,
eta(f) is centered Gaussian with variance ||f||^2.  The cell weights are
smooth in time but far from 0 at s = 0, so the sheet's time axis runs out
and back before its Daubechies-4 transform, which then sees no jump
where the periodic basis wraps, and cells_drawn normals per replica
carry all but 1e-8 of the weights' energy.  discrete_variance is the
exact variance of the kept coefficients that are drawn, and its bias
against ||f||^2 is bounded too; f1 and f2 differ in their spatial radius
x_radius.""",
     ("x_radius", "cells_drawn", "discrete_variance")),
    ("evolve", """\
The SDE in the spatial variable z,
    du = v dz,
    dv = -(halflap u + sqrt(2) quarterlap v) dz - dW,
preserves the field/derivative law of the heat-equation solution: it
is Langevin dynamics with potential 1/2 <u; halflap u> and friction
sqrt(2) quarterlap.  Started from stationary draws, carried by a basis of
bumps, and stepped by the BAOAB splitting (half kick, half drift, an
exact Ornstein-Uhlenbeck step per sine mode, half drift, half kick) in
steps dz up to Z, the terminal pairings against bumps must stay centered,
with the Gram diagonals the initializer used as variances.  The scheme is
linear, so one backward sweep gives each pairing's weights on the start
and the noise rows: every replica is contracted against them, and
discrete_variance is the exact variance of the scheme's pairing.  The
first block is also stepped forward: the contraction must match it, and
a telescoping audit checks its step bookkeeping.  The damping drains
what the noise injects, which is what makes the law stationary rather
than exploding or dying.""",
     ("dz", "basis", "discrete_variance", "replicas_stepped")),
)


def closed_form():
    print("== the closed form ==")
    print("The field at a fixed spatial point is Gaussian in its time "
          "argument with\ncovariance (sqrt(t + t2) - sqrt(|t - t2|)) / "
          "sqrt(4 pi):\n")
    ts = (0.5, 1.0, 2.0, 4.0)
    print("        " + "".join(f"t2={t2:<8g}" for t2 in ts))
    for t in ts:
        print(f"t={t:<5g} " + "".join(f"{cov_u(t, t2):<11.6f}" for t2 in ts))
    v = cov_u(2.0 * math.pi, 2.0 * math.pi)
    print(f"\nvariance at t = 2 pi: {v:.15f} (exactly 1 by the chosen "
          f"normalization)")
    print("decorrelation across space, cov of u(0, 1) and u(dx, 1):")
    for dx in (0.0, 0.5, 1.0, 2.0, 4.0):
        print(f"  dx={dx:<4g} cov={cov_u_cross(dx, 1.0, 1.0):.6f}")


def show(reports, cited):
    """One line per report, then the cited grid fields that differ from
    the values shown last."""
    shown = {}
    for r in reports:
        z = "" if r.z is None else f", z = {r.z:+.2f}"
        print(f"  {'PASS' if r.passed else 'FAIL'} {r.statistic}: estimate "
              f"{r.estimate:.6g} target {r.target:.6g} ({r.rule}{z})")
        new = {k: r.grid[k] for k in cited
               if k in r.grid and shown.get(k) != r.grid[k]}
        if new:
            print("       "
                  + "  ".join(f"{k}={v:.6g}" for k, v in new.items()))
        shown.update(new)


def main() -> int:
    closed_form()
    passed = total = 0
    for name, story, cited in SUITES:
        cfg = cli.RunConfig(workers=WORKERS, **SIZES[name])
        print(f"\n== {name} at {SIZES[name]} ==\n{story}\n")
        out = getattr(cli, f"suite_{name}")(cfg)
        reports = out[0] if name == "evolve" else out
        show(reports, cited)
        passed += sum(r.passed for r in reports)
        total += len(reports)
    print(f"\n{passed} of {total} reports passed")
    return 0 if passed == total else 1


if __name__ == "__main__":
    raise SystemExit(main())
