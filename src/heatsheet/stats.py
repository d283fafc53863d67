"""Monte Carlo estimators, hypothesis tests, and the VerificationReport record.

Every report is recomputable: the pass flag follows mechanically from the
stored numbers and the stored rule string.  A report holds no seed: the run
that writes it records the suite's seed next to each one.
The suites reduce replica arrays with plain numpy reductions after every
replica is stored by index, so results do not depend on how replicas were
chunked across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

# the z-test band |z| <= K, and the share of matrix entries that must lie
# in it
K = 4.0
FRAC_REQUIRED = 0.95


@dataclass
class VerificationReport:
    """One verified statistic: estimate vs target under an explicit rule.

    rule is machine-readable:  "|z| <= K"  for standard-error tests, or
    "estimate <= target" for deterministic residual bounds.
    """

    statistic: str
    estimate: float
    se: float
    target: float
    z: Optional[float]
    rule: str
    passed: bool
    replicas: int = 0
    grid: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d


def mean_se(samples) -> tuple[float, float]:
    """Sample mean and its standard error (unbiased variance)."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("mean_se needs at least 2 samples")
    m = float(x.mean())
    se = float(x.std(ddof=1) / math.sqrt(x.size))
    return m, se


def var_se(samples) -> tuple[float, float]:
    """Sample variance (unbiased) and its standard error var sqrt(2/(R-1)),
    exact for Gaussian samples."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("var_se needs at least 2 samples")
    var = float(x.var(ddof=1))
    return var, var * math.sqrt(2.0 / (x.size - 1))


def z_test(estimate: float, se: float, target: float, name: str = "",
           replicas: int = 0, grid: dict | None = None) -> VerificationReport:
    """Pass iff |estimate - target| <= K * se."""
    if se < 0.0:
        raise ValueError("se must be nonnegative")
    if se == 0.0:
        # degenerate: exact match passes with z = 0, anything else is an
        # infinite-z failure
        z = 0.0 if estimate == target else math.inf
        ok = estimate == target
    else:
        z = (estimate - target) / se
        ok = abs(z) <= K
    return VerificationReport(
        statistic=name, estimate=float(estimate), se=float(se),
        target=float(target), z=float(z), rule=f"|z| <= {K:g}",
        passed=bool(ok), replicas=replicas, grid=grid or {})


def residual_report(name: str, residual: float, tol: float,
                    grid: dict | None = None) -> VerificationReport:
    """Deterministic bound: pass iff residual <= tol."""
    return VerificationReport(
        statistic=name, estimate=float(residual), se=0.0, target=float(tol),
        z=None, rule="estimate <= target", passed=bool(residual <= tol),
        replicas=0, grid=grid or {})


def matrix_compare(emp: np.ndarray, analytic: np.ndarray, se: np.ndarray,
                   name: str = "", replicas: int = 0,
                   grid: dict | None = None) -> VerificationReport:
    """Entrywise comparison: pass iff >= 95% of entries lie within K*se of the
    target and no entry strays beyond 2K*se.  As in z_test, an entry with
    se = 0 has z = 0 on an exact match and z = inf otherwise."""
    emp = np.asarray(emp, dtype=float)
    analytic = np.asarray(analytic, dtype=float)
    se = np.asarray(se, dtype=float)
    if not (emp.shape == analytic.shape == se.shape):
        raise ValueError("matrix_compare: shape mismatch")
    if np.any(se < 0.0):
        raise ValueError("se must be nonnegative")
    diff = np.abs(emp - analytic)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(diff == 0.0, 0.0, diff / se)
    frac = float(np.mean(z <= K))
    worst = float(z.max())
    ok = frac >= FRAC_REQUIRED and worst <= 2.0 * K
    return VerificationReport(
        statistic=name, estimate=frac, se=worst, target=FRAC_REQUIRED,
        z=None,
        rule=f"frac_within >= {FRAC_REQUIRED:g}, max|z| <= {2.0 * K:g}",
        passed=bool(ok), replicas=replicas, grid=grid or {})

