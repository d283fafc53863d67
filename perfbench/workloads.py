"""The benchmark's workloads: the heatsheet CLI calls each one makes, and why.

Every call runs at the suite's default grid; only replica counts are set.
They are large enough that a |z| <= 4 verdict fails on a seed only rarely
(a variance test takes its standard error from its own estimate, so small
samples fail low far more often than the nominal 6e-5), and small enough
that a 30 s run holds two repetitions.  `tiny` holds the same calls at
self-test size.  The benchmark appends `--seed`, `--workers` and `--out`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    why: str
    calls: tuple
    tiny: tuple
    workers: int
    suites: tuple
    # evolve only: (replicas, steps, n, basis) for the exact-count check,
    # for the full and the tiny size
    evolve_counts: tuple = ()


WORKLOADS = {
    # Sheet generation and the Monte Carlo contraction carry most of the
    # time; both contraction shapes appear (1 and 16 weight rows on ~0.2 M
    # cells for cov, 1 row on ~0.7 M / ~1.5 M cells for spde).  The only
    # workload that runs the engine on two worker threads.
    "sheet-mc": Workload(
        why="Brownian-sheet Monte Carlo: sheet draws and weight contraction "
            "dominate; the only workload on two worker threads",
        calls=(("verify-cov", "--replicas", "1000"),
               ("verify-spde", "--replicas", "300")),
        tiny=(("verify-cov", "--replicas", "16"),
              ("verify-spde", "--replicas", "16", "--n", "128")),
        workers=2,
        suites=("cov", "spde"),
    ),
    # frac_laplacian FFTs and the per-step Python loop of sde.evolve; the
    # generator is hit with many small draws; the MC engine is not used, so
    # a change there should not move this workload.
    "evolve": Workload(
        why="spatial SDE: per-step spectral transforms and Python loop, many "
            "small draws; bypasses the Monte Carlo engine",
        calls=(("evolve", "--replicas", "500"),),
        tiny=(("evolve", "--replicas", "4", "--n", "256", "--Z", "0.25"),),
        workers=1,
        suites=("evolve",),
        evolve_counts=((500, 80, 1024, 80), (4, 10, 256, 80)),
    ),
    # Deterministic weight builds, the l_nu quadratures and the Abel
    # operators; sheet generation is a small share, so a generator change
    # should barely move this workload.
    "quadrature": Workload(
        why="deterministic weight builds, l_nu quadratures and Abel "
            "operators; sheet generation is a small share",
        calls=(("verify-ops",),
               ("verify-drift", "--replicas", "200")),
        tiny=(("verify-ops",),
              ("verify-drift", "--replicas", "16", "--tmax", "4")),
        workers=1,
        suites=("ops", "drift"),
    ),
}
