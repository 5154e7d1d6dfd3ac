"""Workloads: experiment grids generated from the workload seed, and checks of their reports.

Each workload is one ``ExperimentConfig`` for ``riskfix.experiments.run_experiment``
whose ``seed`` is the benchmark's ``--seed``; everything random in a grid
(Monte Carlo theory draws, designs, noise) derives from it.  Replicate and
sample counts are sized so that two runs of a grid fit one benchmark run and
the grid time varies little from seed to seed (see README.md).
"""

import math
from dataclasses import dataclass
from typing import Callable

from riskfix.experiments import ExperimentConfig
from riskfix.fixed_point import nnls_check_R2, nnls_solve
from riskfix.kernels import DiscretePrior

BAND = (0.9, 1.1)  # acceptance band of the theory/empirical ratio
SIGMA = 1.0
NNLS_SIGNAL = 5.0


def _check_nnls(records) -> list:
    """Closed-form cells against the analytic NNLS path of a point-mass prior."""
    prior = DiscretePrior([(NNLS_SIGNAL, 1.0)])
    problems = []
    for rec in records:
        if rec.r_theory_sq is None:
            continue
        ratio = rec.m / rec.n
        r = nnls_solve(prior, ratio, SIGMA)
        r2 = nnls_check_R2(prior, r, ratio, SIGMA).statistic
        if not math.isclose(rec.r_theory_sq, r * r, rel_tol=1e-6):
            problems.append(f"{rec.experiment_id}: r_theory_sq {rec.r_theory_sq!r} != {r * r!r}")
        if not math.isclose(rec.r2_statistic, r2, rel_tol=1e-5, abs_tol=1e-12):
            problems.append(f"{rec.experiment_id}: r2_statistic {rec.r2_statistic!r} != {r2!r}")
    return problems


def _check_isotonic(records) -> list:
    """Zero-signal cells against r^2 = sigma^2 delta / (m - delta), delta = H_n.

    The monotone cone's statistical dimension is the harmonic number H_n,
    and for mu0 = 0 the fixed point has this closed form; the Monte Carlo
    solve must land within 6 of its own standard errors.
    """
    problems = []
    for rec in records:
        if rec.signal != "zero" or rec.r_theory_sq is None:
            continue
        delta = sum(1.0 / k for k in range(1, rec.n + 1))
        ref = SIGMA**2 * delta / (rec.m - delta)
        if abs(rec.r_theory_sq - ref) > 6.0 * rec.r_theory_se + 1e-12:
            problems.append(f"{rec.experiment_id}: r_theory_sq {rec.r_theory_sq!r} vs "
                            f"harmonic reference {ref!r} (se {rec.r_theory_se!r})")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    constraint: str
    signals: tuple
    sizes: tuple  # ((n, m), ...)
    replicates: int
    samples: int = 10_000
    check: Callable = None  # reference check of the records: list of problems

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            name=self.name, constraint=self.constraint, signals=self.signals,
            grid=self.sizes, sigma=SIGMA, replicates=self.replicates,
            samples=self.samples, seed=seed, solver="auto", jobs=1,
        )


WORKLOADS = {w.name: w for w in (
    # figure2-left without m=40, the documented degenerate point (R2 ~ 2.05,
    # ratio ~ 1.7): about 1.6% of its replicates run PGD to the
    # 50,000-iteration cap (~8x the mean replicate time), so even 10 of them
    # move the run time by 25% from one seed to the next.
    Workload("nnls-grid", "orthant", ("constant:5",),
             tuple((50, m) for m in (60, 100, 200, 400)), 140, check=_check_nnls),
    # figure2-right (3 signals x n=m in {100, 200, 300}) at 2,000 Monte Carlo
    # samples and 150 replicates instead of 10,000 and 200.
    Workload("isotonic-grid", "monotone_cone", ("zero", "linear", "quadratic"),
             tuple((n, n) for n in (100, 200, 300)), 150, 2_000, check=_check_isotonic),
    # The linear signal lies on the boundary of the l1 ball of radius 50.5.
    # Without m=30: about 10% of its replicates hit the PGD cap.  PGD time
    # per replicate at m=60 varies widely, hence 250 replicates.
    Workload("l1-grid", "l1_ball:50.5", ("linear",),
             tuple((100, m) for m in (60, 100)), 250, 2_000),
)}


def cell_failures(rec) -> list:
    """Why one record counts as failed: error regime, or a missing value."""
    why = []
    if rec.regime.startswith("error"):
        why.append(f"{rec.experiment_id}: {rec.regime}")
    if rec.r_theory_sq is None and rec.regime != "III":
        why.append(f"{rec.experiment_id}: no theory value in regime {rec.regime}")
    if rec.risk_emp_mean is None:
        why.append(f"{rec.experiment_id}: no empirical risk")
    return why


def off_band(rec) -> bool:
    """A cell with a theory value whose ratio is missing or outside BAND."""
    if rec.r_theory_sq is None:
        return False
    return rec.ratio is None or not BAND[0] <= rec.ratio <= BAND[1]
