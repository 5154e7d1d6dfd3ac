"""Risk fixed-point equation: solver, regime classification, diagnostics.

The asymptotic risk ``r^2`` of the constrained least squares estimator in
the linear measurement model solves

    E err( omega_{m/n}(r) ) = n r^2,   omega_d(r) = sqrt((r^2 + sigma^2) / d),

which has a unique positive solution exactly when ``m > delta_K``.  The
solver runs the monotone iteration ``r_{t+1}^2 = E err(omega(r_t)) / n``
from ``r_0 = 0`` with common random numbers across iterations, so the
empirical iteration map inherits the pathwise monotone structure and the
trace is nondecreasing.  The residual non-degeneracy statistic

    (E lrt(omega_n) - E err(omega_n)) / (2 n sigma^2)

must stay below 1 for the risk characterization to apply; it is reported
with a Monte Carlo standard error.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .constraints import (
    ConstraintSet,
    MonteCarloConfig,
    statistical_dimension,
    tangent_dimension,
)
from .errors import DescriptorError, DomainError, NoSolutionError
from .kernels import DiscretePrior, prior_G, prior_H
from .sequence import orthant_err_closed_form, orthant_lrt_closed_form, process_rows
from .seeds import gaussian_rows, mean_se

SignalSpec = Union[np.ndarray, DiscretePrior]


def omega(r: float, delta: float, sigma: float) -> float:
    """Effective sequence-model noise level sqrt((r^2 + sigma^2) / delta)."""
    if not delta > 0:
        raise DomainError("delta must be positive")
    return math.sqrt((r * r + sigma * sigma) / delta)


@dataclass(frozen=True, eq=False)
class FixedPointProblem:
    """One risk-prediction instance.

    ``signal`` is either an explicit vector in K or a ``DiscretePrior`` of
    i.i.d. coordinates (orthant only).  ``mc`` is the Monte Carlo budget:
    the orthant and the subspace run their closed forms and leave it
    unused; every other set draws one Gaussian matrix from it per solve,
    and its E err, delta_K and delta_T estimates all read those rows.
    """

    constraint: ConstraintSet
    signal: SignalSpec
    m: int
    n: int
    sigma2: float
    mc: MonteCarloConfig = MonteCarloConfig()

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise DomainError("sample size m must be a positive integer")
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise DomainError("dimension n must be a positive integer")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise DomainError("noise variance sigma2 must be positive")
        if self.constraint.n != self.n:
            raise DescriptorError("constraint dimension does not match n")
        if not isinstance(self.mc, MonteCarloConfig):
            raise DescriptorError("mc must be a MonteCarloConfig")
        if isinstance(self.signal, DiscretePrior):
            if self.constraint.kind != "orthant":
                raise DescriptorError("prior signals run through the orthant analytic path only")
        else:
            mu0 = np.asarray(self.signal, dtype=float)
            if mu0.shape != (self.n,):
                raise DomainError(f"signal must be a vector of length {self.n}")
            if not np.all(np.isfinite(mu0)):
                raise DomainError("signal must be finite")


@dataclass
class FixedPointSolution:
    """Solver output: the risk root, diagnostics and regime classification.

    ``r_sq``/``omega`` are None when no solution exists (m <= delta_K up to
    the 3-SE guard band).  ``bounds`` are the a-priori brackets
    ``delta_K/(m - delta_K) <= r^2/sigma^2 <= delta_T/(m - delta_T)_+``.
    """

    r_sq: float
    omega: float
    trace: list
    status: str  # converged | no_solution | max_iterations
    delta_K: float
    delta_K_se: float
    delta_T: float
    delta_T_se: float
    regime: str  # I | II | III | indeterminate
    r2_statistic: float
    r2_se: float
    r2_holds: bool
    r2_verified: bool
    L_n: float
    bounds: tuple
    r_se: float = 0.0


class R2Check(NamedTuple):
    statistic: float
    holds: bool


def classify_regime(m, delta_k, se_k, delta_t, se_t) -> str:
    """Sampling regime relative to delta_K and delta_T with 3-SE guard bands.

    I: m above delta_T; II: between delta_K and delta_T; III: below
    delta_K; ``indeterminate`` when m falls inside a guard band.
    """
    if m < delta_k - 3.0 * se_k:
        return "III"
    if m > delta_t + 3.0 * se_t:
        return "I"
    if m > delta_k + 3.0 * se_k and m < delta_t - 3.0 * se_t:
        return "II"
    return "indeterminate"


def solve(
    problem: FixedPointProblem,
    tol: float = None,
    max_iter: int = 200,
    r0_sq: float = 0.0,
) -> FixedPointSolution:
    """Solve the fixed-point equation by the monotone iteration from r0.

    Existence is gated on ``m > delta_K`` with a 3-SE guard band around the
    Monte Carlo estimate of delta_K; within the band, or below it, the
    status is ``no_solution``.  Convergence criterion:
    ``|r_{t+1} - r_t| / max(r_t, 1e-12) < tol``; ``tol=None`` takes 1e-10
    on the closed forms and 1e-6 on Monte Carlo; a tol must lie in (0, 1).
    """
    m, n = problem.m, problem.n
    sigma2 = problem.sigma2
    sigma = math.sqrt(sigma2)
    path = _path(problem)
    if tol is None:
        tol = path.tol
    if not 0 < tol < 1:  # at 1 or above the first steps pass: "converged" certifies nothing
        raise DomainError(f"step tolerance must lie in (0, 1), got {tol}")

    delta_k, se_k = statistical_dimension(problem.constraint, path.rows)
    delta_t, se_t = path.delta_T
    l_n = math.log(1.0 + delta_t) + math.log(math.log(16.0 * n))
    if m < 10.0 * l_n:
        warnings.warn(
            f"m = {m} is below 10 * L_n = {10.0 * l_n:.2f}; the risk "
            "characterization degrades near the parametric rate",
            RuntimeWarning,
            stacklevel=2,
        )
    regime = classify_regime(m, delta_k, se_k, delta_t, se_t)
    bounds = (
        delta_k / (m - delta_k) if m > delta_k else math.inf,
        delta_t / (m - delta_t) if m > delta_t else math.inf,
    )

    if m <= delta_k + 3.0 * se_k:
        return FixedPointSolution(
            r_sq=None, omega=None, trace=[], status="no_solution",
            delta_K=delta_k, delta_K_se=se_k, delta_T=delta_t, delta_T_se=se_t,
            regime=regime, r2_statistic=None, r2_se=0.0, r2_holds=None,
            r2_verified=None, L_n=l_n, bounds=bounds,
        )

    delta = m / n
    r, trace, converged = _iterate(
        lambda r: math.sqrt(max(path.err(omega(r, delta, sigma))[0] / n, 0.0)),
        math.sqrt(max(r0_sq, 0.0)), tol, max_iter,
    )
    w = omega(r, delta, sigma)
    err_se, gap_mean, gap_se = path.final(w)
    scale = 2.0 * n * sigma2
    r2_stat = gap_mean / scale
    r2_se = gap_se / scale
    return FixedPointSolution(
        r_sq=r * r, omega=w, trace=trace,
        status="converged" if converged else "max_iterations",
        delta_K=delta_k, delta_K_se=se_k, delta_T=delta_t, delta_T_se=se_t,
        regime=regime, r2_statistic=r2_stat, r2_se=r2_se,
        r2_holds=bool(r2_stat < 1.0),
        r2_verified=bool(r2_stat + 3.0 * r2_se < 1.0),
        L_n=l_n, bounds=bounds, r_se=err_se / n,
    )


def nnls_solve(
    prior: DiscretePrior,
    ratio: float,
    sigma: float,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> float:
    """Analytic NNLS fixed point: omega_ratio(r)^2 * E G(U/omega) = r^2.

    Deterministic monotone iteration from 0; requires ratio = m/n > 1/2
    (the orthant has delta_K / n = 1/2) and 0 < tol < 1.  Returns r, not r^2.
    """
    if not ratio > 0.5:
        raise NoSolutionError("NNLS fixed point needs m/n > 1/2")
    if not 0 < sigma < math.inf:
        raise DomainError("sigma must be positive")
    if not 0 < tol < 1:
        raise DomainError(f"step tolerance must lie in (0, 1), got {tol}")

    def step(r):
        w = omega(r, ratio, sigma)
        return math.sqrt(w * w * prior_G(prior, w))

    r, _, converged = _iterate(step, 0.0, tol, max_iter)
    if not converged:
        warnings.warn("nnls_solve hit the iteration cap before the step tolerance",
                      RuntimeWarning, stacklevel=2)
    return r


def _iterate(step: Callable, r: float, tol: float, max_iter: int):
    """Monotone iteration ``r <- step(r)`` from r: (last r, r^2 trace, converged)."""
    trace = [r * r]
    prev_step = None
    for _ in range(max_iter):
        r_new = step(r)
        trace.append(r_new * r_new)
        done = _step_converged(r, r_new, prev_step, tol)
        prev_step = abs(r_new - r)
        r = r_new
        if done:
            return r, trace, True
    return r, trace, False


def _step_converged(r: float, r_new: float, prev_step, tol: float) -> bool:
    """Stop once the projected remaining distance is below tol.

    The iteration contracts linearly with an a-priori-unknown factor rho;
    the distance left after a step of size s is about s * rho / (1 - rho).
    Requiring that projection (with rho estimated from consecutive steps)
    to fall below tol/2 keeps independent runs within 5 * tol of each
    other, which the bare step criterion cannot guarantee when rho > 5/7.
    """
    step = abs(r_new - r)
    if step == 0.0:
        return True
    scale = max(r, 1e-12)
    if step / scale >= tol:
        return False
    if prev_step is None or prev_step <= 0.0:
        return False
    rho = min(step / prev_step, 0.999)
    return step * rho / (1.0 - rho) < 0.5 * tol * scale


def nnls_check_R2(prior: DiscretePrior, r: float, ratio: float, sigma: float) -> R2Check:
    """Residual non-degeneracy statistic omega^2 E H(U/omega) / sigma^2."""
    if not 0 < sigma < math.inf:
        raise DomainError("sigma must be positive")
    w = omega(r, ratio, sigma)
    stat = w * w * prior_H(prior, w) / (sigma * sigma)
    return R2Check(statistic=stat, holds=bool(stat < 1.0))


class _Path(NamedTuple):
    """How one problem evaluates E err: a closed form or Monte Carlo with CRN."""

    err: Callable  # omega -> (E err, SE)
    final: Callable  # omega -> (err SE, E(lrt - err), SE), once at the root
    delta_T: tuple  # (delta_T, SE)
    tol: float  # default step tolerance of ``solve``
    rows: np.ndarray = None  # Monte Carlo draws for E err, delta_K, delta_T; None if closed


def _path(problem: FixedPointProblem) -> _Path:
    """Closed forms for orthant and subspace, Monte Carlo for every other set."""
    K, n, signal, mc = problem.constraint, problem.n, problem.signal, problem.mc
    if isinstance(signal, DiscretePrior):
        return _Path(
            err=lambda w: (n * w * w * prior_G(signal, w), 0.0),
            final=lambda w: (0.0, 2.0 * n * w**2 * prior_H(signal, w), 0.0),
            delta_T=(n * (1.0 - signal.mass_at_zero / 2.0), 0.0),
            tol=1e-10,
        )
    mu0 = np.asarray(signal, dtype=float)
    if not K.contains(mu0):
        raise DomainError("signal must belong to the constraint set")
    if K.kind == "orthant":
        return _Path(
            err=lambda w: (orthant_err_closed_form(mu0, w), 0.0),
            final=lambda w: (0.0, orthant_lrt_closed_form(mu0, w)
                             - orthant_err_closed_form(mu0, w), 0.0),
            delta_T=tangent_dimension(K, mu0, None), tol=1e-10,
        )
    if K.kind == "subspace":
        return _Path(err=lambda w: (w**2 * K.subspace_dim, 0.0),
                     final=lambda w: (0.0, 0.0, 0.0),
                     delta_T=tangent_dimension(K, mu0, None), tol=1e-10)

    H = gaussian_rows(mc.seed, mc.samples, n)

    def err(w):
        return mean_se(process_rows(K, mu0, w, H)[0])

    def final(w):
        e, lrt, _ = process_rows(K, mu0, w, H)
        return (mean_se(e)[1],) + mean_se(lrt - e)

    return _Path(err=err, final=final, delta_T=tangent_dimension(K, mu0, H), tol=1e-6, rows=H)
