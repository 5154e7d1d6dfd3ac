"""Risk fixed-point equation: solver, regime classification, diagnostics.

The asymptotic risk ``r^2`` of the constrained least squares estimator in
the linear measurement model solves

    E err( omega_{m/n}(r) ) = n r^2,   omega_d(r) = sqrt((r^2 + sigma^2) / d),

which has a unique positive solution exactly when ``m > delta_K``.  With
``s = r^2`` the solver brackets the root of ``F(s) = E err(omega(sqrt s))/n - s``
and narrows the bracket by interpolation until both ends, each an
evaluation, lie within the tolerance of each other.  Every evaluation reads
the same random numbers (common random numbers), so the empirical map
inherits the pathwise structure: ``F`` is deterministic, positive below the
root and negative above it, and the sign of one evaluation certifies on
which side of the root it lies.  The residual non-degeneracy statistic

    (E lrt(omega_n) - E err(omega_n)) / (2 n sigma^2)

must stay below 1 for the risk characterization to apply; it is reported
with a Monte Carlo standard error, from the evaluation at the root.  The
root-finder sees the plain map s -> E err / n; ``solve`` keeps the rest of
each evaluation by s (Monte Carlo's three reductions, or a closed form's
call for E lrt) and reads it at the root it reports, or, where E err is
exactly omega^2 delta_K, reports sigma^2 delta_K / (m - delta_K) as it is.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .constraints import (
    ConstraintSet,
    MonteCarloConfig,
    projected_sq_norms,
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
    i.i.d. coordinates (orthant only); both are checked here, so a built
    problem is valid.  ``mc`` is the Monte Carlo budget: the orthant, and a
    signal whose tangent cone is K (0, a monotone constant, a subspace's),
    run closed forms and leave it unused; every other problem draws one
    Gaussian matrix from it per solve, which its E err estimates (with the
    apex control on the monotone cone) and delta_T on the l1 sphere read;
    delta_K and every other delta_T are exact.
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
            if not self.constraint.contains(mu0):
                raise DomainError("signal must belong to the constraint set")


@dataclass
class FixedPointSolution:
    """Solver output: the risk root, diagnostics and regime classification.

    ``r_sq``/``omega`` are None when no solution exists (m <= delta_K, which
    is exact).  ``bounds`` are the a-priori brackets
    ``delta_K/(m - delta_K) <= r^2/sigma^2 <= delta_T/(m - delta_T)_+``.
    ``trace`` is the bracket's lower end after each evaluation of E err,
    starting at ``r0_sq``, so ``len(trace) - 1`` evaluations were made; an
    exact root counts as one.
    ``bracket`` is ``(lo, hi)`` in r^2, both ends evaluated, with the root
    between them; 0 and inf stand for an end not evaluated yet, and it is
    None without a solution.
    """

    r_sq: float
    omega: float
    trace: list
    status: str  # converged | no_solution | max_iterations
    delta_K: float
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
    bracket: tuple = None


class R2Check(NamedTuple):
    statistic: float
    holds: bool


def classify_regime(m, delta_k, delta_t, se_t) -> str:
    """Sampling regime relative to delta_K (exact) and delta_T with a 3-SE guard band.

    I: m above delta_T; II: between delta_K and delta_T; III: below
    delta_K; ``indeterminate`` when m equals delta_K or falls inside the
    guard band.
    """
    if m < delta_k:
        return "III"
    if m > delta_t + 3.0 * se_t:
        return "I"
    if delta_k < m < delta_t - 3.0 * se_t:
        return "II"
    return "indeterminate"


def solve(
    problem: FixedPointProblem,
    tol: float = None,
    max_iter: int = 200,
    r0_sq: float = 0.0,
) -> FixedPointSolution:
    """Solve the fixed-point equation by bracketing its root from r0.

    Existence is gated on ``m > delta_K`` (exact) before any rows are drawn;
    otherwise the status is ``no_solution``.  Where T_K(mu0) = K, the root
    ``sigma^2 delta_K / (m - delta_K)`` is reported as it is, with trace
    ``[r0_sq, r^2]``, bracket ``(r^2, r^2)``, and ``r_se`` and R2 statistic
    0.  Else, convergence criterion: evaluated ends ``lo <= r^2 <= hi`` with
    ``sqrt(hi) - sqrt(lo) <= tol * sqrt(lo)``; ``tol=None`` takes 1e-10 on
    the closed forms and 1e-6 on Monte Carlo; a tol must lie in (0, 1).
    ``max_iter`` caps the evaluations of E err; it must be at least 1, and
    both are checked before any work.  The root is reported at
    ``lo``, and the R2 statistic and ``r_se`` come from the evaluation
    there.  Past the gate, ``m`` below ``10 * L_n`` warns (RuntimeWarning)
    that the characterization degrades.
    """
    m, n = problem.m, problem.n
    sigma2 = problem.sigma2
    sigma = math.sqrt(sigma2)
    # at tol 1 or above the first steps pass: "converged" certifies nothing
    if tol is not None and not 0 < tol < 1:
        raise DomainError(f"step tolerance must lie in (0, 1), got {tol}")
    if not max_iter >= 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")
    delta_k = statistical_dimension(problem.constraint)
    delta_t, se_t = exact = _exact_tangent_dimension(problem)
    # the gate draws no rows: the l1 ball's delta_K is 0 < m, so below it delta_T is exact
    if m > delta_k:
        err, (delta_t, se_t), default_tol = _path(problem, delta_k, exact)
        tol = default_tol if tol is None else tol

    l_n = math.log(1.0 + delta_t) + math.log(math.log(16.0 * n))
    regime = classify_regime(m, delta_k, delta_t, se_t)
    bounds = (
        delta_k / (m - delta_k) if m > delta_k else math.inf,
        delta_t / (m - delta_t) if m > delta_t else math.inf,
    )

    if m <= delta_k:
        return FixedPointSolution(
            r_sq=None, omega=None, trace=[], status="no_solution",
            delta_K=delta_k, delta_T=delta_t, delta_T_se=se_t,
            regime=regime, r2_statistic=None, r2_se=0.0, r2_holds=None,
            r2_verified=None, L_n=l_n, bounds=bounds,
        )
    if m < 10.0 * l_n:
        warnings.warn(
            f"m = {m} is below 10 * L_n = {10.0 * l_n:.2f}; the risk "
            "characterization degrades near the parametric rate",
            RuntimeWarning,
            stacklevel=2,
        )

    delta = m / n
    if err is None:  # exact: nothing to estimate or bracket
        r_sq = sigma2 * delta_k / (m - delta_k)
        bracket, trace, converged, rest = (r_sq, r_sq), [max(r0_sq, 0.0), r_sq], True, (0.0,) * 3
    else:
        finals = {}  # s -> the rest of its evaluation, read at the reported root

        def g(s):
            e, finals[s] = err(omega(math.sqrt(s), delta, sigma))
            return e / n

        r_sq, bracket, trace, converged = _root(
            g, max(r0_sq, 0.0), sigma2, delta_k / m, tol, max_iter)
        rest = finals[r_sq]()
    err_se, gap_mean, gap_se = rest
    scale = 2.0 * n * sigma2
    r2_stat = gap_mean / scale
    r2_se = gap_se / scale
    return FixedPointSolution(
        r_sq=r_sq, omega=omega(math.sqrt(r_sq), delta, sigma), trace=trace,
        status="converged" if converged else "max_iterations",
        delta_K=delta_k, delta_T=delta_t, delta_T_se=se_t,
        regime=regime, r2_statistic=r2_stat, r2_se=r2_se,
        r2_holds=bool(r2_stat < 1.0),
        r2_verified=bool(r2_stat + 3.0 * r2_se < 1.0),
        L_n=l_n, bounds=bounds, r_se=err_se / n, bracket=bracket,
    )


def nnls_solve(
    prior: DiscretePrior,
    ratio: float,
    sigma: float,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> float:
    """Analytic NNLS fixed point: omega_ratio(r)^2 * E G(U/omega) = r^2.

    Deterministic, bracketed from 0 by the same root-finder as ``solve``;
    requires ratio = m/n > 1/2 (the orthant has delta_K / n = 1/2) and
    0 < tol < 1.  ``max_iter`` (at least 1) caps the evaluations.  Returns r, not r^2.
    """
    if not ratio > 0.5:
        raise NoSolutionError("NNLS fixed point needs m/n > 1/2")
    if not 0 < sigma < math.inf:
        raise DomainError("sigma must be positive")
    if not 0 < tol < 1:
        raise DomainError(f"step tolerance must lie in (0, 1), got {tol}")
    if not max_iter >= 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")

    def g(s):
        w = omega(math.sqrt(s), ratio, sigma)
        return w * w * prior_G(prior, w)

    r_sq, _, _, converged = _root(g, 0.0, sigma * sigma, 0.5 / ratio, tol, max_iter)
    if not converged:
        warnings.warn("nnls_solve hit the iteration cap before the step tolerance",
                      RuntimeWarning, stacklevel=2)
    return math.sqrt(r_sq)


def _root(g: Callable, s0: float, c: float, phi_inf: float, tol: float, max_iter: int):
    """Bracket the root of F(s) = g(s) - s from s0 and narrow it to tol in sqrt(s).

    ``g(s)`` returns a float, nondecreasing in s, and phi = g(s) / (s + c) is
    nonincreasing with limit ``phi_inf`` < 1 as s -> inf (c = sigma^2,
    phi_inf = delta_K / m).  So F is positive below its one root and negative
    above it, and with t = s / (s + c) the root is where phi = t: an end's
    phi bounds the root's t from the other side.
    Steps interpolate f = F / (s + c) = phi - t against u = c / (s + c),
    where f is linear when phi is constant (a cone at mu0 = 0):
      - from above, before any lower end: t = phi, a lower bound;
      - after the first evaluation: t = phi, exact for a constant phi;
      - then inverse quadratic interpolation through the last three
        evaluations (Brent 1973), or, if it leaves the bracket, false
        position with the Illinois halving (Dowell & Jarratt 1971); until an
        upper end is evaluated, the bracket's upper end is u = 0 (s = inf),
        where f tends to phi_inf - 1;
      - a point within tol/4 of the lower end (in sqrt(s)) moves up by
        tol/8, past the root, and one within tol of the lower end or 3tol/4
        of the upper end moves down by tol/8, so the last two evaluations
        straddle the root and the lower end lies within about tol/4 of it.

    Returns ``(s, (lo, hi), trace, converged)``: the lower end (s0 while
    none is evaluated), the bracket (0 and inf for an end not evaluated),
    and the lower end after each evaluation, starting at s0.  ``max_iter``
    (at least 1) caps the evaluations.
    """
    lo, hi = 0.0, math.inf  # evaluated ends, or 0 and inf (f_lo is None until lo is)
    u_lo, f_lo, u_hi, f_hi = 1.0, None, 0.0, phi_inf - 1.0  # false-position ends
    side = None  # the end the last evaluation replaced
    points = []  # (u, f) of the last three evaluations
    trace = [s0]
    s = s0
    for _ in range(max_iter):
        value = g(s)
        u, f = c / (s + c), (value - s) / (s + c)
        if value >= s:
            lo = s
            if side == "lo":
                f_hi /= 2.0
            u_lo, f_lo, side = u, f, "lo"
        if value <= s:
            hi = s
            if side == "hi" and f_lo is not None:
                f_lo /= 2.0
            u_hi, f_hi, side = u, f, "hi"
        trace.append(s0 if f_lo is None else lo)
        # an end not evaluated fails this test: sqrt(inf) is inf, and 0 < sqrt(hi)
        if math.sqrt(hi) - math.sqrt(lo) <= tol * math.sqrt(lo):
            return lo, (lo, hi), trace, True
        points = (points + [(u, f)])[-3:]
        if f_lo is None:
            s = c * value / (s + c - value)
            continue
        u = _interpolate(points) if len(points) > 1 else 1.0 - value / (s + c)
        if not u_hi < u < u_lo:
            u = u_lo - f_lo * (u_hi - u_lo) / (f_hi - f_lo)
        r = math.sqrt(c / u - c)
        above_lo = r - math.sqrt(lo)
        if above_lo <= 0.25 * tol * r:
            r += 0.125 * tol * r
        elif above_lo <= tol * r or math.sqrt(hi) - r <= 0.75 * tol * r:
            r -= 0.125 * tol * r
        s = r * r
    return trace[-1], (lo, hi), trace, False


def _interpolate(points) -> float:
    """u at f = 0 on the polynomial in f through the points (u, f); nan on a repeated f."""
    total = 0.0
    for i, (u, f) in enumerate(points):
        weight = 1.0
        for j, (_, other) in enumerate(points):
            if j != i:
                if other == f:
                    return math.nan
                weight *= other / (other - f)
        total += u * weight
    return total


def nnls_check_R2(prior: DiscretePrior, r: float, ratio: float, sigma: float) -> R2Check:
    """Residual non-degeneracy statistic omega^2 E H(U/omega) / sigma^2."""
    if not 0 < sigma < math.inf:
        raise DomainError("sigma must be positive")
    w = omega(r, ratio, sigma)
    stat = w * w * prior_H(prior, w) / (sigma * sigma)
    return R2Check(statistic=stat, holds=bool(stat < 1.0))


def _exact_tangent_dimension(problem: FixedPointProblem):
    """``(delta_T, 0.0)`` with no rows where it is exact (a prior, a cone); else ``(None, None)``."""
    K, signal = problem.constraint, problem.signal
    if isinstance(signal, DiscretePrior):
        return problem.n * (1.0 - signal.mass_at_zero / 2.0), 0.0
    if K.is_cone:
        return tangent_dimension(K, np.asarray(signal, dtype=float), None)
    return None, None


def _path(problem: FixedPointProblem, delta_k: float, exact: tuple):
    """How one problem evaluates E err: ``(err, (delta_T, SE), default tol)``.

    ``exact`` is ``_exact_tangent_dimension(problem)``.

    ``err(omega)`` returns E err and a call for the rest of the evaluation,
    (err SE, E(lrt - err), SE), which ``solve`` makes only at its root:
    closed forms (tol 1e-10) compute E lrt there; Monte Carlo with common
    random numbers (tol 1e-6) reduces its rows at once and keeps three
    floats.  A cone's T_K(mu0) is K itself iff delta_T = delta_K: mu0 is in
    K's lineality space (0, a constant on the monotone cone, a subspace), so
    Pi_K(mu0 + omega h) - mu0 = omega Pi_K(h), E err = omega^2 delta_K and
    lrt = err; ``err`` is then None.  On the monotone cone, row i's err
    carries the control omega^2 (c_i - delta_K), c_i = ||Pi_K(h_i)||^2 with
    mean H_n exactly: phi shifts by the constant -(mean c - H_n)/m, so it
    stays nonincreasing with limit delta_K/m, and the SE shrinks.
    """
    K, n, signal, mc = problem.constraint, problem.n, problem.signal, problem.mc
    if isinstance(signal, DiscretePrior):
        return (lambda w: (n * w * w * prior_G(signal, w),
                           lambda: (0.0, 2.0 * n * w**2 * prior_H(signal, w), 0.0)),
                exact, 1e-10)
    mu0 = np.asarray(signal, dtype=float)
    if exact == (delta_k, 0.0):  # T_K(mu0) = K, so Pi_K(mu0 + omega h) - mu0 = omega Pi_K(h)
        return None, exact, 1e-10
    if K.kind == "orthant":
        def orthant_err(w):
            e = orthant_err_closed_form(mu0, w)
            return e, lambda: (0.0, orthant_lrt_closed_form(mu0, w) - e, 0.0)

        return orthant_err, exact, 1e-10

    H = gaussian_rows(mc.seed, mc.samples, n)
    control = projected_sq_norms(K, H) - delta_k if K.is_cone else 0.0  # the l1 ball has none

    def err(w):
        e, lrt, _ = process_rows(K, mu0, w, H)
        mean, se = mean_se(e - w * w * control)
        rest = (se,) + mean_se(lrt - e)
        return mean, lambda: rest

    return err, exact if K.is_cone else tangent_dimension(K, mu0, H), 1e-6
