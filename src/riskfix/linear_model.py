"""Gaussian linear measurement model: instance generation and solvers.

``Y = X mu0 + xi`` with i.i.d. N(0, 1/n) design entries.  The constrained
least squares program is solved by an AMP iteration whose Onsager term uses
the projection divergence (the isotonic piece count generalized to every
supported constraint), with accelerated projected gradient (FISTA with
gradient restart) as the reference solver and fallback.  Both finish with
the same three steps, each written once: they polish a repeated, untried
face on its affine hull when its minimizer is unique (``_face_minimizer``),
converge only on a KKT certificate (``_kkt_gap_small``: PGD's gradient
mapping at step m / sigma_max(X)^2 with tol 1e-10, AMP's at step n with
tolerance ``_KKT_TOL`` = 1e-7, both relative to ``||X^T Y|| / m``), and
report objective and risk at the returned point (``_result``).  K is
reached only through ``constraints`` (``project``; ``face`` and
``face_span`` for the polish), never by its kind.  ``run_replicates``
solves one signal on independent replicates with per-replicate child seeds;
``empirical_risk`` solves several signals on each replicate's shared design
and noise and keeps their risks from converged solves only.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .constraints import ConstraintSet, face, face_span, project
from .errors import DomainError
from .seeds import child_seed

# Objectives below this are numerical zero (interpolation regime); relative
# decrease is meaningless there, so PGD stops on the KKT certificate instead.
_OBJECTIVE_FLOOR = 1e-14
_KKT_TOL = 1e-7  # relative KKT residual that certifies an AMP result


@dataclass(frozen=True, eq=False)
class DesignInstance:
    """One draw of the measurement model, reproducible from ``seed``."""

    X: np.ndarray
    xi: np.ndarray
    Y: np.ndarray
    mu0: np.ndarray
    seed: int

    @cached_property
    def xty_norm(self) -> float:
        """||X^T Y||, the scale of every KKT tolerance; computed once per instance."""
        return float(np.linalg.norm(self.X.T @ self.Y))


@dataclass(frozen=True, eq=False)
class SolverResult:
    """Solution of the constrained program on one instance."""

    mu_hat: np.ndarray
    objective: float  # ||Y - X mu_hat||^2 / m
    iterations: int
    solver: str  # "amp" | "pgd"
    converged: bool
    risk: float  # ||mu_hat - mu0||^2 / n
    # Why AMP did not converge, set by amp_solve: "blowup" | "cap"; carried
    # onto the fallback's result.  None for a converged AMP result and for PGD.
    fallback: str = None


def generate_instance(
    m: int,
    n: int,
    mu0,
    sigma: float,
    seed: int = 0,
) -> DesignInstance:
    """Draw X ~ N(0, 1/n) entries and N(0, sigma^2) noise."""
    if m < 1 or n < 1:
        raise DomainError("m and n must be positive")
    if not 0 < sigma < math.inf:
        raise DomainError("noise variance must be non-degenerate (sigma > 0)")
    mu0 = _checked_signal(mu0, n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    X = rng.standard_normal((m, n))
    X /= math.sqrt(n)
    xi = sigma * rng.standard_normal(m)
    Y = X @ mu0 + xi
    return DesignInstance(X=X, xi=xi, Y=Y, mu0=mu0, seed=seed)


def _checked_signal(mu0, n: int, K: ConstraintSet | None = None) -> np.ndarray:
    """mu0 as a float vector, checked to have length n and, given K, to lie in K."""
    mu0 = np.asarray(mu0, dtype=float)
    if mu0.shape != (n,):
        raise DomainError(f"mu0 must be a vector of length {n}")
    if K is not None and not K.contains(mu0):
        raise DomainError("signal must belong to the constraint set")
    return mu0


def amp_solve(
    K: ConstraintSet,
    inst: DesignInstance,
    max_iter: int = 30,
) -> SolverResult:
    """Approximate message passing for the constrained least squares program.

    Iteration (design entries N(0, 1/n), so the AMP literature's 1/m scaling
    is absorbed into the n/m factor):

        mu^{t+1} = Pi_K( (n/m) X^T r^t + mu^t )
        r^{t+1}  = Y - X mu^{t+1} + (k_t / m) r^t

    with k_t the projection divergence at the pre-projection point, starting
    from mu^0 = 0, r^0 = Y.  It finishes as ``pgd_solve`` does: an iterate on
    the previous one's untried face (``face``) becomes the face minimizer z
    (``_face_minimizer``) and r^t the plain Y - X z, so the next iteration
    projects what ``_kkt_certified`` projects; z is returned converged, that
    iteration counted, if the KKT test passes there (``_kkt_gap_small``), and
    AMP goes on from the projection if not.  Stops unconverged when the
    iterate norm exceeds 1e6 * sqrt(n/m) * ||Y||, a scale read from the data
    alone, of the order of ||mu0|| + sqrt(n) sigma (``fallback = "blowup"``),
    or after ``max_iter`` iterations (``"cap"``; ``"blowup"`` too if the last
    iterate fits Y worse than mu^0 does, so is still diverging).  Falling
    back to PGD is left to ``solve_instance``.

    The cap of 30 minimizes projections, AMP's and PGD's together, on the
    benchmark grids at seed 0: every isotonic-grid run converges within 20
    iterations; on nnls-grid and l1-grid a cap of 20 hands 50 and 250 runs
    to PGD (32 and 105 at 30) and costs 5% and 10% more projections, while
    40 hands 23 and 72 and costs 0.6% and 0.3% more, its longer AMP runs
    outweighing the PGD iterations they save.
    """
    X, Y = inst.X, inst.Y
    m, n = X.shape
    blowup = 1e6 * math.sqrt(n / m) * float(np.linalg.norm(Y))
    kkt_bound = _KKT_TOL * inst.xty_norm / m
    mu = np.zeros(n)
    r = Y.copy()
    key, tried, polish = None, set(), None
    converged = False
    iterations, fallback = max_iter, "cap"
    for t in range(max_iter):
        pr = project(K, (n / m) * (X.T @ r) + mu)
        if polish is not None and _kkt_gap_small(mu - pr.point, n, kkt_bound):
            converged, iterations, fallback = True, t + 1, None
            break
        mu = pr.point
        r = Y - X @ mu + (pr.divergence / m) * r
        # ||v|| as sqrt(v.dot(v)), np.linalg.norm's own formula without its dispatch
        if math.sqrt(mu.dot(mu)) > blowup:
            iterations, fallback = t + 1, "blowup"
            break
        key, polish = _face_minimizer(K, X, Y, mu, key, tried)
        if polish is not None:
            mu, r = polish[0], Y - polish[1]
    res = _result(inst, mu, "amp", iterations, converged, fallback)
    if fallback == "cap" and res.objective > float(Y @ Y) / m:
        return replace(res, fallback="blowup")
    return res


def pgd_solve(
    K: ConstraintSet,
    inst: DesignInstance,
    tol: float = 1e-10,
    max_iter: int = 50_000,
    x0: np.ndarray = None,
) -> SolverResult:
    """Accelerated projected gradient on ||Y - X mu||^2 / (2m), restarted.

    Starts from ``Pi_K(x0)``, or ``Pi_K(0)`` when ``x0`` is None; that first
    projection is the only one outside the loop, which projects once per
    iteration, plus once per iteration whose objective is below
    ``_OBJECTIVE_FLOOR``, for its certificate.

    FISTA (Beck & Teboulle 2009) with step s = m / sigma_max(X)^2 from the
    smaller Gram matrix's top eigenvalue (exact, so s <= 1/L):
    ``x+ = Pi_K(y - s grad f(y))``, then ``y = x+ + beta (x+ - x)``,
    restarted (momentum reset, ``y = x+``) whenever the gradient mapping
    points along the last step, ``(y - x+) . (x+ - x) > 0`` (O'Donoghue &
    Candes 2015).  ``X x`` is carried with ``x`` and ``X y`` formed by the
    same combination, so an iteration costs two products with X or X^T.

    Polish: projected gradient finds the minimizer's face long before it
    converges (Nutini, Schmidt & Hare 2019).  When ``x+`` lies on the same
    face as ``x`` (``face``) and that face has not been tried, ``y`` becomes
    the least-squares minimizer over the face's affine hull and momentum
    resets, as OSQP's solution polishing does (Stellato et al. 2020); only
    if that minimizer is unique and stays on the face (``_face_minimizer``).
    It projects nothing: the next iteration's stop test certifies it.

    Stops when the gradient mapping ``||y - x+|| / s`` (the KKT residual) is
    at most ``tol * ||X^T Y|| / m`` (``_kkt_gap_small``), or the objective
    reaches numerical zero at an ``x+`` that passes ``_kkt_certified``.
    Returns the best iterate, so the objective is nonincreasing in
    ``max_iter``, with ``converged = False`` if the cap is hit first.
    """
    X, Y = inst.X, inst.Y
    m, n = X.shape
    step = m / (np.linalg.eigvalsh(X @ X.T if m <= n else X.T @ X)[-1] + 1e-12)
    kkt_bound = tol * inst.xty_norm / m
    x = y = best_mu = project(K, np.zeros(n) if x0 is None else x0).point
    Xx = Xy = X @ x
    resid = Y - Xx
    best_f = float(resid @ resid) / (2.0 * m)
    t = 1.0
    key, tried = face(K, x), set()
    converged = False
    iterations = max_iter
    for k in range(max_iter):
        x_new = project(K, y + (step / m) * (X.T @ (Y - Xy))).point
        Xx_new = X @ x_new
        resid = Y - Xx_new
        f_new = float(resid @ resid) / (2.0 * m)
        if f_new <= best_f:
            best_f, best_mu = f_new, x_new
        mapping = y - x_new
        if _kkt_gap_small(mapping, step, kkt_bound) or (
                f_new < _OBJECTIVE_FLOOR and _kkt_certified(K, inst, x_new)):
            converged = True
            iterations = k + 1
            break
        move = x_new - x
        key, polish = _face_minimizer(K, X, Y, x_new, key, tried)
        if polish is not None:
            t, (y, Xy) = 1.0, polish
        elif mapping @ move > 0.0:
            t, y, Xy = 1.0, x_new, Xx_new
        else:
            t_new = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            beta = (t - 1.0) / t_new
            y = x_new + beta * move
            Xy = Xx_new + beta * (Xx_new - Xx)
            t = t_new
        x, Xx = x_new, Xx_new
    return _result(inst, best_mu, "pgd", iterations, converged)


def _face_minimizer(K: ConstraintSet, X: np.ndarray, Y: np.ndarray, x: np.ndarray, key: bytes,
                    tried: set):
    """``(face(K, x), polish)``: polish is ``(z, X z)`` for the minimizer z of
    ||Y - X z|| over the affine hull {B c : s . c = radius} of x's face
    (``face_span``), tried only when that face is ``key``, the previous
    iterate's, and not yet in ``tried`` (it is added).  None when untried, or
    unless z is unique and stays on the face: ``face(K, z)`` is x's.

    A face of more free directions than m (p columns, less one on the sphere)
    is turned down before X is read.  A = X B gathers X's face columns, or sums
    each block's from X itself (no m x n copy) when every coordinate is on the
    face; A^T A c = A^T Y, bordered by s . c = radius on the l1 sphere, is
    solved by LU, z = B c, and a singular system (dependent columns) gives none.
    """
    new_key = face(K, x)
    if new_key != key or new_key in tried:
        return new_key, None
    tried.add(new_key)
    label, s = face_span(K, x)
    p = K.basis.shape[1] if label is None else label.max(initial=-1) + 1
    if p - (s is not None) > X.shape[0]:
        return new_key, None
    if label is None:  # a subspace: B is its basis
        A = X @ K.basis
    else:  # blocks summed from X in place; singletons copied: A = X rounds A.T @ A differently
        on = np.flatnonzero(label >= 0)
        A = X if p < on.size == label.size else X[:, on]
        if on.size > p:
            A = np.add.reduceat(A, np.searchsorted(label[on], np.arange(p)), axis=1)
    G, b = A.T @ A, A.T @ Y
    if s is not None:
        G, gram = np.zeros((p + 1, p + 1)), G
        G[:p, :p] = gram
        G[p, :p] = G[:p, p] = s
        b = np.append(b, K.radius)
    try:
        c = np.linalg.solve(G, b)[:p]
    except np.linalg.LinAlgError:
        return new_key, None
    z = K.basis @ c if label is None else np.append(c, 0.0)[label]
    return new_key, (z, A @ c) if face(K, z) == new_key else None


def solve_instance(K: ConstraintSet, inst: DesignInstance, solver_choice: str = "auto") -> SolverResult:
    """Dispatch one instance to a solver.

    ``auto`` runs AMP and falls back to PGD once whenever AMP did not
    converge: it blew up or hit its iteration cap (``fallback`` says which).
    PGD starts from AMP's last iterate after the cap, and from zero after a
    blow-up.  ``amp`` returns AMP's result, converged or not.  ``pgd`` runs
    PGD alone, from zero.
    """
    if solver_choice == "pgd":
        return pgd_solve(K, inst)
    result = amp_solve(K, inst)
    if solver_choice == "amp" or result.converged:
        return result
    x0 = None if result.fallback == "blowup" else result.mu_hat
    return replace(pgd_solve(K, inst, x0=x0), fallback=result.fallback)


def _kkt_certified(K: ConstraintSet, inst: DesignInstance, mu: np.ndarray) -> bool:
    """Whether mu passes ``amp_solve``'s KKT test (AMP's update at step n with
    the plain residual): ``_kkt_gap_small`` of mu - Pi_K(mu + (n/m) X^T (Y - X mu))
    at bound ``_KKT_TOL * ||X^T Y|| / m``.  The gap is zero exactly at the minimizers."""
    X, Y = inst.X, inst.Y
    m, n = X.shape
    gap = mu - project(K, mu + (n / m) * (X.T @ (Y - X @ mu))).point
    return _kkt_gap_small(gap, n, _KKT_TOL * inst.xty_norm / m)


def _kkt_gap_small(gap: np.ndarray, step: float, bound: float) -> bool:
    """||gap|| / step, the gradient mapping at that step, is at most ``bound``."""
    return math.sqrt(gap.dot(gap)) <= bound * step


def _result(inst: DesignInstance, mu: np.ndarray, solver: str, iterations: int,
            converged: bool, fallback: str = None) -> SolverResult:
    """The ``SolverResult`` at mu, with its objective and risk."""
    resid = inst.Y - inst.X @ mu
    return SolverResult(mu_hat=mu, objective=float(resid @ resid) / inst.Y.size,
                        iterations=iterations, solver=solver, converged=converged,
                        risk=float(np.linalg.norm(mu - inst.mu0) ** 2) / mu.size, fallback=fallback)


def run_replicates(
    K: ConstraintSet,
    mu0,
    m: int,
    n: int,
    sigma: float,
    replicates: int,
    base_seed: int = 0,
    solver_choice: str = "auto",
) -> list:
    """One signal's independent instances; one SolverResult per replicate, in order.

    Replicate i draws X and xi from ``child_seed(base_seed, i)``
    (``generate_instance``).  Every result is returned, converged or not
    (``riskfix simulate`` prints them).  A signal of the wrong length, or
    outside K, is a ``DomainError`` before any instance is drawn.
    """
    if replicates < 1:
        raise DomainError(f"replicates must be at least 1, got {replicates}")
    mu0 = _checked_signal(mu0, n, K)
    return [solve_instance(K, generate_instance(m, n, mu0, sigma, seed=child_seed(base_seed, i)),
                           solver_choice)
            for i in range(replicates)]


def empirical_risk(
    K: ConstraintSet,
    signals: list,
    m: int,
    n: int,
    sigma: float,
    replicates,
    base_seed: int = 0,
    solver_choice: str = "auto",
) -> list:
    """Monte Carlo risks of the constrained LSE for several signals on shared instances.

    ``replicates`` is a count or the replicate indices to run.  Replicate i
    draws X and xi once, from ``child_seed(base_seed, i)``, and solves every
    signal (a vector, or an array with one row per replicate, in run order)
    on them with ``Y = X mu0 + xi``, the expression ``generate_instance``
    uses, so the signals share designs and noise (common random numbers) and
    each gets bit for bit the risks ``run_replicates`` gives it alone.  Returns
    each signal's per-replicate risks, for the caller to pool
    (``seeds.mean_se``), or the ``ValueError`` that stopped that signal and
    no other.  A vector's length and membership in K are checked once, an
    array's row by row, wherever the signal sits.  Only converged solves
    are pooled: a signal stops at its first unconverged replicate with a
    ``DomainError`` naming it.
    """
    signals = [np.asarray(mu, dtype=float) for mu in signals]
    indices = range(replicates) if np.isscalar(replicates) else replicates
    out = [[] for _ in signals]
    for j, i in enumerate(indices):
        inst = None
        for s, signal in enumerate(signals):
            if isinstance(out[s], ValueError):
                continue
            try:
                mu = signal if signal.ndim == 1 else signal[j]
                if j == 0 or signal.ndim > 1:  # a vector once per call, a row per replicate
                    _checked_signal(mu, n, K)
                if inst is None:
                    inst = generate_instance(m, n, mu, sigma, seed=child_seed(base_seed, i))
                else:
                    inst = replace(inst, mu0=mu, Y=inst.X @ mu + inst.xi)
                res = solve_instance(K, inst, solver_choice)
                if not res.converged:
                    raise DomainError(f"replicate {i} did not converge")
                out[s].append(res.risk)
            except ValueError as exc:
                out[s] = exc
    return out
