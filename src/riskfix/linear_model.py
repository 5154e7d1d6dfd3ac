"""Gaussian linear measurement model: instance generation and solvers.

``Y = X mu0 + xi`` with i.i.d. N(0, 1/n) design entries.  The constrained
least squares program is solved by an AMP iteration whose Onsager term uses
the projection divergence (the isotonic piece count generalized to every
supported constraint).  The reference solver and fallback is accelerated
projected gradient (FISTA with gradient restart) that polishes once per face
by least squares on the face's affine hull, stopped on the gradient-mapping
(KKT) residual and returning its best iterate; an AMP result counts as
converged only if it passes the same test, and a rejected one starts the
fallback unless AMP blew up.  K is reached only through ``constraints``
(``project``; ``face`` and ``face_span`` for the polish), never by its kind.
Empirical risk aggregates independent replicates with per-replicate child seeds.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .constraints import ConstraintSet, face, face_span, project
from .errors import DomainError
from .seeds import child_seed, mean_se

# Objectives below this are numerical zero (interpolation regime); relative
# decrease is meaningless there.
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


@dataclass(frozen=True, eq=False)
class SolverResult:
    """Solution of the constrained program on one instance."""

    mu_hat: np.ndarray
    objective: float  # ||Y - X mu_hat||^2 / m
    iterations: int
    solver: str  # "amp" | "pgd"
    converged: bool
    risk: float  # ||mu_hat - mu0||^2 / n
    # Why AMP's result was rejected: "blowup" or "cap" (set by amp_solve),
    # "uncertified" (by solve_instance); carried onto the fallback's result.
    # None for an accepted AMP result and for PGD alone.
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
    mu0 = np.asarray(mu0, dtype=float)
    if mu0.shape != (n,):
        raise DomainError(f"mu0 must be a vector of length {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    X = rng.standard_normal((m, n)) / math.sqrt(n)
    xi = sigma * rng.standard_normal(m)
    Y = X @ mu0 + xi
    return DesignInstance(X=X, xi=xi, Y=Y, mu0=mu0, seed=seed)


def amp_solve(
    K: ConstraintSet,
    inst: DesignInstance,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> SolverResult:
    """Approximate message passing for the constrained least squares program.

    Iteration (design entries N(0, 1/n), so the AMP literature's 1/m scaling
    is absorbed into the n/m factor):

        mu^{t+1} = Pi_K( (n/m) X^T r^t + mu^t )
        r^{t+1}  = Y - X mu^{t+1} + (k_t / m) r^t

    with k_t the projection divergence at the pre-projection point, starting
    from mu^0 = 0, r^0 = Y.  Stops unconverged when the iterate norm exceeds
    1e6 * (||mu0|| + sqrt(n) * noise scale) (``fallback = "blowup"``), or
    after ``max_iter`` iterations (``"cap"``; ``"blowup"`` too if the last
    iterate fits Y worse than mu^0 does, so is still diverging).  Falling
    back to PGD is left to ``solve_instance``.
    """
    X, Y = inst.X, inst.Y
    m, n = X.shape
    noise_scale = float(np.linalg.norm(inst.xi) / math.sqrt(m))
    blowup = 1e6 * (np.linalg.norm(inst.mu0) + math.sqrt(n) * noise_scale)
    mu = np.zeros(n)
    mu_norm = 0.0
    r = Y.copy()
    converged = False
    iterations, fallback = max_iter, "cap"
    # ||v|| as sqrt(v.dot(v)), np.linalg.norm's own formula without its dispatch
    for t in range(max_iter):
        pr = project(K, (n / m) * (X.T @ r) + mu)
        mu_new = pr.point
        r = Y - X @ mu_new + (pr.divergence / m) * r
        new_norm = math.sqrt(mu_new.dot(mu_new))
        if new_norm > blowup:
            mu, iterations, fallback = mu_new, t + 1, "blowup"
            break
        move = mu_new - mu
        step = math.sqrt(move.dot(move)) / max(mu_norm, 1.0)
        mu, mu_norm = mu_new, new_norm
        if step < tol:
            converged = True
            iterations, fallback = t + 1, None
            break
    resid = Y - X @ mu
    objective = float(resid @ resid) / m
    if fallback == "cap" and objective > float(Y @ Y) / m:
        fallback = "blowup"
    return SolverResult(
        mu_hat=mu,
        objective=objective,
        iterations=iterations,
        solver="amp",
        converged=converged,
        risk=float(np.linalg.norm(mu - inst.mu0) ** 2) / n,
        fallback=fallback,
    )


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
    iteration.

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
    at most ``tol * ||X^T Y|| / m``, or the objective reaches numerical zero.
    Returns the best iterate, so the objective is nonincreasing in
    ``max_iter``, with ``converged = False`` if the cap is hit first.
    """
    X, Y = inst.X, inst.Y
    m, n = X.shape
    step = m / (np.linalg.eigvalsh(X @ X.T if m <= n else X.T @ X)[-1] + 1e-12)
    kkt_tol = tol * float(np.linalg.norm(X.T @ Y)) / m
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
        if math.sqrt(mapping.dot(mapping)) <= kkt_tol * step or f_new < _OBJECTIVE_FLOOR:
            converged = True
            iterations = k + 1
            break
        move = x_new - x
        new_key = face(K, x_new)
        polish = None
        if new_key == key and new_key not in tried:
            tried.add(new_key)
            polish = _face_minimizer(K, X, Y, x_new, new_key)
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
        x, Xx, key = x_new, Xx_new, new_key
    return SolverResult(
        mu_hat=best_mu,
        objective=2.0 * best_f,
        iterations=iterations,
        solver="pgd",
        converged=converged,
        risk=float(np.linalg.norm(best_mu - inst.mu0) ** 2) / n,
    )


def _face_minimizer(K: ConstraintSet, X: np.ndarray, Y: np.ndarray, x: np.ndarray, key: bytes):
    """``(z, X z)`` for the minimizer z of ||Y - X z|| over the affine hull
    {B c : s . c = radius} of x's face (``face_span``), or None unless z is
    unique (face dimension at most m) and stays on that face:
    ``face(K, z) == key``, the key of x.

    With A = X B, gathered or block-summed from X's columns by label, the
    normal equations A^T A c = A^T Y, bordered by s . c = radius on the l1
    sphere, are solved by LU, and by lstsq only if they are singular; z = B c.
    """
    label, s = face_span(K, x)
    if label is None:  # a subspace: B is its basis
        A = X @ K.basis
    else:  # X's columns on the face, summed over each block of several
        on = np.flatnonzero(label >= 0)
        A = X[:, on]
        if on.size > label.max(initial=-1) + 1:
            A = np.add.reduceat(A, np.flatnonzero(np.diff(label[on], prepend=-1)), axis=1)
    p = A.shape[1]
    if p - (s is not None) > X.shape[0]:
        return None
    G, b = A.T @ A, A.T @ Y
    if s is not None:
        G, gram = np.zeros((p + 1, p + 1)), G
        G[:p, :p] = gram
        G[p, :p] = G[:p, p] = s
        b = np.append(b, K.radius)
    try:
        c = np.linalg.solve(G, b)[:p]
    except np.linalg.LinAlgError:
        c = np.linalg.lstsq(G, b, rcond=None)[0][:p]
    z = K.basis @ c if label is None else np.append(c, 0.0)[label]
    if face(K, z) != key:
        return None
    return z, A @ c


def solve_instance(K: ConstraintSet, inst: DesignInstance, solver_choice: str = "auto") -> SolverResult:
    """Dispatch one instance to a solver.

    ``auto`` runs AMP and falls back to PGD once whenever AMP did not
    converge: it blew up, hit its iteration cap, or stopped at a point that
    fails ``_kkt_certified`` (``fallback`` says which).  PGD starts from
    AMP's last iterate after the cap or a stall, and from zero after a
    blow-up.  ``amp`` returns AMP's result marked unconverged instead.
    ``pgd`` runs PGD alone, from zero.
    """
    if solver_choice == "pgd":
        return pgd_solve(K, inst)
    result = amp_solve(K, inst)
    if result.converged and not _kkt_certified(K, inst, result.mu_hat):
        result = replace(result, converged=False, fallback="uncertified")
    if solver_choice == "amp" or result.converged:
        return result
    x0 = None if result.fallback == "blowup" else result.mu_hat
    return replace(pgd_solve(K, inst, x0=x0), fallback=result.fallback)


def _kkt_certified(K: ConstraintSet, inst: DesignInstance, mu: np.ndarray) -> bool:
    """Whether mu passes ``pgd_solve``'s KKT test at step n (AMP's update with the
    plain residual): ||mu - Pi_K(mu + (n/m) X^T (Y - X mu))|| / n is at most
    ``_KKT_TOL * ||X^T Y|| / m``.  It is zero exactly at the minimizers."""
    X, Y = inst.X, inst.Y
    m, n = X.shape
    gap = mu - project(K, mu + (n / m) * (X.T @ (Y - X @ mu))).point
    return math.sqrt(gap.dot(gap)) / n <= _KKT_TOL * float(np.linalg.norm(X.T @ Y)) / m


def run_replicates(
    K: ConstraintSet,
    mu0,
    m: int,
    n: int,
    sigma: float,
    replicates: int,
    base_seed: int = 0,
    solver_choice: str = "auto",
):
    """Independent instances with child seeds; list of SolverResult in order."""
    if replicates < 1:
        raise DomainError(f"replicates must be at least 1, got {replicates}")
    mu0 = np.asarray(mu0, dtype=float)
    results = []
    for i in range(replicates):
        inst = generate_instance(m, n, mu0, sigma, seed=child_seed(base_seed, i))
        results.append(solve_instance(K, inst, solver_choice))
    return results


def empirical_risk(
    K: ConstraintSet,
    mu0,
    m: int,
    n: int,
    sigma: float,
    replicates: int,
    base_seed: int = 0,
    solver_choice: str = "auto",
):
    """Monte Carlo risk of the constrained LSE across replicates.

    Returns ``(mean, se, per_replicate)``.
    """
    if replicates < 10:
        raise DomainError("empirical_risk needs at least 10 replicates")
    results = run_replicates(K, mu0, m, n, sigma, replicates, base_seed, solver_choice)
    risks = np.array([res.risk for res in results])
    mean, se = mean_se(risks)
    return mean, se, risks.tolist()

