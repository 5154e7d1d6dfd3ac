"""Independent oracles shared by the test modules.

These deliberately avoid the code paths they certify: the monotone
projection oracle enumerates active sets instead of pooling, the l1
threshold oracle bisects instead of sorting, the NNLS and l1 least-squares
oracles enumerate supports (and signs), the monotone least-squares oracle
runs scipy's bounded least squares on increments, the divergence oracle differentiates
numerically, and the gradient mapping takes its step from an exact
spectral norm instead of power iteration.  The orthant fixed-point oracle
integrates the projection error directly and solves the risk equation by
bracketing, without the kernels G/H or the package's root-finder; the
generic fixed-point oracle runs scipy's ``brentq`` on any E err map.  The
monotone tangent-cone dimension is the exact sum of harmonic numbers over
the signal's constant blocks; the l1 ball's tangent-cone projection is a
one-dimensional minimization per row, solved by Brent's method.  ``process_rows_reference`` keeps the
Monte Carlo process reductions as first written, one temporary per
expression, as the bit-for-bit reference of the in-place version.
"""

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import null_space
from scipy.optimize import brentq, lsq_linear
from scipy.stats import norm

from riskfix.constraints import ConstraintSet, l1_threshold, project, project_rows, row_sq_norms


def monotone_projection_oracle(x: np.ndarray) -> np.ndarray:
    """Exhaustive active-set QP: best feasible block-averaging of x.

    Every candidate is feasible (nondecreasing), and the true projection is
    among the candidates, so the distance minimizer is the projection.
    """
    n = x.size
    best, best_dist = None, np.inf
    for pattern in itertools.product([0, 1], repeat=n - 1):
        fit = np.empty(n)
        start = 0
        for i in range(n):
            if i == n - 1 or pattern[i] == 0:
                fit[start : i + 1] = x[start : i + 1].mean()
                start = i + 1
        if np.any(np.diff(fit) < 0):
            continue
        dist = float(np.sum((x - fit) ** 2))
        if dist < best_dist:
            best, best_dist = fit, dist
    return best


def monotone_tangent_oracle(mu0) -> float:
    """Exact dimension of the monotone cone's tangent cone at mu0: sum_j H_{n_j}.

    The tangent cone is the product of monotone cones over the runs of
    equal values of mu0 (sizes n_j), and the monotone cone in R^k has
    statistical dimension H_k = 1 + 1/2 + ... + 1/k (Amelunxen, Lotz, McCoy
    & Tropp 2014).
    """
    sizes = [len(list(run)) for _, run in itertools.groupby(np.asarray(mu0, dtype=float))]
    return float(sum(sum(1.0 / i for i in range(1, k + 1)) for k in sizes))


def l1_tangent_oracle(mu0, H: np.ndarray) -> np.ndarray:
    """Per-row ||Pi_T(h)||^2 for the tangent cone T of the l1 ball at mu0 on its sphere.

    With S = supp mu0 and s = sign mu0, the polar cone of T is
    {tau g : tau >= 0, g_S = s_S, |g_i| <= 1 off S}, so by Moreau's
    decomposition ||Pi_T(h)||^2 = min_{tau >= 0} f(tau) with
    f(tau) = sum_S (h_i - tau s_i)^2 + sum_{off S} (|h_i| - tau)_+^2.
    f is convex; its derivative is continuous, increasing, nonnegative at
    tau = max |h_i|, and its root (or tau = 0) is found by Brent's method.
    """
    mu0 = np.asarray(mu0, dtype=float)
    on = mu0 != 0.0
    s = np.sign(mu0[on])
    out = np.empty(len(H))
    for i, h in enumerate(np.asarray(H, dtype=float)):
        inner, outer = h[on], np.abs(h[~on])

        def slope(tau):
            return tau * s.size - float(s @ inner) - float(np.maximum(outer - tau, 0.0).sum())

        top = float(np.abs(h).max())
        tau = 0.0 if slope(0.0) >= 0.0 else brentq(slope, 0.0, top, xtol=1e-15)
        out[i] = float(((inner - tau * s) ** 2).sum() + (np.maximum(outer - tau, 0.0) ** 2).sum())
    return out


def process_rows_reference(K: ConstraintSet, mu0: np.ndarray, sigma: float, H: np.ndarray):
    """err, lrt and dof rows of ``y = mu0 + sigma h``, one temporary per expression."""
    Y = mu0 + sigma * H
    fits = project_rows(K, Y)
    diffs = fits - mu0
    err = row_sq_norms(diffs)
    dof = sigma * np.einsum("ij,ij->i", diffs, H)
    resid = Y - fits
    lrt = sigma * sigma * row_sq_norms(H) - row_sq_norms(resid)
    return err, lrt, dof


def nnls_oracle(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Exhaustive support enumeration for tiny non-negative least squares."""
    n = X.shape[1]
    best, best_obj = np.zeros(n), float(Y @ Y)
    for support in itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(1, n + 1)
    ):
        cols = list(support)
        coef, *_ = np.linalg.lstsq(X[:, cols], Y, rcond=None)
        if np.any(coef < 0):
            continue
        mu = np.zeros(n)
        mu[cols] = coef
        obj = float(np.linalg.norm(Y - X @ mu) ** 2)
        if obj < best_obj:
            best, best_obj = mu, obj
    return best


def l1_lsq_oracle(X: np.ndarray, Y: np.ndarray, radius: float) -> np.ndarray:
    """Exhaustive least squares over the l1 ball of ``radius``, for tiny n.

    A unique minimizer either lies inside, where it is the unconstrained
    least-squares solution, or on the sphere in the relative interior of the
    face with support S and signs s, where it minimizes over the affine set
    {z : z off S = 0, s^T z = radius}.  That set is parametrized as
    radius * s / |S| plus the null space of s^T, and solved by lstsq; the
    candidate with the smallest objective among those that keep their face
    (signs s on S) wins.
    """
    n = X.shape[1]
    best, best_obj = None, np.inf

    def consider(mu):
        nonlocal best, best_obj
        obj = float(np.linalg.norm(Y - X @ mu) ** 2)
        if obj < best_obj:
            best, best_obj = mu, obj

    inside, *_ = np.linalg.lstsq(X, Y, rcond=None)
    if np.abs(inside).sum() < radius:
        consider(inside)
    for k in range(1, n + 1):
        for support in itertools.combinations(range(n), k):
            cols = list(support)
            for signs in itertools.product((-1.0, 1.0), repeat=k):
                s = np.array(signs)
                base = radius * s / k
                N = null_space(s[None, :])
                z = base
                if N.shape[1]:
                    w, *_ = np.linalg.lstsq(X[:, cols] @ N, Y - X[:, cols] @ base, rcond=None)
                    z = base + N @ w
                if np.all(s * z > 0.0):
                    mu = np.zeros(n)
                    mu[cols] = z
                    consider(mu)
    return best


def monotone_lsq_oracle(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Least squares over the monotone cone by bounded least squares on increments.

    mu = c 1 + cumsum([0, z]) with c free and z >= 0 maps onto the
    nondecreasing vectors, so scipy's bounded-variable least squares (BVLS,
    an active-set method) on (c, z) gives the minimizer.
    """
    n = X.shape[1]
    T = np.tril(np.ones((n, n)))  # column 0: the constant; column j: a step at j
    bounds = (np.r_[-np.inf, np.zeros(n - 1)], np.full(n, np.inf))
    fit = lsq_linear(X @ T, Y, bounds=bounds, method="bvls", tol=1e-15)
    return T @ fit.x


def relative_gradient_mapping(
    K: ConstraintSet, X: np.ndarray, Y: np.ndarray, mu: np.ndarray
) -> float:
    """KKT residual of ||Y - X mu||^2 / (2m) over K at mu, relative to the data.

    The gradient mapping ||mu - Pi_K(mu - s grad f(mu))|| / s, with the exact
    step s = m / ||X||_2^2 (a dense SVD, not power iteration), divided by
    ||X^T Y|| / m.  It is zero exactly at the minimizers.
    """
    m = X.shape[0]
    s = m / np.linalg.norm(X, 2) ** 2
    grad = -(X.T @ (Y - X @ mu)) / m
    mapping = np.linalg.norm(mu - project(K, mu - s * grad).point) / s
    return float(mapping / (np.linalg.norm(X.T @ Y) / m))


def fd_divergence(K: ConstraintSet, x: np.ndarray, eps: float = 1e-6) -> float:
    """Central finite-difference trace of the projection Jacobian."""
    total = 0.0
    for i in range(K.n):
        e = np.zeros(K.n)
        e[i] = eps
        plus = project(K, x + e).point[i]
        minus = project(K, x - e).point[i]
        total += (plus - minus) / (2.0 * eps)
    return total


def near_tie(K: ConstraintSet, x: np.ndarray, gap: float = 1e-6) -> bool:
    """Points within `gap` of a non-differentiability set, to skip in FD tests."""
    if K.kind == "orthant":
        return bool(np.any(np.abs(x) < gap))
    if K.kind == "monotone_cone":
        res = project(K, x)
        means = np.unique(res.point)
        return bool(np.any(np.diff(means) < gap))
    if K.kind == "l1_ball":
        s = np.abs(x).sum()
        if abs(s - K.radius) < gap * K.n:
            return True
        if s <= K.radius:
            return False
        mu = l1_threshold(x, K.radius)
        return bool(np.any(np.abs(np.abs(x) - mu) < gap))
    return False


def l1_threshold_oracle(x: np.ndarray, radius: float) -> float:
    """The mu > 0 with sum_i (|x_i| - mu)_+ = radius, by bisection.

    The left side falls continuously from ||x||_1 > radius at mu = 0 to 0 at
    mu = max |x_i|, so halving that bracket until it stops shrinking finds
    the root to the last bit or so, with no sorting or candidate search.
    """
    a = np.abs(np.asarray(x, dtype=float))
    lo, hi = 0.0, float(a.max())
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if np.maximum(a - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid


def orthant_fixed_point_oracle(mu0, m: int, sigma: float = 1.0):
    """Root of the orthant risk equation, with E dof and the R2 statistic.

    Solves ``E ||max(mu0 + w h, 0) - mu0||^2 = n r^2`` for
    ``w = sqrt((r^2 + sigma^2) n / m)`` by Brent's method, each coordinate's
    error integrated by quadrature.  Returns ``(r_sq, dof, r2)`` with
    ``dof = sum_i P(mu0_i + w h_i > 0)`` and ``r2 = 1 + w^2 (dof - m) /
    (n sigma^2)``, the residual non-degeneracy statistic at the root: it is
    at least 1 exactly when the sequence-model degrees of freedom reach m.
    """
    values, counts = np.unique(np.asarray(mu0, dtype=float), return_counts=True)
    n = int(counts.sum())
    if not m > n / 2.0:
        raise ValueError("the orthant risk equation has a root only for m > n/2")

    def coordinate_err(mu, w):
        # y = mu + w z is kept when positive (error w^2 z^2), else set to 0
        kept, _ = quad(lambda z: (w * z) ** 2 * norm.pdf(z), -mu / w, math.inf,
                       epsabs=1e-13, epsrel=1e-12)
        return kept + mu * mu * norm.cdf(-mu / w)

    def omega(r_sq):
        return math.sqrt((r_sq + sigma**2) * n / m)

    def excess(r_sq):
        w = omega(r_sq)
        return sum(c * coordinate_err(v, w) for v, c in zip(values, counts)) - n * r_sq

    hi = sigma**2
    while excess(hi) > 0.0:
        hi *= 2.0
    r_sq = brentq(excess, 0.0, hi, xtol=1e-13, rtol=1e-13)
    w = omega(r_sq)
    dof = float(sum(c * norm.cdf(v / w) for v, c in zip(values, counts)))
    return r_sq, dof, 1.0 + w * w * (dof - m) / (n * sigma**2)


def fixed_point_root_oracle(err, n: int, m: int, sigma: float = 1.0) -> tuple:
    """Root r^2 of ``err(omega(r)) = n r^2`` by scipy's ``brentq`` at xtol 1e-14.

    ``err(w)`` is E err at noise level w (a closed form, or a Monte Carlo
    mean over fixed rows) and ``omega(r) = sqrt((r^2 + sigma^2) n / m)``.
    The bracket [0, hi] doubles hi from sigma^2 until the map falls below
    n r^2.  Returns ``(r_sq, slack)``, slack being brentq's bound
    ``xtol + rtol * r_sq`` on the distance to a sign change.
    """
    def excess(r_sq):
        return err(math.sqrt((r_sq + sigma**2) * n / m)) - n * r_sq

    hi = sigma**2
    while excess(hi) > 0.0:
        hi *= 2.0
    xtol, rtol = 1e-14, 4.0 * np.finfo(float).eps
    r_sq = brentq(excess, 0.0, hi, xtol=xtol, rtol=rtol)
    return r_sq, xtol + rtol * r_sq

