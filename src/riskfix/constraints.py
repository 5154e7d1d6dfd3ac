"""Projection operators for the supported convex constraint sets.

Four set kinds are implemented: the non-negative orthant, the monotone
(isotonic) cone, the l1 ball, and a linear subspace given by an orthonormal
basis.  Each set knows its Euclidean projection, the a.e. divergence
(trace of the projection Jacobian, the degrees-of-freedom count), the polar
decomposition for cone kinds, the face holding a point, and its statistical
and tangent-cone dimensions: exact, but Monte Carlo on the l1 sphere.

All operations are pure; Monte Carlo estimators average over rows from
``seeds.gaussian_rows`` (one seeded stream per matrix, read row by row) and
accumulate in index order, so results do not depend on scheduling.
"""

from dataclasses import dataclass

import numpy as np

# isotonic_regression's PAVA core, called without its wrapper, which costs more
# than the fit, and loaded without scipy.optimize's import (tests pin both).
from ._scipy_core import pava
from .errors import DescriptorError, DomainError, UnsupportedKindError
from .seeds import gaussian_rows, mean_se

KINDS = ("orthant", "monotone_cone", "l1_ball", "subspace")
CONE_KINDS = ("orthant", "monotone_cone", "subspace")


@dataclass(frozen=True)
class MonteCarloConfig:
    """Sample count and base seed for the Monte Carlo estimators."""

    samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 100:
            raise DomainError("Monte Carlo estimators need at least 100 samples")


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Descriptor of a closed convex set K in R^n.

    Parameters
    ----------
    kind : str
        One of ``orthant``, ``monotone_cone``, ``l1_ball``, ``subspace``.
    n : int
        Ambient dimension.
    radius : float, optional
        l1-ball radius (required for, and only for, ``l1_ball``).
    basis : ndarray, optional
        (n, d) matrix with orthonormal columns (``subspace`` only).
    """

    kind: str
    n: int
    radius: float = None
    basis: np.ndarray = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DescriptorError(f"unknown constraint kind {self.kind!r}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise DescriptorError("ambient dimension n must be a positive integer")
        if self.kind == "l1_ball":
            if self.radius is None or not np.isfinite(self.radius) or self.radius <= 0:
                raise DescriptorError("l1_ball needs a positive radius")
        elif self.radius is not None:
            raise DescriptorError(f"radius is only valid for l1_ball, not {self.kind}")
        if self.kind == "subspace":
            b = self.basis
            if b is None or b.ndim != 2 or b.shape[0] != self.n:
                raise DescriptorError("subspace needs an (n, d) basis matrix")
            d = b.shape[1]
            if not 1 <= d <= self.n:
                raise DescriptorError("subspace dimension must satisfy 1 <= d <= n")
            gram = b.T @ b
            if np.max(np.abs(gram - np.eye(d))) > 1e-10:
                raise DescriptorError("subspace basis columns must be orthonormal")
        elif self.basis is not None:
            raise DescriptorError(f"basis is only valid for subspace, not {self.kind}")

    @classmethod
    def orthant(cls, n: int) -> "ConstraintSet":
        return cls("orthant", n)

    @classmethod
    def monotone_cone(cls, n: int) -> "ConstraintSet":
        return cls("monotone_cone", n)

    @classmethod
    def l1_ball(cls, n: int, radius: float) -> "ConstraintSet":
        return cls("l1_ball", n, radius=float(radius))

    @classmethod
    def subspace(cls, basis: np.ndarray) -> "ConstraintSet":
        basis = np.asarray(basis, dtype=float)
        return cls("subspace", basis.shape[0], basis=basis)

    @classmethod
    def coordinate_subspace(cls, n: int, d: int) -> "ConstraintSet":
        """Span of the first d coordinate axes."""
        if not 1 <= d <= n:  # a slice would clamp d > n, and count d < 0 from the end
            raise DescriptorError("subspace dimension must satisfy 1 <= d <= n")
        return cls.subspace(np.eye(n)[:, :d])

    @property
    def is_cone(self) -> bool:
        return self.kind in CONE_KINDS

    @property
    def subspace_dim(self) -> int:
        if self.kind != "subspace":
            raise UnsupportedKindError("subspace_dim only applies to subspace kind")
        return self.basis.shape[1]

    def contains(self, x: np.ndarray) -> bool:
        """Membership test up to distance ``1e-8 * max(1, ||x||)``."""
        x = np.asarray(x, dtype=float)
        gap = np.linalg.norm(project(self, x).point - x)
        return gap <= 1e-8 * max(1.0, np.linalg.norm(x))


@dataclass(frozen=True)
class ProjectionResult:
    """Euclidean projection together with its local structure.

    ``divergence`` is the a.e. trace of the projection Jacobian at the
    input; ``structure`` counts strictly positive outputs (orthant),
    constant pieces (monotone cone), the active support (l1 ball), or the
    subspace dimension.  Both are counted at the input as given, ties
    included; on the cones the divergence is the dimension of the face
    holding ``point`` (``face_span``).
    """

    point: np.ndarray
    divergence: float
    structure: int


def project(K: ConstraintSet, x: np.ndarray) -> ProjectionResult:
    """Euclidean projection of ``x`` onto ``K``.

    Orthant: coordinatewise positive part.  Monotone cone: pool-adjacent-
    violators fit.  l1 ball: soft-thresholding at ``l1_threshold``'s
    level, which is 0 (the identity) inside or on the ball and otherwise the
    unique mu > 0 with ``sum_i (|x_i| - mu)_+ = radius``; the divergence is
    n at level 0, else support - 1.  Subspace: basis @ basis.T @ x.

    Counts are taken at x as given, ties included: the positive outputs
    (orthant), PAVA's block count, which is the number of constant pieces
    because scipy pools equal values and equal means (monotone cone), and
    the support of the point (l1 ball).  Shape and finiteness are checked
    on every call; ``x`` is never written.
    """
    x = _check_vector(K, x)
    if K.kind == "orthant":
        point = np.maximum(x, 0.0)
        structure = int(np.count_nonzero(point))
        return ProjectionResult(point, float(structure), structure)

    if K.kind == "monotone_cone":
        point = x.copy()
        pieces = _pava(point)
        return ProjectionResult(point, float(pieces), pieces)

    if K.kind == "l1_ball":
        return _project_l1(K, x)

    # subspace
    d = K.subspace_dim
    point = K.basis @ (K.basis.T @ x)
    return ProjectionResult(point, float(d), d)


def divergence(K: ConstraintSet, x: np.ndarray) -> float:
    """Divergence (Jacobian trace) of the projection map at ``x``, a.e."""
    return project(K, x).divergence


def polar_project(K: ConstraintSet, x: np.ndarray) -> np.ndarray:
    """Projection onto the polar cone: x - Pi_K(x) for cone kinds."""
    if not K.is_cone:
        raise UnsupportedKindError("polar projection needs a cone (not l1_ball)")
    x = np.asarray(x, dtype=float)
    return x - project(K, x).point


def statistical_dimension(K: ConstraintSet) -> float:
    """Statistical dimension delta_K, the high-noise limit of E err(s)/s^2, exact.

    The l1 ball gives 0, since a bounded set's recession cone is {0}.  A cone
    is its own tangent cone at the apex, T_K(0) = K, so delta_K is
    ``tangent_dimension`` at mu0 = 0: n/2, d, or H_n for the monotone cone.
    """
    if not K.is_cone:
        return 0.0
    return tangent_dimension(K, np.zeros(K.n), None)[0]


def mc_statistical_dimension(K: ConstraintSet, mc: MonteCarloConfig):
    """Plain Monte Carlo estimate of E ||Pi_K(h)||^2, the dimension of a cone K."""
    if not K.is_cone:
        raise UnsupportedKindError("Monte Carlo statistical dimension needs a cone (not l1_ball)")
    return mean_se(projected_sq_norms(K, gaussian_rows(mc.seed, mc.samples, K.n)))


def projected_sq_norms(K: ConstraintSet, H: np.ndarray) -> np.ndarray:
    """||Pi_K(h)||^2 for each row h of ``H``, in one ``project_rows`` pass."""
    return row_sq_norms(project_rows(K, H))


def tangent_dimension(K: ConstraintSet, mu0: np.ndarray, H: np.ndarray):
    """Statistical dimension of the tangent cone T of K at mu0, with SE.

    Exact, with SE 0, except on the l1 sphere: orthant gives (n + p)/2 with p
    the number of positive coordinates of mu0; a subspace is its own tangent
    cone; the monotone cone's T is the product of monotone cones over mu0's
    constant blocks (exact ties; any gap splits a block), so sum_b H_{n_b}
    (Amelunxen, Lotz, McCoy & Tropp 2014), which is n for n blocks of one;
    off the l1 sphere T = R^n, so n.  Only on the sphere does it read the
    standard Gaussian rows ``h`` of ``H`` (pass None otherwise): the mean of
    ||Pi_T(h)||^2 over one ``project_rows`` pass of lifted rows.  With
    S = supp mu0 and s = sign mu0, T = {v : <s, v> + ||v off S||_1 <= 0};
    each row is lifted by L s, L = 2 max|H| + 1, and projected onto the ball
    of radius L |S|.  Blocks, l1 support and sphere test are ``face_span``'s.
    """
    mu0 = np.asarray(mu0, dtype=float)
    if not K.contains(mu0):
        raise DomainError("mu0 must belong to K")
    if K.kind == "subspace":
        return float(K.subspace_dim), 0.0
    if K.kind == "orthant":  # face_span's positive support, counted without labels
        return (K.n + int(np.count_nonzero(mu0 > 0.0))) / 2.0, 0.0
    label, s = face_span(K, mu0)
    if K.kind == "monotone_cone":  # sum_b H_{n_b}, each H_k summed 1/1 + ... + 1/k
        return float(sum(sum(1.0 / i for i in range(1, k + 1)) for k in np.bincount(label))), 0.0
    if s is None:  # l1 interior
        return float(K.n), 0.0
    # The lifted ball's threshold solves d/dtau dist(h, tau * subdifferential)^2 = 0,
    # whose root is at most max|h| < L - max|h|: S keeps its signs, and fit - lift = Pi_T(h).
    L = 2.0 * np.abs(H).max() + 1.0
    lift = L * np.append(s, 0.0)[label]
    fits = project_rows(ConstraintSet.l1_ball(K.n, L * s.size), H + lift)
    fits -= lift
    return mean_se(row_sq_norms(fits))


def face(K: ConstraintSet, x: np.ndarray) -> bytes:
    """Key of the face of K whose relative interior holds x: the positive support
    (orthant), the block starts (monotone cone), the signed support on the l1
    sphere, ||x||_1 >= (1 - 1e-12) radius, or b"" (l1 interior, subspace)."""
    if K.kind == "orthant":
        return (x > 0.0).tobytes()
    if K.kind == "monotone_cone":
        return (x[1:] > x[:-1]).tobytes()
    if K.kind == "l1_ball" and _on_sphere(K, x):
        return np.sign(x).tobytes()
    return b""


def face_span(K: ConstraintSet, x: np.ndarray):
    """``(label, s)``: x's face spans {B c : s . c = radius}, s = sign x on its
    support on the l1 sphere, else None.  B is never formed: column j is the
    indicator of {i : label[i] == j} (-1 fixes x_i at 0) over the positive support
    (orthant), the support (l1 sphere), every coordinate (l1 interior) or the
    constant blocks (monotone cone); a subspace gives label None, B its basis."""
    if K.kind == "subspace":
        return None, None
    if K.kind == "monotone_cone":
        return np.r_[0, np.cumsum(x[1:] > x[:-1])], None
    sphere = K.kind == "l1_ball" and _on_sphere(K, x)
    on = x > 0.0 if K.kind == "orthant" else (x != 0.0) | (not sphere)
    return np.where(on, np.cumsum(on) - 1, -1), (np.sign(x[on]) if sphere else None)


def _on_sphere(K: ConstraintSet, x: np.ndarray) -> bool:
    return float(np.abs(x).sum()) >= (1.0 - 1e-12) * K.radius


def project_rows(K: ConstraintSet, Y: np.ndarray) -> np.ndarray:
    """Row-wise projection of an (r, n) matrix onto K into a new array; ``Y`` is never written."""
    Y = np.asarray(Y, dtype=float)
    if K.kind == "orthant":
        return np.maximum(Y, 0.0)
    if K.kind == "subspace":
        return (Y @ K.basis) @ K.basis.T
    if K.kind == "monotone_cone":
        out = np.array(Y, order="C")
        w, r = np.empty(K.n), np.empty(K.n + 1, np.intp)
        for row in out:
            _pava(row, w, r)
        return out
    return _project_l1_rows(K, Y)


def l1_threshold(x: np.ndarray, radius: float) -> float:
    """Soft-threshold level of the l1-ball projection, never negative: the last
    crossing of the sorted magnitudes' cumulative sum, clipped at 0.  It is the
    unique mu > 0 with sum_i (|x_i| - mu)_+ = radius outside the ball, and 0
    inside or on it."""
    a = np.sort(np.abs(x))[::-1]
    candidates = (a.cumsum() - radius) / np.arange(1.0, a.size + 1.0)
    below = (a > candidates).nonzero()[0]
    if below.size == 0:
        raise DomainError("l1 radius is below the floating-point resolution of the input")
    return max(float(candidates[below[-1]]), 0.0)


def _project_l1(K: ConstraintSet, x: np.ndarray) -> ProjectionResult:
    mu = l1_threshold(x, K.radius)
    kept = np.maximum(np.abs(x) - mu, 0.0)
    point = np.sign(x) * kept
    support = int(np.count_nonzero(kept))
    return ProjectionResult(point, float(support - 1) if mu > 0.0 else float(K.n), support)


def _project_l1_rows(K: ConstraintSet, Y: np.ndarray) -> np.ndarray:
    A = np.abs(Y)
    a = np.sort(A, axis=1)[:, ::-1]
    candidates = (np.cumsum(a, axis=1) - K.radius) / np.arange(1, Y.shape[1] + 1)
    counts = np.count_nonzero(a > candidates, axis=1)
    if np.count_nonzero(counts) < counts.size:
        raise DomainError("l1 radius is below the floating-point resolution of the input")
    mu = np.maximum(candidates[np.arange(Y.shape[0]), counts - 1], 0.0)
    del a, candidates  # the output is formed in the magnitudes' array, with less alive
    A -= mu[:, None]
    np.maximum(A, 0.0, out=A)
    A *= np.sign(Y)
    return A


def _pava(x: np.ndarray, w: np.ndarray = None, r: np.ndarray = None) -> int:
    """Fit ``x`` in place (C-contiguous float64, else pybind fits a copy); return the block count.

    ``w`` (size n) and ``r`` (intp, size n + 1) are work buffers the core
    overwrites, refilled here as ``isotonic_regression`` fills them; None allocates them.
    """
    if w is None:
        w, r = np.empty(x.size), np.empty(x.size + 1, np.intp)
    w.fill(1.0)
    r.fill(-1)
    return pava(x, w, r)[3]


def row_sq_norms(M: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", M, M)


def _check_vector(K: ConstraintSet, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (K.n,):
        raise DomainError(f"expected a vector of length {K.n}, got shape {x.shape}")
    if np.count_nonzero(np.isfinite(x)) < x.size:
        raise DomainError("input vector must be finite")
    return x
