"""Projection, divergence and dimension-estimator tests.

Independent oracles (tests/oracles.py): an exhaustive active-set quadratic
program for the monotone-cone projection, central finite differences for
the divergence, and the threshold equation for the l1 ball, solved by
bisection.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import isotonic_regression

from oracles import (
    fd_divergence,
    l1_tangent_oracle,
    l1_threshold_oracle,
    monotone_projection_oracle,
    monotone_tangent_oracle,
    near_tie,
)
from riskfix import constraints
from riskfix.constraints import (
    ConstraintSet,
    MonteCarloConfig,
    divergence,
    face,
    face_span,
    l1_threshold,
    mc_statistical_dimension,
    polar_project,
    project,
    project_rows,
    statistical_dimension,
    tangent_dimension,
)
from riskfix.errors import DescriptorError, DomainError, UnsupportedKindError
from riskfix.experiments import resolve_signal
from riskfix.seeds import gaussian_rows

def random_constraint(kind: str, n: int, rng) -> ConstraintSet:
    if kind == "orthant":
        return ConstraintSet.orthant(n)
    if kind == "monotone_cone":
        return ConstraintSet.monotone_cone(n)
    if kind == "l1_ball":
        return ConstraintSet.l1_ball(n, radius=float(rng.uniform(0.5, 3.0)))
    d = int(rng.integers(1, n + 1))
    basis = np.linalg.qr(rng.standard_normal((n, d)))[0]
    return ConstraintSet.subspace(basis)


def random_member(K: ConstraintSet, rng) -> np.ndarray:
    """A random point of K (for variational-inequality probes)."""
    return project(K, rng.standard_normal(K.n) * rng.uniform(0.2, 3.0)).point


def _assert_member(K: ConstraintSet, p: np.ndarray) -> None:
    if K.kind == "orthant":
        assert np.all(p >= 0.0)
    elif K.kind == "monotone_cone":
        assert np.all(np.diff(p) >= 0.0)
    elif K.kind == "l1_ball":
        assert np.abs(p).sum() <= K.radius + 1e-10
    else:
        span = K.basis @ (K.basis.T @ p)
        assert np.linalg.norm(span - p) <= 1e-10


class TestDescriptors:
    def test_kind_validation(self):
        with pytest.raises(DescriptorError):
            ConstraintSet("simplex", 5)
        with pytest.raises(DescriptorError):
            ConstraintSet("orthant", 0)
        with pytest.raises(DescriptorError):
            ConstraintSet.l1_ball(5, radius=-1.0)
        with pytest.raises(DescriptorError):
            ConstraintSet("orthant", 5, radius=1.0)

    def test_subspace_orthonormality(self):
        bad = np.ones((4, 2))
        with pytest.raises(DescriptorError):
            ConstraintSet.subspace(bad)
        ok = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 3)))[0]
        K = ConstraintSet.subspace(ok)
        assert K.subspace_dim == 3 and K.is_cone

    @pytest.mark.parametrize("call, error, message", [
        (lambda: ConstraintSet("subspace", 3, basis=np.ones(3)), DescriptorError,
         "subspace needs an (n, d) basis matrix"),
        (lambda: ConstraintSet.subspace(np.zeros((3, 0))), DescriptorError,
         "subspace dimension must satisfy 1 <= d <= n"),
        (lambda: ConstraintSet("orthant", 3, basis=np.eye(3)), DescriptorError,
         "basis is only valid for subspace, not orthant"),
        (lambda: ConstraintSet.monotone_cone(3).subspace_dim, UnsupportedKindError,
         "subspace_dim only applies to subspace kind"),
    ], ids=["basis-1d", "basis-d0", "basis-on-orthant", "subspace-dim-of-cone"])
    def test_descriptor_rejected_with_reason(self, call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert message in str(exc.value)

    @pytest.mark.parametrize("d", [0, 6, -1])
    def test_coordinate_subspace_dimension_out_of_range(self, d):
        with pytest.raises(DescriptorError, match="1 <= d <= n"):
            ConstraintSet.coordinate_subspace(5, d)

    def test_non_finite_input_rejected(self):
        K = ConstraintSet.orthant(3)
        with pytest.raises(DomainError):
            project(K, np.array([1.0, np.nan, 0.0]))
        with pytest.raises(DomainError):
            project(K, np.array([1.0, 2.0]))  # wrong length


def dither(x: np.ndarray) -> np.ndarray:
    """x + 1e-12 cos(1..n): a perturbation that moves x off its exact ties."""
    return x + 1e-12 * np.cos(np.arange(1, x.size + 1))


def oracle_pieces(x: np.ndarray) -> int:
    """Constant pieces of the exhaustive monotone projection of x."""
    return 1 + int(np.count_nonzero(np.diff(monotone_projection_oracle(x)) > 0.0))


def oracle_l1_structure(x: np.ndarray, radius: float):
    """(divergence, structure) of the l1 projection of x, counted at x; the
    bisected threshold cannot tell a coordinate exactly at the level."""
    if np.abs(x).sum() <= radius:
        return float(x.size), int(np.count_nonzero(x))
    support = int(np.count_nonzero(np.abs(x) > l1_threshold_oracle(x, radius)))
    return float(support - 1), support


class TestTieDither:
    """Inputs exactly on a non-differentiability set count their structure at
    the input as given, as the returned point shows it.  Except where a
    comment says otherwise, each case is built so that a count at the
    perturbed input ``dither(x)`` differs from the count at x."""

    def test_orthant_exact_zeros(self):
        # zeros at cos(1) > 0, cos(3) < 0, cos(5) > 0; -3e-13 at cos(6) = 0.96:
        # the perturbation would count 4 positives, the point has 1.
        x = np.array([0.0, 1.5, 0.0, -2.0, 0.0, -3e-13])
        res = project(ConstraintSet.orthant(6), x)
        assert np.array_equal(res.point, np.maximum(x, 0.0))
        assert np.count_nonzero(dither(x) > 0.0) == 4
        assert res.structure == np.count_nonzero(res.point) == 1
        assert res.divergence == 1.0

    @pytest.mark.parametrize(
        "x, dithered, pieces",
        [
            # input tie x4 == x5 with cos(4) < cos(5): the perturbation splits it
            ([0.0, 1.0, 2.0, 3.0, 3.0, 4.0], 6, 5),
            # input tie x2 == x3 with cos(2) > cos(3): the perturbation pools
            # it, so both counts agree
            ([0.0, 1.0, 1.0, 2.0], 3, 3),
            # input tie x5 == x6: blocks (2, 0), (1), (1) pool into one block
            # of mean 1; the perturbation leaves three blocks
            ([-10.0, -9.0, 2.0, 0.0, 1.0, 1.0], 5, 3),
            # no input tie: blocks (2, 0) and (3, -1) share the mean 1, so PAVA
            # pools them; the perturbation leaves four blocks
            ([-10.0, -9.0, 2.0, 0.0, 3.0, -1.0], 4, 3),
        ],
    )
    def test_monotone_ties(self, x, dithered, pieces):
        x = np.array(x)
        res = project(ConstraintSet.monotone_cone(x.size), x)
        np.testing.assert_allclose(res.point, monotone_projection_oracle(x), atol=1e-12)
        assert oracle_pieces(dither(x)) == dithered
        assert res.structure == oracle_pieces(x) == pieces
        assert res.divergence == float(pieces)

    def test_pava_block_means_strictly_increase(self):
        # project's piece count is PAVA's block count, which counts constant
        # pieces only because scipy's PAVA pools neighbouring blocks of equal
        # mean, including the blocks (2, 0) and (3, -1) of the first input.
        rng = np.random.default_rng(61)
        inputs = [np.array([-10.0, -9.0, 2.0, 0.0, 3.0, -1.0])]
        inputs += [rng.integers(-3, 4, size=int(rng.integers(2, 9))).astype(float)
                   for _ in range(3000)]
        for x in inputs:
            res = isotonic_regression(x)
            means = res.x[res.blocks[:-1]]
            assert np.all(means[1:] > means[:-1]), x

    def test_l1_coordinate_at_threshold(self):
        # sorted |x| = (4, 2, 1) with radius 4 gives mu = 1 = |x_1| exactly:
        # x_1 maps to 0, and cos(1) > 0 would keep the perturbed x_1 above
        # the perturbed threshold.
        x = np.array([1.0, 4.0, -2.0])
        K = ConstraintSet.l1_ball(3, 4.0)
        mu = l1_threshold_oracle(x, 4.0)
        assert mu == pytest.approx(1.0, abs=1e-15)
        res = project(K, x)
        expected = np.sign(x) * np.maximum(np.abs(x) - mu, 0.0)
        np.testing.assert_allclose(res.point, expected, atol=1e-14)
        assert oracle_l1_structure(dither(x), 4.0) == (2.0, 3)
        assert res.point[0] == 0.0
        assert (res.divergence, res.structure) == (1.0, 2)

    @pytest.mark.parametrize(
        "x, radius, expected",
        [
            # the perturbation leaves the ball: support 2, divergence 1
            ([1.0, 1.0], 2.0, (2.0, 2)),
            # the perturbation stays inside and makes the zero coordinate nonzero
            ([-1.0, 1.0, 1.0, 0.0], 3.0, (4.0, 3)),
        ],
    )
    def test_l1_on_the_sphere(self, x, radius, expected):
        # on the sphere the level is 0: divergence n, structure the support of x
        x = np.array(x)
        assert np.abs(x).sum() == radius
        res = project(ConstraintSet.l1_ball(x.size, radius), x)
        assert np.array_equal(res.point, x)
        assert oracle_l1_structure(dither(x), radius) != expected
        assert (res.divergence, res.structure) == oracle_l1_structure(x, radius) == expected

    def test_l1_on_the_sphere_below_dither_resolution(self):
        # 1e5 + 1e-12*cos(i) rounds back to 1e5, so no perturbation of this
        # size moves x; on the sphere, at any scale, the level is 0
        x = np.array([1e5, 1e5])
        assert np.array_equal(dither(x), x)
        res = project(ConstraintSet.l1_ball(2, 2e5), x)
        assert np.array_equal(res.point, x)
        assert (res.divergence, res.structure) == (2.0, 2)


class TestPavaCore:
    """The monotone cone calls scipy's private PAVA core in place, without
    ``isotonic_regression``'s wrapper, loaded from the core's own file.  These
    tests pin it to the public function bit for bit, and check that no
    caller's array is written."""

    def test_core_is_the_public_functions_core(self):
        # A scipy upgrade that moves or replaces either core fails here by name.
        # Loaded from its file, a core is a second module object, so the files
        # are compared, and the public names must still be those files' functions.
        import scipy.optimize._isotonic
        import scipy.optimize._pava_pybind
        import scipy.special._special_ufuncs

        from riskfix import _scipy_core, kernels

        assert constraints.pava is _scipy_core.pava_pybind.pava
        assert _scipy_core.pava_pybind.__file__ == scipy.optimize._pava_pybind.__file__
        assert scipy.optimize._isotonic.pava is scipy.optimize._pava_pybind.pava
        assert kernels.ndtr is _scipy_core.special_ufuncs.ndtr
        assert _scipy_core.special_ufuncs.__file__ == scipy.special._special_ufuncs.__file__
        assert scipy.special.ndtr is scipy.special._special_ufuncs.ndtr

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 300])
    def test_project_matches_the_public_function(self, n):
        rng = np.random.default_rng(1000 + n)
        K = ConstraintSet.monotone_cone(n)
        for trial in range(300):
            if trial % 2:
                x = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            else:
                x = rng.integers(-3, 4, size=n).astype(float)
            public = isotonic_regression(x)
            pieces = public.blocks.size - 1
            res = project(K, x)
            assert res.point.tobytes() == public.x.tobytes(), x
            assert (res.divergence, res.structure) == (float(pieces), pieces), x
            strided = np.repeat(x, 2)[::2]  # a non-contiguous view of x
            assert project(K, strided).point.tobytes() == public.x.tobytes(), x

    def test_project_rows_matches_the_public_function(self):
        rng = np.random.default_rng(62)
        K = ConstraintSet.monotone_cone(9)
        Y = rng.standard_normal((40, 9))
        Y[::3] = rng.integers(-2, 3, size=(14, 9))  # equal neighbours
        layouts = {
            "C": Y,
            "Fortran": np.asfortranarray(Y),
            "strided rows": Y[::2],
            "reversed": Y[::-1, ::-1],
        }
        for name, view in layouts.items():
            expected = np.array([isotonic_regression(row).x for row in view])
            assert project_rows(K, view).tobytes() == expected.tobytes(), name

    def test_inputs_are_never_written(self):
        K = ConstraintSet.monotone_cone(50)
        H = gaussian_rows(3, 200, 50)
        before = H.tobytes()
        project_rows(K, H)
        assert H.tobytes() == before
        for x in (H[0].copy(), np.round(H[0])):  # the second has equal neighbours
            before = x.tobytes()
            project(K, x)
            assert x.tobytes() == before


def rejection_sets():
    """Every kind, with the l1 ball both around and away from the base vector."""
    return [
        ConstraintSet.orthant(5),
        ConstraintSet.monotone_cone(5),
        ConstraintSet.l1_ball(5, 100.0),  # base vector inside
        ConstraintSet.l1_ball(5, 0.5),  # base vector outside
        ConstraintSet.coordinate_subspace(5, 2),
    ]


REJECTION_BASE = np.array([0.3, -1.2, 0.8, 2.0, -0.5])


class TestRejection:
    @pytest.mark.parametrize("K", rejection_sets(), ids=lambda K: f"{K.kind}-{K.radius}")
    def test_non_finite_and_shape(self, K):
        for bad in (np.nan, np.inf, -np.inf):
            for pos in (0, -1):
                x = REJECTION_BASE.copy()
                x[pos] = bad
                with pytest.raises(DomainError, match="input vector must be finite"):
                    project(K, x)
        for x in (REJECTION_BASE.reshape(1, -1), REJECTION_BASE[:4], np.r_[REJECTION_BASE, 1.0]):
            with pytest.raises(DomainError, match="expected a vector of length 5"):
                project(K, x)

    @pytest.mark.parametrize("K", rejection_sets(), ids=lambda K: f"{K.kind}-{K.radius}")
    def test_huge_finite_inputs_are_projected(self, K):
        # squares overflow to inf; a finiteness test through them would reject
        scale = 1e200
        assert np.isinf(scale * scale)
        if K.kind == "l1_ball":
            big = ConstraintSet.l1_ball(5, K.radius * scale)
        else:
            big = K
        res = project(big, scale * REJECTION_BASE)
        small = project(K, REJECTION_BASE)
        np.testing.assert_allclose(res.point, scale * small.point, rtol=1e-12, atol=1e-12 * scale)
        assert (res.divergence, res.structure) == (small.divergence, small.structure)

    def test_l1_radius_below_resolution(self):
        # 1e200 - 1 rounds to 1e200: no candidate threshold lies below |x|;
        # the row path must refuse too, not return a point outside the ball
        K = ConstraintSet.l1_ball(3, 1.0)
        for x in (np.full(3, 1e200), np.array([1e17, 1.0, 0.5])):
            with pytest.raises(DomainError, match="resolution"):
                project(K, x)
            with pytest.raises(DomainError, match="resolution"):
                project_rows(K, x[None, :])

    def test_sum_overflow_is_accepted(self):
        x = np.array([1.5e308, 1.5e308, -1.5e308])
        with np.errstate(over="ignore"):
            assert np.isinf(x[:2].sum())
        res = project(ConstraintSet.orthant(3), x)
        assert np.array_equal(res.point, np.maximum(x, 0.0)) and res.structure == 2

    def test_callers_raise_the_projection_errors(self):
        H = gaussian_rows(0, 100, 5)
        for K in (ConstraintSet.orthant(5), ConstraintSet.monotone_cone(5)):
            for x, message in ((np.full(5, np.nan), "finite"), (np.zeros(4), "length 5")):
                with pytest.raises(DomainError, match=message):
                    polar_project(K, x)
                with pytest.raises(DomainError, match=message):
                    K.contains(x)
                with pytest.raises(DomainError, match=message):
                    tangent_dimension(K, x, H)


class TestProjectExamples:
    def test_orthant(self):
        res = project(ConstraintSet.orthant(2), np.array([-1.0, 2.0]))
        np.testing.assert_allclose(res.point, [0.0, 2.0])
        assert res.divergence == 1.0 and res.structure == 1

    def test_monotone_small(self):
        x = np.array([2.0, 1.0, 3.0])
        res = project(ConstraintSet.monotone_cone(3), x)
        np.testing.assert_allclose(res.point, monotone_projection_oracle(x), atol=1e-12)
        np.testing.assert_allclose(res.point, [1.5, 1.5, 3.0])
        assert res.structure == 2
        assert divergence(ConstraintSet.monotone_cone(3), x) == 2.0

    def test_l1_threshold_example(self):
        x = np.array([3.0, 0.0])
        assert l1_threshold(x, 1.0) == pytest.approx(2.0, abs=1e-14)
        res = project(ConstraintSet.l1_ball(2, 1.0), x)
        np.testing.assert_allclose(res.point, [1.0, 0.0])
        assert res.structure == 1
        # finite-difference oracle gives 0 here (= support - 1): the
        # threshold absorbs the single active coordinate's motion.
        assert res.divergence == pytest.approx(fd_divergence(ConstraintSet.l1_ball(2, 1.0), x), abs=1e-3)
        assert res.divergence == 0.0

    def test_l1_interior(self):
        K = ConstraintSet.l1_ball(3, 10.0)
        x = np.array([1.0, -2.0, 0.5])
        res = project(K, x)
        np.testing.assert_allclose(res.point, x)
        assert res.divergence == 3.0 and res.structure == 3

    def test_subspace(self):
        K = ConstraintSet.coordinate_subspace(2, 1)
        res = project(K, np.array([3.0, 4.0]))
        np.testing.assert_allclose(res.point, [3.0, 0.0])
        assert res.divergence == 1.0 and res.structure == 1


class TestPolar:
    def test_orthant(self):
        out = polar_project(ConstraintSet.orthant(2), np.array([-1.0, 2.0]))
        np.testing.assert_allclose(out, [-1.0, 0.0])

    def test_subspace_complement(self):
        K = ConstraintSet.coordinate_subspace(2, 1)
        np.testing.assert_allclose(polar_project(K, np.array([3.0, 4.0])), [0.0, 4.0])

    def test_monotone_pooled_to_zero(self):
        K = ConstraintSet.monotone_cone(2)
        x = np.array([1.0, -1.0])
        np.testing.assert_allclose(project(K, x).point, [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(polar_project(K, x), x)

    def test_l1_unsupported(self):
        with pytest.raises(UnsupportedKindError):
            polar_project(ConstraintSet.l1_ball(2, 1.0), np.array([1.0, 0.0]))


class TestProjectionInvariants:
    KINDS = ("orthant", "monotone_cone", "l1_ball", "subspace")

    def test_idempotence_and_contraction(self):
        rng = np.random.default_rng(11)
        for kind in self.KINDS:
            for _ in range(250):
                n = int(rng.integers(1, 25))
                K = random_constraint(kind, n, rng)
                x = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
                y = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
                px, py = project(K, x).point, project(K, y).point
                _assert_member(K, px)
                np.testing.assert_allclose(project(K, px).point, px, atol=1e-10)
                assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-10

    def test_variational_characterization(self):
        rng = np.random.default_rng(12)
        for kind in self.KINDS:
            for _ in range(100):
                n = int(rng.integers(2, 20))
                K = random_constraint(kind, n, rng)
                x = rng.standard_normal(n) * 2.0
                p = project(K, x).point
                for _ in range(5):
                    v = random_member(K, rng)
                    slack = 1e-8 * max(np.linalg.norm(x) * np.linalg.norm(v), 1.0)
                    assert np.dot(x - p, v - p) <= slack

    def test_moreau_and_orthogonality(self):
        rng = np.random.default_rng(13)
        for kind in ("orthant", "monotone_cone", "subspace"):
            for _ in range(200):
                n = int(rng.integers(1, 30))
                K = random_constraint(kind, n, rng)
                x = rng.standard_normal(n) * rng.uniform(0.1, 4.0)
                p = project(K, x).point
                q = polar_project(K, x)
                scale = max(np.linalg.norm(x) ** 2, 1e-12)
                np.testing.assert_allclose(p + q, x, atol=1e-9 * max(1, scale))
                assert abs(np.dot(p, q)) <= 1e-9 * scale
                assert abs(np.dot(x, x) - (np.dot(p, p) + np.dot(q, q))) <= 1e-9 * scale

    def test_divergence_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        for kind in self.KINDS:
            done = 0
            while done < 25:
                n = int(rng.integers(2, 10))
                K = random_constraint(kind, n, rng)
                x = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
                if near_tie(K, x):
                    continue
                done += 1
                assert abs(divergence(K, x) - fd_divergence(K, x)) <= 1e-3

    def test_pava_against_qp_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            x = rng.standard_normal(n) * rng.uniform(0.2, 3.0)
            fit = project(ConstraintSet.monotone_cone(n), x).point
            np.testing.assert_allclose(fit, monotone_projection_oracle(x), atol=1e-8)

    def test_l1_threshold_equation(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            radius = float(rng.uniform(0.3, 2.0))
            x = rng.standard_normal(n) * 2.0
            if np.abs(x).sum() <= radius:
                continue
            mu = l1_threshold(x, radius)
            assert mu > 0
            residual = np.maximum(np.abs(x) - mu, 0.0).sum() - radius
            assert abs(residual) <= 1e-10

    def test_project_rows_consistency(self):
        rng = np.random.default_rng(17)
        for kind in self.KINDS:
            n = 12
            K = random_constraint(kind, n, rng)
            Y = rng.standard_normal((40, n)) * 1.5
            rows = project_rows(K, Y)
            for i in range(Y.shape[0]):
                np.testing.assert_allclose(rows[i], project(K, Y[i]).point, atol=1e-12)
        # l1 rows strictly inside, exactly on (dyadic magnitudes summing to the
        # radius), scaled onto (within rounding of) and outside the sphere
        n, radius = 50, 5.0
        K = ConstraintSet.l1_ball(n, radius)
        Z = rng.standard_normal((400, n))
        scaled = Z / np.abs(Z).sum(axis=1, keepdims=True) * radius
        dyadic = np.r_[2.0, 1.0, 1.0, 0.5, 0.25, 0.25, np.zeros(n - 6)]
        on = np.array([rng.permutation(dyadic) for _ in range(100)])
        on *= rng.choice([-1.0, 1.0], size=on.shape)
        Y = np.vstack([scaled[:100] * rng.uniform(0.1, 0.9, (100, 1)), on, scaled[200:300],
                       scaled[300:] * rng.uniform(1.1, 4.0, (100, 1))])
        assert np.all(np.abs(on).sum(axis=1) == radius)
        rows = project_rows(K, Y)
        for i in range(Y.shape[0]):
            assert rows[i].tobytes() == project(K, Y[i]).point.tobytes(), i
        assert np.all(np.abs(rows) <= np.abs(Y))

    @pytest.mark.parametrize("n", [100, 300])
    def test_l1_rows_peak_memory(self, n):
        # the output is formed in the magnitudes' array once the sorted copy
        # and the candidates are gone: about 4 H-sized arrays at the peak
        rng = np.random.default_rng(18)
        K = ConstraintSet.l1_ball(n, 0.5 * n)
        Y = rng.standard_normal((2000, n)) * rng.uniform(0.1, 2.0, (2000, 1))
        Y[::7, ::3] = 0.0
        Y[::11, 1::4] = -0.0
        tracemalloc.start()
        try:
            rows = project_rows(K, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * Y.nbytes
        mu = np.array([l1_threshold(y, K.radius) for y in Y])
        assert rows.tobytes() == (np.sign(Y) * np.maximum(np.abs(Y) - mu[:, None], 0.0)).tobytes()


def face_matrix(K: ConstraintSet, label: np.ndarray) -> np.ndarray:
    """The B of ``face_span``'s labels, formed densely (small n only)."""
    if label is None:
        return K.basis
    return (label[:, None] == np.arange(label.max(initial=-1) + 1)).astype(float)


class TestFace:
    """``face_span`` against ``project``'s divergence, an independent count.

    At a generic y, the divergence of the projection is the dimension of the
    face of K that holds Pi_K(y): B's columns, less one for the l1 sphere's
    constraint s . c = radius.
    """

    @pytest.mark.parametrize("kind, scale, on_sphere", [
        ("orthant", 2.0, False),
        ("monotone_cone", 2.0, False),
        ("subspace", 2.0, False),
        ("l1_ball", 5.0, True),
        ("l1_ball", 0.01, False),
    ], ids=["orthant", "monotone_cone", "subspace", "l1-sphere", "l1-interior"])
    def test_span_dimension_is_the_divergence(self, kind, scale, on_sphere):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(2, 30))
            K = random_constraint(kind, n, rng)
            pr = project(K, rng.standard_normal(n) * scale)
            label, s = face_span(K, pr.point)
            assert (s is not None) == on_sphere
            B = face_matrix(K, label)
            assert B.shape[0] == n
            assert B.shape[1] - (s is not None) == pr.divergence
            # the point lies in the face's affine hull {B c : s . c = radius}
            c = np.linalg.lstsq(B, pr.point, rcond=None)[0]
            np.testing.assert_allclose(B @ c, pr.point, rtol=0.0, atol=1e-12 * scale)
            if on_sphere:
                assert s @ c == pytest.approx(K.radius, rel=1e-12)
            assert face(K, B @ c) == face(K, pr.point)

    @pytest.mark.parametrize("kind", ["orthant", "monotone_cone"])
    def test_span_dimension_is_the_divergence_on_ties(self, kind):
        # Small integers put most inputs on a tie: a zero, equal neighbours or
        # pooled blocks of equal mean.  The counts are the returned point's face.
        rng = np.random.default_rng(32)
        for _ in range(3000):
            n = int(rng.choice([2, 3, 5, 8, 13]))
            K = random_constraint(kind, n, rng)
            x = rng.integers(-3, 4, size=n).astype(float)
            pr = project(K, x)
            label, _ = face_span(K, pr.point)
            assert pr.divergence == pr.structure == face_matrix(K, label).shape[1], x

    @pytest.mark.parametrize("kind, scale, trend", [
        ("orthant", 1.0, 0.0), ("monotone_cone", 0.0, 1.0), ("l1_ball", 50.0, 0.0),
        ("l1_ball", 1e-3, 0.0),
    ], ids=["orthant", "monotone_cone", "l1-sphere", "l1-interior"])
    def test_span_and_tangent_dimension_take_memory_linear_in_n(self, kind, scale, trend):
        # An n x n matrix here would be 128 MB; everything O(n) stays near 0.3 MB.
        n = 4000
        K = ConstraintSet.orthant(n) if kind == "orthant" else ConstraintSet.monotone_cone(n)
        if kind == "l1_ball":
            K = ConstraintSet.l1_ball(n, 10.0)
        mu0 = project(K, scale * np.sin(np.arange(n)) + trend * np.linspace(0.0, 1.0, n)).point
        H = gaussian_rows(3, 2, n)
        tracemalloc.start()
        try:
            face_span(K, mu0)
            tangent_dimension(K, mu0, H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestDimensions:
    def test_orthant_closed_form(self):
        assert statistical_dimension(ConstraintSet.orthant(50)) == 25.0

    def test_subspace_closed_form(self):
        assert statistical_dimension(ConstraintSet.coordinate_subspace(10, 7)) == 7.0

    def test_monotone_harmonic_number(self, monkeypatch):
        # exact H_n, summed 1/1 + ... + 1/n, with no sampling; the plain Monte
        # Carlo estimate of E ||Pi_K(h)||^2 agrees with it
        exact = float(sum(Fraction(1, i) for i in range(1, 101)))
        est, se = mc_statistical_dimension(ConstraintSet.monotone_cone(100),
                                           MonteCarloConfig(10_000, 42))

        def no_rows(*args):
            raise AssertionError("rows drawn or projected")

        monkeypatch.setattr(constraints, "project_rows", no_rows)
        monkeypatch.setattr(constraints, "gaussian_rows", no_rows)
        for n in (1, 2, 100, 4000):
            assert statistical_dimension(ConstraintSet.monotone_cone(n)) == sum(
                1.0 / i for i in range(1, n + 1))
        assert statistical_dimension(ConstraintSet.monotone_cone(100)) == pytest.approx(
            exact, rel=1e-15, abs=0.0)
        assert abs(est - exact) <= 3.0 * se

    def test_mc_orthant_matches_closed_form(self):
        K = ConstraintSet.orthant(50)
        est, se = mc_statistical_dimension(K, MonteCarloConfig(10_000, 43))
        assert abs(est - 25.0) <= 3.0 * se

    def test_l1_ball_dimension_vanishes(self, monkeypatch):
        # bounded set: E ||Pi(sigma h)||^2 / sigma^2 -> 0 exactly, no sampling
        def no_rows(*args):
            raise AssertionError("project_rows called")

        monkeypatch.setattr(constraints, "project_rows", no_rows)
        K = ConstraintSet.l1_ball(20, 1.0)
        assert statistical_dimension(K) == 0.0

    def test_mc_statistical_dimension_needs_a_cone(self):
        # E ||Pi_K(h)||^2 is delta_K only for a cone; the l1 ball's is 0
        with pytest.raises(UnsupportedKindError):
            mc_statistical_dimension(ConstraintSet.l1_ball(20, 1.0), MonteCarloConfig(2000, 0))

    def test_tangent_orthant_zero(self):
        K = ConstraintSet.orthant(10)
        est, se = tangent_dimension(K, np.zeros(10), None)
        assert est == 5.0 and se == 0.0

    def test_tangent_orthant_interior(self):
        K = ConstraintSet.orthant(10)
        est, _ = tangent_dimension(K, np.full(10, 2.0), None)
        assert est == 10.0

    @pytest.mark.parametrize("entry, expected", [(1e-13, 6.0), (-1e-10, 5.5)],
                             ids=["tiny-positive", "tiny-negative"])
    def test_tangent_orthant_counts_positive_coordinates(self, entry, expected):
        # face's rule, x > 0: a 1e-13 entry is positive, and a -1e-10 entry,
        # which contains() accepts, is a zero coordinate
        K = ConstraintSet.orthant(10)
        mu0 = np.r_[entry, 1.0, np.zeros(8)]
        assert K.contains(mu0)
        est, se = tangent_dimension(K, mu0, None)
        assert (est, se) == (expected, 0.0)
        assert type(est) is float  # the CLI prints its repr

    def test_tangent_subspace(self):
        K = ConstraintSet.coordinate_subspace(8, 3)
        mu0 = np.zeros(8)
        mu0[:3] = [1.0, -2.0, 0.5]
        est, se = tangent_dimension(K, mu0, None)
        assert est == 3.0 and se == 0.0

    def test_tangent_requires_membership(self):
        K = ConstraintSet.orthant(5)
        with pytest.raises(DomainError):
            tangent_dimension(K, np.array([1.0, -1.0, 0.0, 0.0, 0.0]), None)

    def test_monotone_tangent_piecewise_signal(self):
        # two-piece signal: tangent cone splits into two monotone cones plus
        # the span of the pieces; its dimension must exceed delta_K
        n = 40
        K = ConstraintSet.monotone_cone(n)
        mu0 = np.repeat([0.0, 1.0], n // 2)
        dt, se_t = tangent_dimension(K, mu0, None)
        assert statistical_dimension(K) < dt and se_t == 0.0

    @pytest.mark.parametrize("mu0", [
        # blocks a tiny gap apart are separate blocks of the tangent cone
        5.0 + np.repeat([0.0, 1e-6], 10),
        5.0 + np.repeat([0.0, 1e-12], 10),
        np.sort(np.random.default_rng(5).standard_normal(50)),
        resolve_signal("piecewise_constant:4", 300),
        resolve_signal("piecewise_constant:30", 300),
        resolve_signal("piecewise_constant:150", 300),
    ], ids=["gap-1e-6", "gap-1e-12", "all-distinct", "pieces-4", "pieces-30", "pieces-150"])
    def test_monotone_tangent_matches_block_oracle(self, mu0, monkeypatch):
        # exact, sum_b H_{n_b}: the oracle's float bit for bit, with SE 0 and no rows
        def no_rows(*args):
            raise AssertionError("project_rows called")

        monkeypatch.setattr(constraints, "project_rows", no_rows)
        est, se = tangent_dimension(ConstraintSet.monotone_cone(mu0.size), mu0, None)
        assert (est, se) == (monotone_tangent_oracle(mu0), 0.0)

    @pytest.mark.parametrize("K", [
        ConstraintSet.orthant(20), ConstraintSet.monotone_cone(30),
        ConstraintSet.coordinate_subspace(10, 4),
    ], ids=["orthant", "monotone_cone", "subspace"])
    def test_statistical_dimension_is_tangent_dimension_at_apex(self, K):
        # T_K(0) = K for a cone
        assert (statistical_dimension(K), 0.0) == tangent_dimension(K, np.zeros(K.n), None)

    def test_monotone_tangent_of_constant_signal_is_delta_k(self, monkeypatch):
        # one block is K itself: H_n, with no rows projected
        def no_rows(*args):
            raise AssertionError("project_rows called")

        monkeypatch.setattr(constraints, "project_rows", no_rows)
        K = ConstraintSet.monotone_cone(30)
        for mu0 in (np.zeros(30), np.full(30, -2.5)):
            assert tangent_dimension(K, mu0, None) == (statistical_dimension(K), 0.0)

    @pytest.mark.parametrize("mu0, seed, reference", [
        # the l1-grid signal on the sphere of radius 50.5: S is everything, so
        # T is a half-space of dimension n - 1/2
        (resolve_signal("linear", 100), 0, 99.5),
        (np.r_[3.0, -1.5, 0.5, -0.25, np.zeros(26)][np.random.default_rng(9).permutation(30)],
         9, None),
        # an entry of 1e-6 is still in the support (the s-halving loop read 3.56)
        (np.r_[5.0 - 1e-6, 1e-6, np.zeros(18)], 0, 5.96),
    ], ids=["l1-grid", "mixed-signs", "entry-1e-6"])
    def test_l1_tangent_matches_oracle(self, mu0, seed, reference, monkeypatch):
        rows = gaussian_rows(seed, 2000, mu0.size)
        calls = []

        def counting(K, Y):
            calls.append(Y.shape)
            return project_rows(K, Y)

        monkeypatch.setattr(constraints, "project_rows", counting)
        K = ConstraintSet.l1_ball(mu0.size, np.abs(mu0).sum())
        est, se = tangent_dimension(K, mu0, rows)
        assert calls == [rows.shape]
        assert est == pytest.approx(l1_tangent_oracle(mu0, rows).mean(), rel=1e-9, abs=0.0)
        if reference is not None:
            assert abs(est - reference) <= 4.0 * se

    def test_l1_tangent_inside_the_ball_is_n(self, monkeypatch):
        # T = R^n, whose statistical dimension is n exactly; no rows are read
        def no_rows(*args):
            raise AssertionError("project_rows called")

        monkeypatch.setattr(constraints, "project_rows", no_rows)
        K = ConstraintSet.l1_ball(20, 5.0)
        for mu0 in (np.zeros(20), np.linspace(-0.4, 0.4, 20)):
            assert tangent_dimension(K, mu0, None) == (20.0, 0.0)

    @pytest.mark.parametrize("mu0", [resolve_signal("linear", 30), np.array([-2.0])],
                             ids=["increasing", "n1"])
    def test_monotone_tangent_of_n_blocks_is_n(self, mu0, monkeypatch):
        # n blocks of one, like the l1 interior: T = R^n, read off the face
        def no_rows(*args):
            raise AssertionError("project_rows called")

        monkeypatch.setattr(constraints, "project_rows", no_rows)
        K = ConstraintSet.monotone_cone(mu0.size)
        assert tangent_dimension(K, mu0, None) == (float(mu0.size), 0.0)

    def test_l1_tangent_just_inside_the_sphere_reads_the_interior(self, monkeypatch):
        # face's sphere test, ||mu0||_1 >= (1 - 1e-12) radius, decides
        def no_rows(*args):
            raise AssertionError("project_rows called")

        monkeypatch.setattr(constraints, "project_rows", no_rows)
        mu0 = np.linspace(-1.0, 1.0, 20)
        K = ConstraintSet.l1_ball(20, np.abs(mu0).sum() / (1.0 - 1e-9))
        assert tangent_dimension(K, mu0, None) == (20.0, 0.0)

    def test_l1_tangent_a_few_ulps_inside_reads_the_sphere(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal(30) * (rng.random(30) < 0.3)
        radius = 7.3
        mu0 = v * (radius / np.abs(v).sum()) * (1.0 - 8.0 * np.finfo(float).eps)
        short = np.abs(mu0).sum()
        assert radius * (1.0 - 1e-14) < short < radius
        H = gaussian_rows(11, 500, 30)
        sphere = tangent_dimension(ConstraintSet.l1_ball(30, short), mu0, H)
        assert tangent_dimension(ConstraintSet.l1_ball(30, radius), mu0, H) == sphere
        assert sphere[0] < 30.0 - 10.0

    def test_delta_monotonicity_across_pairs(self):
        rng = np.random.default_rng(18)
        H = gaussian_rows(19, 2000, 20)
        cases = [
            (ConstraintSet.orthant(20), np.abs(rng.standard_normal(20))),
            (ConstraintSet.monotone_cone(20), np.sort(rng.standard_normal(20))),
            (ConstraintSet.l1_ball(20, 2.0), np.zeros(20)),
        ]
        for K, mu0 in cases:
            dt, se_t = tangent_dimension(K, mu0, H)
            assert statistical_dimension(K) <= dt + 3.0 * se_t

    def test_samples_floor(self):
        with pytest.raises(DomainError):
            MonteCarloConfig(50, 0)
