"""Kernel and prior tests.

Frozen reference values were produced by independent oracles:
high-precision evaluation of the Gaussian cdf/pdf with mpmath at 40
digits (see _mpmath_oracle below for regeneration).
"""

import math

import numpy as np
import pytest

from riskfix.errors import DomainError
from riskfix.kernels import (
    DiscretePrior,
    kernel_G,
    kernel_H,
    normal_cdf,
    normal_pdf,
    prior_G,
    prior_H,
)


def _mpmath_oracle():  # pragma: no cover - regeneration helper
    """Regenerate the frozen cdf/G/H values.

    import mpmath as mp; mp.mp.dps = 40
    Phi = mp.ncdf; phi = mp.npdf
    G = lambda x: Phi(x) - x*phi(x) + x**2*Phi(-x)
    """


# (x, Phi(x)) at 40-digit precision, rounded to double.
CDF_TABLE = [
    (0.5, 0.6914624612740131),
    (1.0, 0.8413447460685429),
    (2.0, 0.9772498680518208),
    (5.0, 0.9999997133484281),
]

G_AT_1 = 0.7580292754808566  # mpmath oracle
H_AT_5 = 2.6730827669164075e-07  # mpmath oracle


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_pdf_at_zero(self):
        assert normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-15)

    def test_central_band(self):
        # high-precision quadrature oracle of the Gaussian density
        assert normal_cdf(1.0) - normal_cdf(-1.0) == pytest.approx(
            0.6826894921370859, abs=1e-12
        )

    @pytest.mark.parametrize("x,expected", CDF_TABLE)
    def test_against_mpmath_table(self, x, expected):
        assert abs(normal_cdf(x) - expected) < 1e-12
        assert abs(normal_cdf(-x) - (1.0 - expected)) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            normal_cdf(float("nan"))
        with pytest.raises(DomainError):
            normal_pdf(float("inf"))

    def test_vectorized(self):
        xs = np.linspace(-3, 3, 7)
        out = normal_cdf(xs)
        assert out.shape == xs.shape
        assert np.all(np.diff(out) > 0)


class TestKernels:
    def test_values_at_zero(self):
        assert kernel_G(0.0) == pytest.approx(0.5, abs=1e-15)
        assert kernel_H(0.0) == 0.0

    def test_G_at_one(self):
        assert kernel_G(1.0) == pytest.approx(G_AT_1, abs=1e-14)

    def test_H_at_five(self):
        assert kernel_H(5.0) == pytest.approx(H_AT_5, rel=1e-10)

    def test_G_tail_limit(self):
        g40 = kernel_G(40.0)
        assert 1.0 - 1e-12 <= g40 <= 1.0
        assert kernel_G(80.0) == 1.0
        assert kernel_H(80.0) == 0.0

    def test_negative_input_rejected(self):
        with pytest.raises(DomainError):
            kernel_G(-0.1)
        with pytest.raises(DomainError):
            kernel_H(np.array([1.0, -2.0]))

    def test_grid_bounds_and_identity(self):
        xs = np.linspace(0.0, 10.0, 10_001)
        g, h = kernel_G(xs), kernel_H(xs)
        assert np.all(g >= 0.5) and np.all(g <= 1.0)
        assert np.all(h >= 0.0)
        assert h.max() < 0.13
        assert np.max(np.abs(h - (normal_cdf(xs) - g))) < 1e-12

    def test_G_strictly_increasing(self):
        # Strict increase is checkable only while the true increment
        # 2x(1-Phi(x)) * 1e-3 stays above the 1e-12 accuracy contract
        # (G saturates to 1.0 in double precision near x ~ 7); beyond that
        # the grid must still be nondecreasing.
        xs = np.linspace(0.0, 10.0, 10_000)
        g = kernel_G(xs)
        assert np.all(np.diff(g) >= -1e-15)  # half-ulp noise at saturation
        strict = np.linspace(0.0, 5.0, 10_000)
        assert np.all(kernel_G(strict + 1e-3) > kernel_G(strict))

    def test_scaled_monotonicity(self):
        # x -> x^2 G(1/x) and x -> x^2 H(1/x) nondecreasing on (0, 10]
        xs = np.linspace(1e-2, 10.0, 2000)
        for kernel in (kernel_G, kernel_H):
            vals = xs**2 * kernel(1.0 / xs)
            assert np.all(np.diff(vals) >= -1e-12)

    def test_G_stability(self):
        xs = np.linspace(0.0, 10.0, 2000)
        g = kernel_G(xs)
        for delta in (0.01, 0.1):
            assert np.all(kernel_G((1.0 + delta) * xs) <= g * (1.0 + 8.0 * delta) + 1e-12)


class TestNdtrCore:
    """``kernels`` calls scipy's ``ndtr`` ufunc loaded from its compiled module;
    every value must be the one ``scipy.special.ndtr`` gives, bit for bit."""

    CUTOFF = 40.0  # kernels' tail cutoff
    X = np.concatenate([
        np.linspace(-45.0, 45.0, 90_001),
        [0.0, 1e-300, -1e-300, CUTOFF, -CUTOFF,
         np.nextafter(CUTOFF, 0.0), np.nextafter(CUTOFF, np.inf)],
    ])

    def test_cdf_and_kernels_match_scipy_special(self):
        from scipy.special import ndtr

        x = self.X
        assert np.array_equal(normal_cdf(x), ndtr(x))
        x = np.abs(x)
        xs = np.minimum(x, self.CUTOFF)
        phi = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
        g = ndtr(xs) - xs * phi + xs * xs * ndtr(-xs)
        h = xs * phi - xs * xs * ndtr(-xs)
        assert np.array_equal(kernel_G(x), np.where(x > self.CUTOFF, 1.0, g))
        assert np.array_equal(kernel_H(x), np.where(x > self.CUTOFF, 0.0, np.maximum(h, 0.0)))


class TestDiscretePrior:
    def test_validation(self):
        with pytest.raises(DomainError):
            DiscretePrior([(1.0, 0.4), (2.0, 0.4)])  # weights sum to 0.8
        with pytest.raises(DomainError):
            DiscretePrior([(-1.0, 1.0)])  # negative value
        with pytest.raises(DomainError):
            DiscretePrior([])

    @pytest.mark.parametrize("atoms, message", [
        ([(np.nan, 1.0)], "prior atoms must be finite"),
        ([(1.0, 1.0), (2.0, 0.0)], "prior weights must be positive"),
    ], ids=["nan-atom", "zero-weight"])
    def test_rejected_with_reason(self, atoms, message):
        with pytest.raises(DomainError) as exc:
            DiscretePrior(atoms)
        assert message in str(exc.value)

    def test_point_mass_at_zero(self):
        prior = DiscretePrior.point_mass(0.0)
        for omega in (0.1, 1.0, 7.0):
            assert prior_G(prior, omega) == pytest.approx(0.5, abs=1e-15)
            assert prior_H(prior, omega) == 0.0
        assert prior.mass_at_zero == 1.0

    def test_two_atom_mixture(self):
        prior = DiscretePrior([(0.0, 0.5), (5.0, 0.5)])
        expected = 0.5 * 0.5 + 0.5 * G_AT_1  # G evaluated at 5/5 = 1
        assert prior_G(prior, 5.0) == pytest.approx(expected, abs=1e-14)
        assert prior.mass_at_zero == 0.5

    def test_omega_domain(self):
        prior = DiscretePrior.point_mass(1.0)
        with pytest.raises(DomainError):
            prior_G(prior, 0.0)
        with pytest.raises(DomainError):
            prior_H(prior, -1.0)
