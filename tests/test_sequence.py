"""Pathwise and Monte Carlo tests of the err/lrt/dof processes."""

import numpy as np
import pytest

from oracles import process_rows_reference
from riskfix.constraints import ConstraintSet, MonteCarloConfig
from riskfix.errors import DomainError
from riskfix.kernels import kernel_G, kernel_H
from riskfix.sequence import (
    eval_processes,
    mc_expectations,
    orthant_err_closed_form,
    orthant_lrt_closed_form,
    process_rows,
)
from riskfix.seeds import gaussian_rows

HARMONIC_100 = sum(1.0 / i for i in range(1, 101))


def random_case(rng, kinds=("orthant", "monotone_cone", "l1_ball", "subspace")):
    """(K, mu0) pair with mu0 in K, for pathwise property checks."""
    kind = kinds[int(rng.integers(len(kinds)))]
    n = int(rng.integers(2, 30))
    if kind == "orthant":
        K = ConstraintSet.orthant(n)
        mu0 = np.abs(rng.standard_normal(n)) * (rng.random() < 0.7)
    elif kind == "monotone_cone":
        K = ConstraintSet.monotone_cone(n)
        mu0 = np.sort(rng.standard_normal(n)) * (rng.random() < 0.7)
    elif kind == "l1_ball":
        K = ConstraintSet.l1_ball(n, radius=float(rng.uniform(0.5, 3.0)))
        raw = rng.standard_normal(n)
        mu0 = raw * (0.9 * K.radius / max(np.abs(raw).sum(), 1e-9)) * (rng.random() < 0.7)
    else:
        d = int(rng.integers(1, n + 1))
        basis = np.linalg.qr(rng.standard_normal((n, d)))[0]
        K = ConstraintSet.subspace(basis)
        mu0 = basis @ rng.standard_normal(d)
    return K, np.asarray(mu0, dtype=float)


class TestEvalProcesses:
    def test_full_subspace_is_identity(self):
        n = 6
        K = ConstraintSet.coordinate_subspace(n, n)
        h = np.random.default_rng(0).standard_normal(n)
        err, lrt, dof = eval_processes(K, np.zeros(n), 1.0, h)
        hh = float(h @ h)
        assert err == pytest.approx(hh, rel=1e-12)
        assert lrt == pytest.approx(hh, rel=1e-12)
        assert dof == pytest.approx(hh, rel=1e-12)

    def test_orthant_by_hand(self):
        K = ConstraintSet.orthant(2)
        err, lrt, dof = eval_processes(K, np.zeros(2), 2.0, np.array([-1.0, 1.0]))
        assert err == pytest.approx(4.0, abs=1e-12)
        assert dof == pytest.approx(4.0, abs=1e-12)
        assert lrt == pytest.approx(4.0, abs=1e-12)

    def test_identity_random_monotone(self):
        rng = np.random.default_rng(1)
        K = ConstraintSet.monotone_cone(20)
        mu0 = np.sort(rng.standard_normal(20))
        for _ in range(50):
            h = rng.standard_normal(20)
            sigma = float(rng.uniform(0.05, 5.0))
            err, lrt, dof = eval_processes(K, mu0, sigma, h)
            scale = max(abs(lrt), sigma**2 * float(h @ h), 1.0)
            assert abs(lrt - (2.0 * dof - err)) <= 1e-9 * scale

    def test_domain_checks(self):
        K = ConstraintSet.orthant(3)
        with pytest.raises(DomainError):
            eval_processes(K, np.array([-1.0, 0.0, 0.0]), 1.0, np.zeros(3))
        with pytest.raises(DomainError):
            eval_processes(K, np.zeros(3), 0.0, np.zeros(3))


class TestProcessRows:
    @pytest.mark.parametrize("kind", ["orthant", "monotone_cone", "l1_ball", "subspace"])
    def test_bytes_match_reference_and_inputs_are_kept(self, kind):
        rng = np.random.default_rng(71)
        for trial in range(4):
            K, mu0 = random_case(rng, kinds=(kind,))
            H = gaussian_rows(72 + trial, 150, K.n)
            before = (H.tobytes(), mu0.tobytes())
            for sigma in (0.05, 1.0, 3.7):
                got = process_rows(K, mu0, sigma, H)
                want = process_rows_reference(K, mu0, sigma, H)
                for name, a, b in zip(("err", "lrt", "dof"), got, want):
                    assert a.tobytes() == b.tobytes(), (kind, trial, sigma, name)
            assert (H.tobytes(), mu0.tobytes()) == before


class TestPathwiseProperties:
    """Pathwise inequalities of the three processes on common noise draws."""

    def _grid_eval(self, K, mu0, h, sigmas):
        return [eval_processes(K, mu0, float(s), h) for s in sigmas]

    def test_monotonicity_and_stability(self):
        rng = np.random.default_rng(2)
        sigmas = np.geomspace(0.05, 20.0, 50)
        for _ in range(60):
            K, mu0 = random_case(rng)
            h = rng.standard_normal(K.n)
            err, lrt, dof = np.array(self._grid_eval(K, mu0, h, sigmas)).T
            hh = float(h @ h)
            # err nondecreasing, err/sigma^2 nonincreasing
            assert np.all(np.diff(err) >= -1e-12)
            ratio = err / sigmas**2
            assert np.all(np.diff(ratio) <= 1e-12)
            # err(sigma)/sigma^2 <= ||h||^2
            assert np.all(ratio <= hh + 1e-12)
            # sandwich err <= dof <= lrt and the defining identity
            assert np.all(err <= dof + 1e-9 * np.maximum(1.0, np.abs(dof)))
            assert np.all(dof <= lrt + 1e-9 * np.maximum(1.0, np.abs(lrt)))
            scale = np.maximum(1.0, sigmas**2 * hh)
            assert np.all(np.abs(lrt - (2 * dof - err)) <= 1e-9 * scale)
            assert np.all(lrt >= -1e-9 * scale)

    def test_stability_sandwiches(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            K, mu0 = random_case(rng)
            h = rng.standard_normal(K.n)
            for M in (1.5, 2.0, 4.0):
                sigma = float(rng.uniform(0.1, 3.0))
                a_err, a_lrt, a_dof = eval_processes(K, mu0, sigma, h)
                b_err, b_lrt, b_dof = eval_processes(K, mu0, M * sigma, h)
                tol = 1e-9 * max(1.0, b_err)
                assert a_err <= b_err + tol
                assert b_err <= M**2 * a_err + tol
                tol = 1e-9 * max(1.0, abs(b_lrt))
                assert M * a_lrt <= b_lrt + tol
                assert b_lrt <= M**2 * a_lrt + tol
                tol = 1e-9 * max(1.0, abs(b_dof))
                assert a_dof <= b_dof + tol
                assert b_dof <= M**2 * a_dof + tol

    def test_dof_integral_upper_bound(self):
        # dof(sigma) <= sigma * int_0^sigma err(tau)/tau^2 dtau, trapezoid on
        # a 200-point log grid; slack = head truncation + per-interval
        # variation bound (valid because the integrand is nonincreasing).
        rng = np.random.default_rng(4)
        for _ in range(25):
            K, mu0 = random_case(rng)
            h = rng.standard_normal(K.n)
            sigma = float(rng.uniform(0.5, 3.0))
            hh = float(h @ h)
            taus = np.geomspace(sigma * 1e-4, sigma, 200)
            vals = np.array(
                [eval_processes(K, mu0, float(t), h)[0] / t**2 for t in taus]
            )
            integral = float(np.trapezoid(vals, taus))
            head = taus[0] * hh  # integrand <= ||h||^2 on (0, tau_min)
            steps = np.diff(taus)
            variation = float(np.sum(steps * np.abs(np.diff(vals)) / 2.0))
            bound = sigma * (integral + head + variation)
            _, _, dof = eval_processes(K, mu0, sigma, h)
            assert dof <= bound + 1e-9 * max(1.0, bound)


class TestMcExpectations:
    def test_subspace_mean(self):
        K = ConstraintSet.coordinate_subspace(30, 12)
        curve = mc_expectations(K, np.zeros(30), [0.5, 1.0, 2.0], MonteCarloConfig(2000, 5))
        for j, sigma in enumerate([0.5, 1.0, 2.0]):
            expected = sigma**2 * 12
            assert abs(curve.err_mean[j] - expected) <= 3.0 * curve.err_se[j]

    def test_orthant_zero_signal(self):
        K = ConstraintSet.orthant(50)
        curve = mc_expectations(K, np.zeros(50), [1.0], MonteCarloConfig(4000, 6))
        assert abs(curve.err_mean[0] - 25.0) <= 3.0 * curve.err_se[0]

    def test_monotone_zero_signal(self):
        K = ConstraintSet.monotone_cone(100)
        curve = mc_expectations(K, np.zeros(100), [1.0], MonteCarloConfig(4000, 7))
        assert abs(curve.err_mean[0] - HARMONIC_100) <= 3.0 * curve.err_se[0]

    def test_grid_validation(self):
        K = ConstraintSet.orthant(4)
        with pytest.raises(DomainError):
            mc_expectations(K, np.zeros(4), [1.0, 0.5], MonteCarloConfig(200))
        with pytest.raises(DomainError):
            mc_expectations(K, np.zeros(4), [1.0], MonteCarloConfig(10))
        with pytest.raises(DomainError, match="sigma grid must be a non-empty 1-d array"):
            mc_expectations(K, np.zeros(4), [[0.5, 1.0]], MonteCarloConfig(200))

    @pytest.mark.parametrize("kind", ["orthant", "monotone_cone"])
    @pytest.mark.parametrize("grid", [[0.1, np.nan, 1.0], [0.1, 1.0, np.inf], [np.nan], [-np.inf, 1.0]])
    def test_non_finite_grid_rejected(self, kind, grid):
        K = ConstraintSet(kind, 10)
        with pytest.raises(DomainError, match="sigma grid must be positive and strictly increasing"):
            mc_expectations(K, np.zeros(10), grid, MonteCarloConfig(200, 0))

    def test_common_random_numbers(self):
        # identical draws across grid points: err curves are pathwise
        # monotone, so the Monte Carlo means must be monotone too (no jitter)
        K = ConstraintSet.monotone_cone(15)
        grid = np.geomspace(0.1, 5.0, 12)
        curve = mc_expectations(K, np.zeros(15), grid, MonteCarloConfig(300, 8))
        assert np.all(np.diff(curve.err_mean) >= -1e-12)
        assert np.all(np.diff(curve.err_mean / grid**2) <= 1e-12)

    def test_variance_bound(self):
        # Var(err) <= 4 sigma^2 E err, with Monte Carlo slack
        K = ConstraintSet.orthant(20)
        mu0 = np.linspace(0, 2, 20)
        curve = mc_expectations(K, mu0, [0.7], MonteCarloConfig(4000, 9))
        sample_var = (curve.err_se[0] ** 2) * 4000
        bound = 4.0 * 0.7**2 * (curve.err_mean[0] + 5.0 * curve.err_se[0])
        assert sample_var <= bound


class TestOrthantClosedForms:
    def test_zero_signal(self):
        assert orthant_err_closed_form(np.zeros(50), 1.0) == pytest.approx(25.0)
        assert orthant_err_closed_form(np.zeros(50), 2.0) == pytest.approx(100.0)
        assert orthant_lrt_closed_form(np.zeros(50), 1.0) == pytest.approx(25.0)

    def test_constant_signal_value(self):
        mu0 = np.full(50, 5.0)
        expected = 50.0 * kernel_G(5.0)
        assert orthant_err_closed_form(mu0, 1.0) == pytest.approx(expected, rel=1e-12)
        expected_lrt = expected + 100.0 * kernel_H(5.0)
        assert orthant_lrt_closed_form(mu0, 1.0) == pytest.approx(expected_lrt, rel=1e-12)

    def test_against_monte_carlo(self):
        K = ConstraintSet.orthant(50)
        mu0 = np.full(50, 5.0)
        curve = mc_expectations(K, mu0, [1.0], MonteCarloConfig(4000, 10))
        assert abs(curve.err_mean[0] - orthant_err_closed_form(mu0, 1.0)) <= 3.0 * curve.err_se[0]
        assert abs(curve.lrt_mean[0] - orthant_lrt_closed_form(mu0, 1.0)) <= 3.0 * curve.lrt_se[0]

    def test_lrt_gap_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            mu0 = np.abs(rng.standard_normal(n)) * 3.0
            sigma = float(rng.uniform(0.2, 4.0))
            gap = orthant_lrt_closed_form(mu0, sigma) - orthant_err_closed_form(mu0, sigma)
            assert 0.0 <= gap / (2.0 * sigma**2) <= 0.13 * n

    def test_negative_mu_rejected(self):
        with pytest.raises(DomainError):
            orthant_err_closed_form(np.array([-1.0]), 1.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        for closed_form in (orthant_err_closed_form, orthant_lrt_closed_form):
            with pytest.raises(DomainError, match="sigma must be positive"):
                closed_form(np.ones(5), sigma)
