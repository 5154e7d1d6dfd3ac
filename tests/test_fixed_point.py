"""Fixed-point solver, NNLS analytic path, and regime classification."""

import math
import warnings

import numpy as np
import pytest

from riskfix.constraints import ConstraintSet, MonteCarloConfig
from riskfix.errors import DescriptorError, DomainError, NoSolutionError
from riskfix import constraints, fixed_point
from riskfix.fixed_point import (
    FixedPointProblem,
    classify_regime,
    nnls_check_R2,
    nnls_solve,
    omega,
    solve,
)
from riskfix.kernels import DiscretePrior
from riskfix.seeds import gaussian_rows
from riskfix.sequence import process_rows


def quiet_solve(problem, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return solve(problem, **kw)


def subspace_problem(d=10, n=100, m=40, sigma2=1.0):
    K = ConstraintSet.coordinate_subspace(n, d)
    return FixedPointProblem(K, np.zeros(n), m, n, sigma2)


def orthant_problem(u=0.0, n=50, m=40, sigma2=1.0):
    K = ConstraintSet.orthant(n)
    return FixedPointProblem(K, np.full(n, float(u)), m, n, sigma2)


class TestOmega:
    def test_values(self):
        assert omega(0.0, 1.0, 1.0) == pytest.approx(1.0)
        assert omega(1.0, 2.0, 1.0) == pytest.approx(1.0)
        assert omega(math.sqrt(3.0), 0.5, 1.0) == pytest.approx(math.sqrt(8.0))

    def test_domain(self):
        with pytest.raises(DomainError):
            omega(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            omega(1.0, -2.0, 1.0)


class TestProblemValidation:
    def test_dimension_mismatch(self):
        K = ConstraintSet.orthant(5)
        with pytest.raises(DescriptorError):
            FixedPointProblem(K, np.zeros(5), 10, 6, 1.0)

    def test_evaluator_constraint_pairing(self):
        K = ConstraintSet.monotone_cone(5)
        with pytest.raises(DescriptorError):
            FixedPointProblem(K, DiscretePrior.point_mass(1.0), 10, 5, 1.0, MonteCarloConfig(100, 0))
        K = ConstraintSet.orthant(5)
        with pytest.raises(DescriptorError):  # a budget is a MonteCarloConfig, never a tag
            FixedPointProblem(K, np.zeros(5), 10, 5, 1.0, "orthant_closed_form")

    def test_bad_numbers(self):
        K = ConstraintSet.orthant(5)
        with pytest.raises(DomainError):
            FixedPointProblem(K, np.zeros(5), 0, 5, 1.0)
        with pytest.raises(DomainError):
            FixedPointProblem(K, np.zeros(5), 10, 5, 0.0)

    def test_signal_membership_enforced(self):
        K = ConstraintSet.coordinate_subspace(6, 2)
        off_subspace = np.ones(6)
        with pytest.raises(DomainError):
            quiet_solve(FixedPointProblem(K, off_subspace, 20, 6, 1.0))
        K = ConstraintSet.orthant(4)
        with pytest.raises(DomainError):
            quiet_solve(FixedPointProblem(K, np.array([1.0, -1.0, 0.0, 0.0]), 20, 4, 1.0))


class TestSolveClosedForms:
    def test_subspace_exact(self):
        sol = quiet_solve(subspace_problem(), tol=1e-12)
        assert sol.status == "converged"
        assert sol.r_sq == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert sol.regime == "I"
        assert sol.bounds[0] == pytest.approx(1.0 / 3.0)
        assert sol.bounds[1] == pytest.approx(1.0 / 3.0)
        assert sol.r2_statistic == 0.0 and sol.r2_holds

    def test_orthant_zero_signal(self):
        sol = quiet_solve(orthant_problem(u=0.0, m=40), tol=1e-12)
        assert sol.r_sq == pytest.approx(5.0 / 3.0, abs=1e-8)
        assert sol.regime == "I"  # degenerate case: delta_K = delta_T = n/2

    def test_regime_three_gate(self):
        sol = quiet_solve(orthant_problem(u=0.0, m=20))
        assert sol.status == "no_solution"
        assert sol.regime == "III"
        assert sol.r_sq is None and sol.omega is None
        assert sol.bounds[0] == math.inf

    def test_boundary_m_equals_delta(self):
        sol = quiet_solve(orthant_problem(u=0.0, m=25))
        assert sol.status == "no_solution"

    def test_monotone_trace_from_zero(self):
        sol = quiet_solve(orthant_problem(u=5.0, m=60), tol=1e-10)
        trace = np.array(sol.trace)
        assert trace[0] == 0.0
        assert np.all(np.diff(trace) >= -1e-14)

    def test_iteration_cap(self):
        sol = quiet_solve(orthant_problem(u=5.0, m=60), max_iter=3)
        assert sol.status == "max_iterations"
        assert len(sol.trace) == 4
        assert sol.r_sq == sol.trace[-1]

    @pytest.mark.parametrize("tol", [math.inf, 1e3, 1.0, math.nan, 0.0, -1.0])
    def test_tol_outside_unit_interval_rejected(self, tol):
        # at tol >= 1 the first steps pass, and "converged" sat at r^2 = 0.75
        # against the root 0.99999889
        with pytest.raises(DomainError, match="step tolerance"):
            quiet_solve(orthant_problem(u=5.0, m=100), tol=tol)

    def test_restart_uniqueness(self):
        tol = 1e-10
        base = quiet_solve(orthant_problem(u=5.0, m=60), tol=tol)
        restart = quiet_solve(orthant_problem(u=5.0, m=60), tol=tol, r0_sq=10.0 * base.r_sq)
        assert abs(math.sqrt(restart.r_sq) - math.sqrt(base.r_sq)) <= 5.0 * tol * math.sqrt(base.r_sq)

    def test_eventual_linear_convergence(self):
        sol = quiet_solve(orthant_problem(u=5.0, m=60), tol=1e-12)
        r_star = math.sqrt(sol.r_sq)
        errors = [abs(math.sqrt(t) - r_star) for t in sol.trace]
        tail = [e2 / e1 for e1, e2 in zip(errors[-6:-2], errors[-5:-1]) if e1 > 1e-13]
        assert tail and all(ratio <= 1.0 + 1e-9 for ratio in tail)
        assert tail[-1] < 1.0

    def test_bounds_hold(self):
        for problem, tol in [
            (subspace_problem(), 1e-10),
            (orthant_problem(u=0.0, m=40), 1e-10),
            (orthant_problem(u=5.0, m=60), 1e-10),
            (orthant_problem(u=5.0, m=400), 1e-10),
        ]:
            sol = quiet_solve(problem, tol=tol)
            ratio = sol.r_sq / problem.sigma2
            lo = (sol.delta_K - 3 * sol.delta_K_se) / (problem.m - (sol.delta_K - 3 * sol.delta_K_se))
            assert ratio >= lo - 1e-8
            dt_hi = sol.delta_T + 3 * sol.delta_T_se
            hi = dt_hi / (problem.m - dt_hi) if problem.m > dt_hi else math.inf
            assert ratio <= hi + 1e-8


class TestSolveMonteCarlo:
    def test_monotone_cone_mc_path(self):
        n = 60
        K = ConstraintSet.monotone_cone(n)
        problem = FixedPointProblem(
            K, np.zeros(n), 3 * n, n, 1.0, MonteCarloConfig(samples=2000, seed=31)
        )
        sol = quiet_solve(problem)
        assert sol.status == "converged"
        trace = np.array(sol.trace)
        assert np.all(np.diff(trace) >= -1e-14)  # CRN keeps the map monotone
        # harmonic-number risk scale: delta_K/(m - delta_K) approx 0.035
        lo, hi = sol.bounds
        assert lo - 3 * sol.delta_K_se <= sol.r_sq <= hi + 3 * sol.delta_T_se
        assert sol.r2_holds

    @pytest.mark.parametrize("mu0, m, sigma2", [
        (np.r_[2.0, -1.0, 0.5, -0.5, np.zeros(46)], 40, 1e-4),
        # at this noise level the 1e-6 entry counts; the s-halving loop's
        # delta_T (3.56) put the bound at 0.42, below the root's 0.99
        (np.r_[5.0 - 1e-6, 1e-6, np.zeros(18)], 12, 1e-14),
    ], ids=["mixed-signs", "entry-1e-6"])
    def test_l1_sphere_root_is_below_its_delta_t_bound(self, mu0, m, sigma2):
        # err(s)/s^2 is nonincreasing in s on every row, with limit
        # ||Pi_T(h)||^2, so the Monte Carlo root obeys the bound built from
        # the same rows' delta_T estimate, without standard-error slack
        n = mu0.size
        problem = FixedPointProblem(ConstraintSet.l1_ball(n, np.abs(mu0).sum()), mu0, m, n,
                                    sigma2, MonteCarloConfig(samples=2000, seed=0))
        sol = quiet_solve(problem)
        assert sol.status == "converged" and m > sol.delta_T
        assert sol.r_sq / sigma2 <= sol.delta_T / (m - sol.delta_T) + 1e-9

    def test_mc_restart_consistency(self):
        n = 40
        K = ConstraintSet.monotone_cone(n)
        problem = FixedPointProblem(
            K, np.zeros(n), 120, n, 1.0, MonteCarloConfig(samples=1000, seed=32)
        )
        tol = 1e-8
        base = quiet_solve(problem, tol=tol)
        again = quiet_solve(problem, tol=tol, r0_sq=10.0 * base.r_sq)
        # CRN makes the empirical map deterministic, so restart agreement is
        # governed by the solver tolerance alone
        assert abs(math.sqrt(again.r_sq) - math.sqrt(base.r_sq)) <= 5 * tol * math.sqrt(base.r_sq)


class TestEvaluationPath:
    def test_closed_form_chosen_from_constraint(self):
        n = 50
        orthant, subspace = ConstraintSet.orthant(n), ConstraintSet.coordinate_subspace(n, 10)
        mc = MonteCarloConfig(samples=100, seed=3)
        cases = [
            (orthant, np.full(n, 5.0), 60),
            (orthant, DiscretePrior([(0.0, 0.3), (2.0, 0.7)]), 40),
            (subspace, np.r_[np.ones(10), np.zeros(n - 10)], 30),
        ]
        for K, signal, m in cases:
            default = quiet_solve(FixedPointProblem(K, signal, m, n, 1.0))
            chosen = quiet_solve(FixedPointProblem(K, signal, m, n, 1.0, mc))
            assert default.status == "converged"
            assert chosen == default, K.kind

    def test_one_monte_carlo_pass_per_iteration_and_root(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return process_rows(*args)

        monkeypatch.setattr(fixed_point, "process_rows", counting)
        n = 40
        problem = FixedPointProblem(ConstraintSet.monotone_cone(n), np.zeros(n), 120, n, 1.0,
                                    MonteCarloConfig(samples=500, seed=34))
        sol = quiet_solve(problem)
        assert sol.status == "converged"
        assert len(calls) == (len(sol.trace) - 1) + 1

    def test_one_draw_per_monte_carlo_solve(self, monkeypatch):
        # delta_K, delta_T and every E err evaluation read the same rows;
        # the closed forms draw none
        calls = []

        def counting(*args):
            calls.append(args)
            return gaussian_rows(*args)

        monkeypatch.setattr(fixed_point, "gaussian_rows", counting)
        monkeypatch.setattr(constraints, "gaussian_rows", counting)
        n = 30
        mc = MonteCarloConfig(samples=200, seed=35)
        cases = [
            (ConstraintSet.monotone_cone(n), np.zeros(n), 60, 1),
            (ConstraintSet.l1_ball(n, 2.0), np.zeros(n), 40, 1),
            (ConstraintSet.orthant(n), np.full(n, 5.0), 40, 0),
            (ConstraintSet.orthant(n), DiscretePrior([(0.0, 0.3), (2.0, 0.7)]), 40, 0),
            (ConstraintSet.coordinate_subspace(n, 5), np.zeros(n), 20, 0),
        ]
        for K, signal, m, draws in cases:
            calls.clear()
            sol = quiet_solve(FixedPointProblem(K, signal, m, n, 1.0, mc))
            assert sol.status == "converged", K.kind
            assert len(calls) == draws, K.kind


class TestNnls:
    def test_zero_point_mass(self):
        r = nnls_solve(DiscretePrior.point_mass(0.0), 0.8, 1.0)
        assert r * r == pytest.approx(5.0 / 3.0, abs=1e-8)

    def test_ratio_domain(self):
        with pytest.raises(NoSolutionError):
            nnls_solve(DiscretePrior.point_mass(0.0), 0.5, 1.0)
        with pytest.raises(NoSolutionError):
            nnls_solve(DiscretePrior.point_mass(1.0), 0.3, 1.0)

    def test_large_ratio_regime(self):
        # m/n -> infinity: r^2 ~ (1 - p0/2) sigma^2 / ratio
        r = nnls_solve(DiscretePrior.point_mass(5.0), 50.0, 1.0)
        assert abs(r * r - 0.02) / 0.02 <= 0.10

    def test_matches_generic_solver(self):
        prior = DiscretePrior.point_mass(5.0)
        for m in (50, 60, 100):
            r = nnls_solve(prior, m / 50.0, 1.0)
            sol = quiet_solve(orthant_problem(u=5.0, n=50, m=m), tol=1e-10)
            assert abs(r * r - sol.r_sq) / sol.r_sq <= 1e-8

    def test_ratio_one_agreement(self):
        prior = DiscretePrior.point_mass(5.0)
        r = nnls_solve(prior, 1.0, 1.0)
        sol = quiet_solve(orthant_problem(u=5.0, n=50, m=50), tol=1e-10)
        assert abs(r * r - sol.r_sq) / sol.r_sq <= 0.005

    def test_monotone_in_ratio_and_blowup(self):
        prior = DiscretePrior([(0.0, 0.3), (2.0, 0.7)])
        ratios = np.linspace(0.6, 10.0, 30)
        values = [nnls_solve(prior, float(t), 1.0) for t in ratios]
        assert np.all(np.diff(values) <= 1e-10)
        # divergence toward the existence boundary ratio = 1/2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            near_boundary = nnls_solve(prior, 0.51, 1.0)
        assert near_boundary**2 > 50.0
        assert values[-1] ** 2 < 0.3

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(DomainError, match="sigma must be positive"):
            nnls_solve(DiscretePrior([(5.0, 1.0)]), 2.0, sigma)

    @pytest.mark.parametrize("tol", [math.inf, 1.0, math.nan, 0.0, -1.0])
    def test_tol_outside_unit_interval_rejected(self, tol):
        with pytest.raises(DomainError, match="step tolerance"):
            nnls_solve(DiscretePrior.point_mass(5.0), 2.0, 1.0, tol=tol)

    def test_iteration_cap_warns(self):
        prior = DiscretePrior([(0.0, 0.3), (2.0, 0.7)])
        with pytest.warns(RuntimeWarning, match="iteration cap"):
            nnls_solve(prior, 0.51, 1.0, max_iter=5)


class TestNnlsR2:
    def test_zero_signal_trivial(self):
        chk = nnls_check_R2(DiscretePrior.point_mass(0.0), 1.29, 0.8, 1.0)
        assert chk.statistic == 0.0 and chk.holds

    def test_regime_one_holds(self):
        prior = DiscretePrior.point_mass(5.0)
        r = nnls_solve(prior, 2.0, 1.0)
        chk = nnls_check_R2(prior, r, 2.0, 1.0)
        assert chk.holds

    @pytest.mark.parametrize("sigma", [0.0, math.nan, math.inf])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(DomainError, match="sigma must be positive"):
            nnls_check_R2(DiscretePrior([(5.0, 1.0)]), 1.0, 2.0, sigma)

    def test_huge_signal_fails(self):
        prior = DiscretePrior.point_mass(1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            r = nnls_solve(prior, 0.8, 1.0)
        chk = nnls_check_R2(prior, r, 0.8, 1.0)
        assert chk.statistic > 1.0 and not chk.holds


class TestClassifyRegime:
    def test_examples(self):
        assert classify_regime(40, 25.0, 0.0, 25.0, 0.0) == "I"
        assert classify_regime(40, 25.0, 0.0, 50.0, 0.0) == "II"
        assert classify_regime(20, 25.0, 0.0, 50.0, 0.0) == "III"

    def test_guard_bands(self):
        assert classify_regime(40, 39.0, 1.0, 60.0, 0.0) == "indeterminate"
        assert classify_regime(40, 25.0, 0.0, 41.0, 1.0) == "indeterminate"
        assert classify_regime(25, 25.0, 0.0, 25.0, 0.0) == "indeterminate"
