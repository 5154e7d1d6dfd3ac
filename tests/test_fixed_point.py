"""Fixed-point solver, NNLS analytic path, and regime classification."""

import dataclasses
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from riskfix.constraints import ConstraintSet, MonteCarloConfig, project_rows, row_sq_norms
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
from riskfix.seeds import gaussian_rows, mean_se
from riskfix.experiments import resolve_constraint, resolve_signal
from riskfix.sequence import orthant_err_closed_form, process_rows

from oracles import fixed_point_root_oracle, monotone_tangent_oracle

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


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


def orthant_oracle_root(m, n=50, u=5.0):
    """brentq's root of the orthant closed form that ``orthant_problem`` solves."""
    return fixed_point_root_oracle(lambda w: orthant_err_closed_form(np.full(n, u), w), n, m)


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

    @pytest.mark.parametrize("n, signal, message", [
        (0, np.zeros(5), "dimension n must be a positive integer"),
        (5, np.zeros(4), "signal must be a vector of length 5"),
        (5, np.array([0.0, 1.0, np.inf, 0.0, 0.0]), "signal must be finite"),
    ], ids=["n-zero", "signal-length", "signal-non-finite"])
    def test_bad_sizes_and_signals(self, n, signal, message):
        with pytest.raises(DomainError) as exc:
            FixedPointProblem(ConstraintSet.orthant(5), signal, 10, n, 1.0)
        assert message in str(exc.value)

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

    def test_no_solution_does_not_warn_of_L_n(self):
        # the L_n warning qualifies a reported root, and below delta_K there is none
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve(orthant_problem(u=0.0, m=20))
        assert sol.status == "no_solution" and 20 < 10.0 * sol.L_n

    def test_root_below_ten_L_n_warns(self):
        with pytest.warns(RuntimeWarning, match=r"m = 30 is below 10 \* L_n"):
            sol = solve(orthant_problem(u=5.0, m=30))
        assert sol.status == "converged"

    def test_boundary_m_equals_delta(self):
        sol = quiet_solve(orthant_problem(u=0.0, m=25))
        assert sol.status == "no_solution"

    @pytest.mark.parametrize("mu0, delta_t, l_n", [
        (np.linspace(0.0, 1.0, 200), 200.0, 7.391570662698356),
        (np.repeat([0.0, 1.0], 100), 10.374755035279241, 4.519662183884339),
    ], ids=["linear", "two-blocks"])
    def test_no_solution_draws_and_projects_nothing(self, mu0, delta_t, l_n, monkeypatch):
        # below delta_K = H_200 every field is exact: the 10,000 x 200 rows
        # and the apex projection a Monte Carlo solve reads are never made
        def forbidden(*args, **kwargs):
            raise AssertionError("rows drawn or projected before the existence gate")

        for module, name in ((fixed_point, "gaussian_rows"), (constraints, "gaussian_rows"),
                             (constraints, "project_rows")):
            monkeypatch.setattr(module, name, forbidden)
        n = 200
        K = ConstraintSet.monotone_cone(n)
        sol = solve(FixedPointProblem(K, mu0, 5, n, 1.0))
        assert delta_t == pytest.approx(monotone_tangent_oracle(mu0), rel=1e-14)
        assert dataclasses.asdict(sol) == {
            "r_sq": None, "omega": None, "trace": [], "status": "no_solution",
            "delta_K": 5.878030948121446, "delta_T": delta_t, "delta_T_se": 0.0,
            "regime": "III", "r2_statistic": None, "r2_se": 0.0, "r2_holds": None,
            "r2_verified": None, "L_n": l_n, "bounds": (math.inf, math.inf), "r_se": 0.0,
            "bracket": None,
        }
        assert sol.delta_K == constraints.statistical_dimension(K)

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

    def test_no_evaluation_rejected(self):
        with pytest.raises(DomainError, match="max_iter"):
            quiet_solve(orthant_problem(u=5.0, m=60), max_iter=0)
        with pytest.raises(DomainError, match="max_iter"):
            nnls_solve(DiscretePrior.point_mass(5.0), 2.0, 1.0, max_iter=0)

    @pytest.mark.parametrize("tol", [math.inf, 1e3, 1.0, math.nan, 0.0, -1.0])
    def test_tol_outside_unit_interval_rejected(self, tol):
        # at tol >= 1 the first steps pass, and "converged" sat at r^2 = 0.75
        # against the root 0.99999889
        with pytest.raises(DomainError, match="step tolerance"):
            quiet_solve(orthant_problem(u=5.0, m=100), tol=tol)

    @pytest.mark.parametrize("bad", [{"tol": 2.0}, {"max_iter": 0}])
    def test_bad_arguments_rejected_before_any_rows(self, bad, monkeypatch):
        # monotone linear at n = m = 200 would draw 10,000 rows and project
        # them for the apex control before reaching either check
        def forbidden(*args, **kwargs):
            raise AssertionError("rows drawn or projected before the check")

        for module, name in ((fixed_point, "gaussian_rows"), (constraints, "gaussian_rows"),
                             (constraints, "project_rows")):
            monkeypatch.setattr(module, name, forbidden)
        n = 200
        problem = FixedPointProblem(ConstraintSet.monotone_cone(n), resolve_signal("linear", n),
                                    n, n, 1.0, MonteCarloConfig(10_000, 0))
        with pytest.raises(DomainError, match="step tolerance|max_iter"):
            quiet_solve(problem, **bad)

    def test_restart_uniqueness(self):
        tol = 1e-10
        base = quiet_solve(orthant_problem(u=5.0, m=60), tol=tol)
        restart = quiet_solve(orthant_problem(u=5.0, m=60), tol=tol, r0_sq=10.0 * base.r_sq)
        assert abs(math.sqrt(restart.r_sq) - math.sqrt(base.r_sq)) <= 5.0 * tol * math.sqrt(base.r_sq)

    def test_bracket_holds_oracle_root(self):
        # the evaluated ends straddle brentq's root of the same closed form,
        # within the step tolerance; the root is reported at the lower end,
        # and the lower ends never decrease
        tol = 1e-12
        for m in (60, 100, 400):
            sol = quiet_solve(orthant_problem(u=5.0, m=m), tol=tol)
            root, slack = orthant_oracle_root(m)
            lo, hi = sol.bracket
            assert sol.status == "converged" and sol.r_sq == lo == sol.trace[-1], m
            assert lo - slack <= root <= hi + slack, m
            assert math.sqrt(hi) - math.sqrt(lo) <= tol * math.sqrt(lo), m
            assert np.all(np.diff(sol.trace) >= 0.0), m

    @pytest.mark.parametrize("m", [26, 30, 40])
    def test_near_phase_boundary_converges(self, m):
        # delta_K = 25: the monotone iteration contracted by about
        # r^2 / (r^2 + sigma^2) and stopped at the 200-iteration cap at m=26
        # (root 315.08); m=30 took 155 iterations and m=40 85
        sol = quiet_solve(orthant_problem(u=5.0, m=m))
        root, slack = orthant_oracle_root(m)
        lo, hi = sol.bracket
        assert sol.status == "converged" and len(sol.trace) - 1 <= 20
        assert lo - slack <= root <= hi + slack
        assert math.sqrt(hi) - math.sqrt(lo) <= 1e-10 * math.sqrt(lo)

    def test_start_above_the_root(self):
        # from above, the first evaluation is the upper end and the trace
        # holds the start until a lower end is evaluated
        base = quiet_solve(orthant_problem(u=5.0, m=60))
        sol = quiet_solve(orthant_problem(u=5.0, m=60), r0_sq=10.0 * base.r_sq)
        assert sol.trace[:2] == [10.0 * base.r_sq] * 2
        assert sol.status == "converged"
        assert sol.bracket[0] <= base.bracket[1] and base.bracket[0] <= sol.bracket[1]
        capped = quiet_solve(orthant_problem(u=5.0, m=60), r0_sq=10.0 * base.r_sq, max_iter=1)
        assert capped.status == "max_iterations"
        assert capped.r_sq == capped.trace[-1] == 10.0 * base.r_sq
        assert capped.bracket == (0.0, 10.0 * base.r_sq)

    def test_bounds_hold(self):
        for problem, tol in [
            (subspace_problem(), 1e-10),
            (orthant_problem(u=0.0, m=40), 1e-10),
            (orthant_problem(u=5.0, m=60), 1e-10),
            (orthant_problem(u=5.0, m=400), 1e-10),
        ]:
            sol = quiet_solve(problem, tol=tol)
            ratio = sol.r_sq / problem.sigma2
            lo = sol.delta_K / (problem.m - sol.delta_K)
            assert ratio >= lo - 1e-8
            dt_hi = sol.delta_T + 3 * sol.delta_T_se
            hi = dt_hi / (problem.m - dt_hi) if problem.m > dt_hi else math.inf
            assert ratio <= hi + 1e-8


class TestSolveMonteCarlo:
    def test_monotone_cone_mc_path(self):
        n = 60
        K = ConstraintSet.monotone_cone(n)
        problem = FixedPointProblem(
            K, resolve_signal("linear", n), 3 * n, n, 1.0, MonteCarloConfig(samples=2000, seed=31)
        )
        sol = quiet_solve(problem)
        assert sol.status == "converged" and len(sol.trace) > 2
        trace = np.array(sol.trace)
        assert np.all(np.diff(trace) >= -1e-14)  # CRN keeps the map monotone
        # between delta_K/(m - delta_K), about 0.026, and delta_T/(m - delta_T) = 0.5
        lo, hi = sol.bounds
        assert lo <= sol.r_sq <= hi
        assert sol.r2_holds

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [100, 200])
    def test_monotone_zero_signal_matches_harmonic_number(self, n, seed):
        # delta_K of the monotone cone is H_n (Amelunxen, Lotz, McCoy & Tropp
        # 2014), so at mu0 = 0 the root is r^2 = sigma^2 H_n / (m - H_n)
        K = ConstraintSet.monotone_cone(n)
        sol = quiet_solve(FixedPointProblem(
            K, np.zeros(n), n, n, 1.0, MonteCarloConfig(samples=2000, seed=seed)
        ))
        h_n = sum(1.0 / k for k in range(1, n + 1))
        assert sol.status == "converged"
        assert abs(sol.r_sq - h_n / (n - h_n)) <= 6.0 * sol.r_se

    @pytest.mark.parametrize("K, signal, m, sigma2", [
        (ConstraintSet.monotone_cone(100), np.zeros(100), 100, 1.0),
        (ConstraintSet.monotone_cone(300), np.full(300, -2.5), 40, 0.3),
        (ConstraintSet.orthant(50), np.zeros(50), 40, 1.0),
        (ConstraintSet.coordinate_subspace(100, 10), np.zeros(100), 40, 2.0),
        (ConstraintSet.coordinate_subspace(20, 5), np.r_[np.ones(5), np.zeros(15)], 8, 1.0),
    ], ids=["monotone", "monotone-constant", "orthant", "subspace", "subspace-signal"])
    def test_exact_root_draws_and_projects_nothing(self, K, signal, m, sigma2, monkeypatch):
        # where the tangent cone at mu0 is K (a cone's apex, a monotone
        # constant, any point of a subspace), E err(omega) = omega^2 delta_K
        # exactly, so the root is closed-form: no rows, no root-finder
        def forbidden(*args, **kwargs):
            raise AssertionError("rows drawn or projected, or the root bracketed")

        for module, name in ((fixed_point, "gaussian_rows"), (constraints, "gaussian_rows"),
                             (constraints, "project_rows"), (fixed_point, "process_rows"),
                             (fixed_point, "_root")):
            monkeypatch.setattr(module, name, forbidden)
        n = K.n
        sol = quiet_solve(FixedPointProblem(K, signal, m, n, sigma2, MonteCarloConfig(100, 0)),
                          r0_sq=3.0)
        delta_k = constraints.statistical_dimension(K)
        exact = sigma2 * delta_k / (m - delta_k)
        assert sol.status == "converged" and sol.r_sq == pytest.approx(exact, rel=1e-15, abs=0.0)
        assert (sol.r_se, sol.r2_statistic, sol.r2_se) == (0.0, 0.0, 0.0) and sol.r2_verified
        assert sol.trace == [3.0, sol.r_sq] and sol.bracket == (sol.r_sq, sol.r_sq)
        assert sol.omega == omega(math.sqrt(sol.r_sq), m / n, math.sqrt(sigma2))

    def test_apex_control_shrinks_the_se(self, monkeypatch):
        # monotone linear, n = m = 100: E err is estimated as the mean of
        # err_i - omega^2 (c_i - H_n), c_i = ||Pi_K(h_i)||^2, which keeps g
        # nondecreasing and phi = g / (s + sigma^2) nonincreasing
        evaluations = []

        def recording(g, *args, real=fixed_point._root):
            return real(lambda s: evaluations.append((s, g(s))) or evaluations[-1][1], *args)

        monkeypatch.setattr(fixed_point, "_root", recording)
        n, mc = 100, MonteCarloConfig(samples=2000, seed=2600)
        K, mu0 = ConstraintSet.monotone_cone(n), resolve_signal("linear", n)
        sol = quiet_solve(FixedPointProblem(K, mu0, n, n, 1.0, mc))
        assert sol.status == "converged" and len(evaluations) >= 3
        H = gaussian_rows(mc.seed, mc.samples, n)
        plain_se = mean_se(process_rows(K, mu0, sol.omega, H)[0])[1] / n
        assert plain_se >= 2.5 * sol.r_se > 0.0
        s, g = np.array(sorted(evaluations)).T
        assert np.all(np.diff(g) >= 0.0) and np.all(np.diff(g / (s + 1.0)) <= 0.0)

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
            K, resolve_signal("quadratic", n), 120, n, 1.0, MonteCarloConfig(samples=1000, seed=32)
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

    def test_one_monte_carlo_pass_per_evaluation(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return process_rows(*args)

        monkeypatch.setattr(fixed_point, "process_rows", counting)
        n = 40
        problem = FixedPointProblem(ConstraintSet.monotone_cone(n), resolve_signal("linear", n),
                                    120, n, 1.0, MonteCarloConfig(samples=500, seed=34))
        sol = quiet_solve(problem)
        assert sol.status == "converged"
        # the R2 statistic and r_se come from the evaluation at the root
        assert len(calls) == len(sol.trace) - 1 > 1

    def test_bracket_holds_oracle_root_on_rows(self):
        # brentq on the controlled mean over the solve's own rows: the same empirical map
        n, m, mc = 40, 40, MonteCarloConfig(samples=500, seed=36)
        K, mu0 = ConstraintSet.monotone_cone(n), np.linspace(0.0, 2.0, n)
        H = gaussian_rows(mc.seed, mc.samples, n)
        tol = 1e-10
        sol = quiet_solve(FixedPointProblem(K, mu0, m, n, 1.0, mc), tol=tol)
        control = row_sq_norms(project_rows(K, H)) - constraints.statistical_dimension(K)
        root, slack = fixed_point_root_oracle(
            lambda w: (process_rows(K, mu0, w, H)[0] - w * w * control).mean(), n, m)
        lo, hi = sol.bracket
        assert sol.status == "converged" and sol.r_sq == lo
        assert lo * (1 - 1e-13) - slack <= root <= hi * (1 + 1e-13) + slack
        assert math.sqrt(hi) - math.sqrt(lo) <= tol * math.sqrt(lo)
        assert np.all(np.diff(sol.trace) >= 0.0)

    def test_root_statistics_are_the_rows_reductions_there(self):
        # solve keeps three floats per evaluation and reads those at the root;
        # r_se is the SE of err_i - omega^2 (c_i - H_n), the apex control
        n, m, mc = 40, 60, MonteCarloConfig(samples=500, seed=37)
        K, mu0 = ConstraintSet.monotone_cone(n), resolve_signal("quadratic", n)
        sol = quiet_solve(FixedPointProblem(K, mu0, m, n, 1.0, mc))
        assert sol.status == "converged"
        H = gaussian_rows(mc.seed, mc.samples, n)
        e, lrt, _ = process_rows(K, mu0, sol.omega, H)
        gap_mean, gap_se = mean_se(lrt - e)
        control = row_sq_norms(project_rows(K, H)) - constraints.statistical_dimension(K)
        assert sol.r_se == mean_se(e - sol.omega * sol.omega * control)[1] / n
        assert sol.r2_statistic == gap_mean / (2.0 * n)
        assert sol.r2_se == gap_se / (2.0 * n)

    def test_one_draw_per_monte_carlo_solve(self, monkeypatch):
        # the apex control, delta_T on the l1 sphere and every E err
        # evaluation read the same rows; the closed forms draw none
        calls = []

        def counting(*args):
            calls.append(args)
            return gaussian_rows(*args)

        monkeypatch.setattr(fixed_point, "gaussian_rows", counting)
        monkeypatch.setattr(constraints, "gaussian_rows", counting)
        n = 30
        mc = MonteCarloConfig(samples=200, seed=35)
        cases = [
            (ConstraintSet.monotone_cone(n), resolve_signal("linear", n), 60, 1),
            (ConstraintSet.monotone_cone(n), np.zeros(n), 60, 0),
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


class TestEvaluationCount:
    def test_nnls_grid_err_evaluations(self, monkeypatch):
        # the benchmark's nnls-grid theory took 163 E err evaluations with the
        # monotone iteration (159 closed-form steps, 4 at the roots)
        calls = []
        for name in ("orthant_err_closed_form", "orthant_lrt_closed_form", "process_rows"):
            real = getattr(fixed_point, name)
            monkeypatch.setattr(fixed_point, name,
                                lambda *args, real=real: calls.append(1) or real(*args))
        config = workloads.WORKLOADS["nnls-grid"].config(0)
        for spec in config.signals:
            for n, m in config.grid:
                sol = quiet_solve(FixedPointProblem(
                    resolve_constraint(config.constraint, n), resolve_signal(spec, n),
                    m, n, config.sigma**2))
                assert sol.status == "converged"
        assert 0 < len(calls) <= 30


class TestRoot:
    @pytest.mark.parametrize("phi, c", [(0.25, 1.0), (0.5, 2.0)])
    @pytest.mark.parametrize("start", [0.0, 10.0])
    def test_linear_map_of_a_cone_at_the_apex(self, phi, c, start):
        # g(s) = phi (s + c): phi is constant, and the root is phi c / (1 - phi)
        root, tol = phi * c / (1.0 - phi), 1e-10
        s0 = start * root
        s, (lo, hi), trace, converged = fixed_point._root(
            lambda s: phi * (s + c), s0, c, phi, tol, 200)
        assert converged and s == lo <= root <= hi
        assert math.sqrt(hi) - math.sqrt(lo) <= tol * math.sqrt(lo)
        # s0 stands in for the lower end until one is evaluated
        assert trace[0] == s0 and trace[-1] == s
        first = 0 if s0 <= root else trace.count(s0)
        assert np.all(np.diff(trace[first:]) >= 0.0)

    def test_repeated_f_steps_by_false_position(self, monkeypatch):
        # A tol below the floating-point resolution keeps the evaluations
        # within an ulp of the root 2, where an s comes back: interpolation
        # through a repeated f is nan, and the step is false position.
        assert math.isnan(fixed_point._interpolate([(0.5, 0.25), (0.75, 0.1), (0.25, 0.25)]))
        steps = []

        def recording(points, real=fixed_point._interpolate):
            steps.append(real(points))
            return steps[-1]

        monkeypatch.setattr(fixed_point, "_interpolate", recording)
        s, (lo, hi), trace, converged = fixed_point._root(
            lambda s: 0.5 * (s + 2.0), 0.0, 2.0, 0.5, 1e-300, 40)
        assert any(math.isnan(u) for u in steps)
        assert not converged and s == lo <= 2.0 <= hi
        assert math.sqrt(hi) - math.sqrt(lo) <= 1e-15


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
        assert classify_regime(40, 25.0, 25.0, 0.0) == "I"
        assert classify_regime(40, 25.0, 50.0, 0.0) == "II"
        assert classify_regime(20, 25.0, 50.0, 0.0) == "III"

    def test_guard_bands(self):
        assert classify_regime(40, 25.0, 41.0, 1.0) == "indeterminate"
        assert classify_regime(25, 25.0, 25.0, 0.0) == "indeterminate"
