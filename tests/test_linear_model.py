"""Design generation, AMP/PGD solvers, and empirical risk tests.

Independent oracles for PGD (tests/oracles.py and scipy): at n = 3 on the
orthant, enumerate all support patterns, solve each restricted least
squares and keep the feasible candidate with the smallest objective; at
n = 50, the exact active-set NNLS of ``scipy.optimize.nnls``; on the l1
ball at n <= 6, the same enumeration over supports and signs; on the
monotone cone, scipy's bounded least squares on increments; for every
kind, the gradient mapping at the returned point.
"""

import functools
import inspect
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import nnls

from oracles import (
    face_lsq_oracle,
    face_matrix,
    l1_lsq_oracle,
    monotone_lsq_oracle,
    nnls_oracle,
    relative_gradient_mapping,
)
from riskfix.constraints import ConstraintSet, face, face_span, project
from riskfix.errors import DomainError
from riskfix.experiments import get_preset, resolve_signal
from riskfix.fixed_point import nnls_solve
from riskfix import linear_model
from riskfix.kernels import DiscretePrior
from riskfix.linear_model import (
    amp_solve,
    empirical_risk,
    generate_instance,
    pgd_solve,
    run_replicates,
    solve_instance,
)
from riskfix.seeds import child_seed, mean_se

AMP_CAP = inspect.signature(amp_solve).parameters["max_iter"].default


class TestGenerateInstance:
    def test_noise_must_be_nondegenerate(self):
        with pytest.raises(DomainError):
            generate_instance(10, 5, np.zeros(5), 0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(DomainError, match=r"sigma > 0"):
            generate_instance(10, 5, np.zeros(5), sigma)

    @pytest.mark.parametrize("m, mu0, message", [
        (0, np.zeros(5), "m and n must be positive"),
        (10, np.zeros(4), "mu0 must be a vector of length 5"),
    ], ids=["m-zero", "mu0-length"])
    def test_bad_sizes_rejected(self, m, mu0, message):
        with pytest.raises(DomainError) as exc:
            generate_instance(m, 5, mu0, 1.0)
        assert message in str(exc.value)

    def test_model_identity(self):
        inst = generate_instance(30, 12, np.linspace(0, 1, 12), 0.7, seed=3)
        np.testing.assert_array_equal(inst.Y, inst.X @ inst.mu0 + inst.xi)

    def test_column_variance(self):
        m, n = 200, 150
        inst = generate_instance(m, n, np.zeros(n), 1.0, seed=4)
        second_moment = float(np.mean(inst.X**2)) * n
        assert abs(second_moment - 1.0) <= 3.0 / math.sqrt(m * n)

    def test_design_is_scaled_draws(self):
        inst = generate_instance(30, 12, np.zeros(12), 1.0, seed=5)
        draws = np.random.default_rng(np.random.SeedSequence(5)).standard_normal((30, 12))
        np.testing.assert_array_equal(inst.X, draws / math.sqrt(12))

    def test_seed_determinism(self):
        a = generate_instance(20, 10, np.zeros(10), 1.0, seed=6)
        b = generate_instance(20, 10, np.zeros(10), 1.0, seed=6)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.xi, b.xi)


def figure2_left_m60(count):
    """figure2-left instances at m = 60: orthant, n = 50, mu0 = 5, sigma = 1."""
    return [
        generate_instance(60, 50, np.full(50, 5.0), 1.0, seed=child_seed(1, i))
        for i in range(count)
    ]


def amp_matches_oracle(K, inst, oracle, trial=None):
    """A converged AMP result is the oracle's minimizer; an unconverged one claims nothing."""
    res = amp_solve(K, inst)
    if res.converged:
        assert np.linalg.norm(res.mu_hat - oracle) <= 1e-10, trial
    return res.converged


class TestPgd:
    def test_against_support_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        K = ConstraintSet.orthant(3)
        amp_converged = 0
        for trial in range(30):
            mu0 = np.abs(rng.standard_normal(3))
            inst = generate_instance(5, 3, mu0, 1.0, seed=int(rng.integers(1 << 31)))
            res = pgd_solve(K, inst, tol=1e-15)
            oracle = nnls_oracle(inst.X, inst.Y)
            np.testing.assert_allclose(res.mu_hat, oracle, atol=1e-6)
            amp_converged += amp_matches_oracle(K, inst, oracle, trial)
        assert amp_converged >= 25  # 28 of 30

    def test_against_exact_nnls(self):
        # the polish step lands on the active-set minimizer itself
        K = ConstraintSet.orthant(50)
        amp_converged = 0
        for inst in figure2_left_m60(10):
            exact, _ = nnls(inst.X, inst.Y)
            res = pgd_solve(K, inst)
            assert np.linalg.norm(res.mu_hat - exact) <= 1e-10
            amp_converged += amp_matches_oracle(K, inst, exact)
        assert amp_converged >= 7  # 8 of 10

    @pytest.mark.parametrize("n, m, radius", [(6, 4, 1.0), (5, 3, 2.0), (6, 6, 1.5),
                                              (6, 10, 1.0), (6, 10, 50.0)])
    def test_against_l1_enumeration_oracle(self, n, m, radius):
        # on the sphere (m < n too), and inside the ball at radius 50
        rng = np.random.default_rng(n * m)
        K = ConstraintSet.l1_ball(n, radius)
        amp_converged = 0
        for trial in range(8):
            mu0 = rng.standard_normal(n)
            mu0 *= 0.8 * radius / np.abs(mu0).sum()
            inst = generate_instance(m, n, mu0, 1.0, seed=int(rng.integers(1 << 31)))
            res = pgd_solve(K, inst)
            oracle = l1_lsq_oracle(inst.X, inst.Y, radius)
            assert res.converged and np.linalg.norm(res.mu_hat - oracle) <= 1e-10, trial
            amp_converged += amp_matches_oracle(K, inst, oracle, trial)
        assert amp_converged >= 5  # 6 to 8 of 8

    @pytest.mark.parametrize("n, m", [(10, 30), (8, 8), (12, 40)])
    def test_against_monotone_increment_oracle(self, n, m):
        rng = np.random.default_rng(n * m)
        K = ConstraintSet.monotone_cone(n)
        amp_converged = 0
        for trial in range(8):
            mu0 = np.sort(rng.standard_normal(n))
            inst = generate_instance(m, n, mu0, 1.0, seed=int(rng.integers(1 << 31)))
            res = pgd_solve(K, inst)
            oracle = monotone_lsq_oracle(inst.X, inst.Y)
            assert res.converged and np.linalg.norm(res.mu_hat - oracle) <= 1e-10, trial
            amp_converged += amp_matches_oracle(K, inst, oracle, trial)
        assert amp_converged >= 6  # 7 or 8 of 8

    def test_converged_means_kkt_certified(self):
        # converged must certify mu_hat itself, not the extrapolated point;
        # AMP's own converged results too, alone and under "auto"
        linear = np.arange(1, 101) / 100  # on the boundary of the l1 ball
        cases = [
            (ConstraintSet.orthant(50), np.full(50, 5.0), 60),
            (ConstraintSet.l1_ball(100, 50.5), linear, 60),
            (ConstraintSet.monotone_cone(100), linear, 100),
        ]
        amp_converged = 0
        for base, (K, mu0, m) in enumerate(cases, start=1):
            for i in range(15):
                inst = generate_instance(m, mu0.size, mu0, 1.0, seed=child_seed(base, i))
                amp = amp_solve(K, inst)
                for res in (amp, pgd_solve(K, inst), solve_instance(K, inst, "auto")):
                    assert res.converged or res is amp, (K.kind, i, res.solver)
                    if res.converged:
                        kkt = relative_gradient_mapping(K, inst.X, inst.Y, res.mu_hat)
                        assert kkt <= 1e-7, (K.kind, i, res.solver, kkt)
                        assert linear_model._kkt_certified(K, inst, res.mu_hat), (K.kind, i)
                amp_converged += amp.converged
                # only a fallback carries a reason
                assert (res.solver == "pgd") == (res.fallback is not None), (K.kind, i)
        assert amp_converged >= 30  # 36 of 45

    @pytest.mark.parametrize("i", [56, 94, 147, 180, 194])
    def test_objective_floor_stop_is_certified(self, i):
        # the degenerate preset (orthant, n=50, m=20, zero signal): these cold
        # starts after a blow-up interpolate Y and reach the objective floor
        # an iteration before their relative KKT residual falls to 1e-7
        K = ConstraintSet.orthant(50)
        emp_seed = child_seed(child_seed(get_preset("degenerate").seed, 0), 1)
        inst = generate_instance(20, 50, np.zeros(50), 1.0, seed=child_seed(emp_seed, i))
        res = solve_instance(K, inst)
        assert (res.solver, res.fallback) == ("pgd", "blowup")
        assert res.objective < 2 * linear_model._OBJECTIVE_FLOOR
        assert res.converged and linear_model._kkt_certified(K, inst, res.mu_hat)

    def test_iteration_budget(self):
        # the iteration counters are deterministic
        K = ConstraintSet.orthant(50)
        assert sum(pgd_solve(K, inst).iterations for inst in figure2_left_m60(10)) <= 7_000

        K = ConstraintSet.l1_ball(100, 50.5)
        mu0 = np.arange(1, 101) / 100
        fallbacks = 0
        for i in range(30):
            inst = generate_instance(30, 100, mu0, 1.0, seed=child_seed(7, i))
            if amp_solve(K, inst).converged:
                continue
            fallbacks += 1
            res = pgd_solve(K, inst)
            assert res.converged and res.iterations < 50_000, i
        assert fallbacks > 0

    def test_start_at_minimizer_converges_at_once(self):
        # scipy's active-set NNLS is an exact minimizer: one step certifies it
        K = ConstraintSet.orthant(50)
        for inst in figure2_left_m60(5):
            exact, _ = nnls(inst.X, inst.Y)
            res = pgd_solve(K, inst, x0=exact)
            assert res.converged and res.iterations == 1
            assert np.linalg.norm(res.mu_hat - exact) <= 1e-12

    def test_warm_fallback_iteration_budget(self, monkeypatch):
        # deterministic AMP + PGD iterations on the auto path, over replicates
        # whose AMP reaches its cap (361 and 464): started from AMP's capped
        # iterate, PGD needs fewer iterations than from zero (151 against 309,
        # 254 against 549)
        cases = [
            (ConstraintSet.orthant(50), [
                generate_instance(60, 50, np.full(50, 5.0), 1.0, seed=child_seed(1, i))
                for i in (15, 25, 28, 36, 43, 44, 47)
            ], 450),
            (ConstraintSet.l1_ball(100, 50.5), [
                generate_instance(60, 100, np.arange(1, 101) / 100, 1.0, seed=child_seed(2, i))
                for i in (3, 7, 12, 13, 14, 16, 17)
            ], 600),
        ]
        amp_iterations = []

        def counting_amp(*args, **kwargs):
            res = amp_solve(*args, **kwargs)
            amp_iterations.append(res.iterations)
            return res

        monkeypatch.setattr(linear_model, "amp_solve", counting_amp)
        for K, instances, budget in cases:
            amp_iterations.clear()
            results = [solve_instance(K, inst, "auto") for inst in instances]
            assert all(res.solver == "pgd" and res.fallback == "cap" for res in results), K.kind
            pgd_iterations = sum(res.iterations for res in results)
            assert sum(amp_iterations) + pgd_iterations <= budget, K.kind
            assert pgd_iterations < sum(pgd_solve(K, inst).iterations for inst in instances), K.kind

    def test_warm_and_cold_fallback_agree(self):
        # a unique minimizer does not depend on the start point (m = 60 is
        # non-degenerate for both sets)
        cases = [
            (ConstraintSet.orthant(50), np.full(50, 5.0), 60),
            (ConstraintSet.l1_ball(100, 50.5), np.arange(1, 101) / 100, 60),
        ]
        for K, mu0, m in cases:
            for i in range(10):
                inst = generate_instance(m, K.n, mu0, 1.0, seed=child_seed(3, i))
                warm = solve_instance(K, inst, "auto")
                if warm.solver != "pgd":
                    continue
                cold = pgd_solve(K, inst)
                assert abs(warm.risk - cold.risk) <= 1e-6 * cold.risk, (K.kind, i)

    def test_objective_nonincreasing_in_budget(self):
        K = ConstraintSet.monotone_cone(10)
        inst = generate_instance(30, 10, np.linspace(0, 1, 10), 1.0, seed=8)
        objectives = [
            pgd_solve(K, inst, tol=0.0, max_iter=k).objective
            for k in (1, 2, 5, 10, 50, 200, 1000)
        ]
        diffs = np.diff(objectives)
        assert np.all(diffs <= 1e-12 * max(1.0, objectives[0]))

    def test_monotone_kkt_residual(self):
        rng = np.random.default_rng(9)
        K = ConstraintSet.monotone_cone(10)
        inst = generate_instance(30, 10, np.sort(rng.standard_normal(10)), 1.0, seed=10)
        res = pgd_solve(K, inst, tol=1e-15)
        resid = inst.Y - inst.X @ res.mu_hat
        for _ in range(100):
            v = project(K, rng.standard_normal(10) * 2.0).point
            assert float(resid @ (inst.X @ (v - res.mu_hat))) <= 1e-5

    def test_feasibility(self):
        rng = np.random.default_rng(11)
        for K in (
            ConstraintSet.orthant(8),
            ConstraintSet.monotone_cone(8),
            ConstraintSet.l1_ball(8, 1.5),
        ):
            mu0 = project(K, rng.standard_normal(8)).point
            inst = generate_instance(24, 8, mu0, 0.5, seed=12)
            res = pgd_solve(K, inst)
            gap = np.linalg.norm(project(K, res.mu_hat).point - res.mu_hat)
            assert gap <= 1e-8

    def test_singular_face_is_not_polished(self):
        # two identical columns make the face's normal equations exactly
        # singular: the face minimizer is not unique, so there is no polish,
        # and PGD still converges to a certified minimizer without one
        K, mu0 = ConstraintSet.orthant(6), np.full(6, 2.0)
        inst = generate_instance(20, 6, mu0, 1.0, seed=5)
        X = inst.X.copy()
        X[:, 1] = X[:, 0]
        inst = replace(inst, X=X, Y=X @ mu0 + inst.xi)
        x = np.ones(6)  # every coordinate on the face
        key, tried = face(K, x), set()
        assert linear_model._face_minimizer(K, X, inst.Y, x, key, tried) == (key, None)
        assert tried == {key}

        res = pgd_solve(K, inst)
        assert res.converged and res.iterations == 31
        assert linear_model._kkt_certified(K, inst, res.mu_hat)

    def test_face_minimizer_tries_a_repeated_face_once(self):
        K = ConstraintSet.orthant(6)
        inst = generate_instance(20, 6, np.full(6, 2.0), 1.0, seed=5)
        x = np.ones(6)  # the minimizer's face: every coordinate positive
        key, tried = face(K, x), set()
        # a face other than the previous iterate's is not tried
        assert linear_model._face_minimizer(K, inst.X, inst.Y, x, b"other", tried) == (key, None)
        assert not tried
        got_key, (z, Xz) = linear_model._face_minimizer(K, inst.X, inst.Y, x, key, tried)
        assert got_key == key and tried == {key} and face(K, z) == key
        np.testing.assert_allclose(Xz, inst.X @ z, rtol=1e-12)
        # a tried face is not tried again
        assert linear_model._face_minimizer(K, inst.X, inst.Y, x, key, tried) == (key, None)

    @pytest.mark.parametrize("K, x", [
        (ConstraintSet.orthant(4000), np.r_[np.ones(10), np.zeros(3990)]),
        (ConstraintSet.monotone_cone(4000), np.linspace(0.0, 1.0, 4000)),
        (ConstraintSet.monotone_cone(4000), np.repeat(np.arange(10.0), 400)),
        (ConstraintSet.l1_ball(4000, 10.0), np.r_[np.ones(10), np.zeros(3990)]),
        (ConstraintSet.l1_ball(4000, 10.0), np.full(4000, 1e-3)),
    ], ids=["orthant", "monotone-singletons", "monotone-blocks", "l1-sphere", "l1-interior"])
    def test_polish_takes_memory_linear_in_n(self, K, x):
        # An n x n matrix here would be 128 MB; the 20 x n design is 0.6 MB.
        rng = np.random.default_rng(13)
        X, Y = rng.standard_normal((20, K.n)), rng.standard_normal(20)
        tracemalloc.start()
        try:
            linear_model._face_minimizer(K, X, Y, x, face(K, x), set())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("K, x", [
        (ConstraintSet.orthant(4000), np.ones(4000)),
        (ConstraintSet.monotone_cone(4000), np.linspace(0.0, 1.0, 4000)),
        (ConstraintSet.l1_ball(4000, 10.0), np.full(4000, 1e-3)),
    ], ids=["orthant", "monotone-singletons", "l1-interior"])
    def test_face_wider_than_m_is_rejected_before_x_is_read(self, K, x):
        # 4000 free directions against 20 rows: no unique minimizer, and no
        # 20 x 4000 copy of X (0.64 MB) to find that out
        rng = np.random.default_rng(14)
        X, Y = rng.standard_normal((20, K.n)), rng.standard_normal(20)
        tracemalloc.start()
        try:
            got = linear_model._face_minimizer(K, X, Y, x, face(K, x), set())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (face(K, x), None)
        assert peak < X.nbytes

    def test_blocky_monotone_face_is_summed_from_x_in_place(self):
        # ten blocks of 400: A is 200 x 10, and X (6.4 MB) is never copied
        K, x = ConstraintSet.monotone_cone(4000), np.repeat(np.arange(10.0), 400)
        rng = np.random.default_rng(15)
        X = rng.standard_normal((200, K.n))
        Y = X @ x + 0.01 * rng.standard_normal(200)
        tracemalloc.start()
        try:
            _, polish = linear_model._face_minimizer(K, X, Y, x, face(K, x), set())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert polish is not None and peak < X.nbytes

    @pytest.mark.parametrize("K, x, m", [
        (ConstraintSet.monotone_cone(60), np.repeat(np.arange(10.0), 6), 40),
        (ConstraintSet.monotone_cone(30), np.arange(30.0), 60),
        (ConstraintSet.monotone_cone(40), np.r_[np.zeros(8), np.arange(1.0, 13.0), np.full(15, 13.0),
                                                 np.arange(14.0, 19.0)], 50),
        (ConstraintSet.orthant(30), np.linspace(1.0, 2.0, 30), 60),
    ], ids=["monotone-blocks", "monotone-singletons", "monotone-mixed", "orthant-all-positive"])
    def test_polish_matches_a_dense_block_indicator_oracle(self, K, x, m):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((m, K.n)) / math.sqrt(K.n)
        Y = X @ x + 0.01 * rng.standard_normal(m)
        key = face(K, x)
        _, (z, Xz) = linear_model._face_minimizer(K, X, Y, x, key, set())
        expected = face_lsq_oracle(X, Y, face_matrix(K, face_span(K, x)[0]))
        assert face(K, z) == key
        np.testing.assert_allclose(z, expected, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(Xz, X @ z, rtol=0.0, atol=1e-10)


class TestProjectionCount:
    """AMP projects once per iteration and PGD once more, before its loop,
    whether it starts cold or from ``x0``; PGD's polish step projects nothing.

    perfbench's tracer reads solver iteration counts from these calls, so the
    count must hold converged or capped, on every kind the solvers serve.
    """

    @pytest.mark.parametrize(
        "K, m, mu0",
        [
            (ConstraintSet.orthant(50), 100, 5.0 * np.ones(50)),
            (ConstraintSet.l1_ball(100, 50.0), 100, np.linspace(-1.0, 1.0, 100)),
            (ConstraintSet.monotone_cone(100), 100, np.linspace(0.0, 2.0, 100)),
        ],
        ids=["orthant", "l1_ball", "monotone_cone"],
    )
    # 100 iterations is budget enough for every solver to converge here
    # (AMP needs 56, 62 and 18); 4 is not.
    @pytest.mark.parametrize("max_iter", [100, 4], ids=["converged", "capped"])
    def test_one_projection_per_iteration(self, monkeypatch, K, m, mu0, max_iter):
        calls, polishes = [], []
        face_minimizer = linear_model._face_minimizer

        def counting_project(K, x):
            calls.append(1)
            return project(K, x)

        def counting_polish(*args):
            key, polish = face_minimizer(*args)
            polishes.append(polish is not None)
            return key, polish

        monkeypatch.setattr(linear_model, "project", counting_project)
        monkeypatch.setattr(linear_model, "_face_minimizer", counting_polish)
        inst = generate_instance(m, K.n, mu0, 1.0, seed=child_seed(40, 0))
        converges = max_iter == 100
        # a warm start projects once too.  At mu0 it lands on the minimizer's
        # face, where a polish step fires; capped, it starts far out on a
        # wrong face (every other coordinate zeroed), so 4 iterations cannot
        # finish it.
        x0 = mu0 if converges else 10.0 * mu0 * (np.arange(K.n) % 2)
        warm = functools.partial(pgd_solve, x0=x0)
        for solve, extra in ((amp_solve, 0), (pgd_solve, 1), (warm, 1)):
            calls.clear()
            polishes.clear()
            res = solve(K, inst, max_iter=max_iter)
            assert res.converged == converges
            if not converges:
                assert res.iterations == max_iter
            assert len(calls) == res.iterations + extra
        if converges:
            assert any(polishes)  # in the warm run


class TestAmp:
    def test_full_subspace_matches_least_squares(self):
        n, m = 10, 200
        K = ConstraintSet.coordinate_subspace(n, n)
        inst = generate_instance(m, n, np.linspace(-1, 1, n), 1.0, seed=13)
        res = amp_solve(K, inst)
        assert res.converged and res.solver == "amp"
        ref = pgd_solve(K, inst)
        assert res.objective <= ref.objective + 1e-6 * (1.0 + ref.objective)
        lsq, *_ = np.linalg.lstsq(inst.X, inst.Y, rcond=None)
        np.testing.assert_allclose(res.mu_hat, lsq, atol=1e-5)

    def test_isotonic_objective_agreement(self):
        K = ConstraintSet.monotone_cone(50)
        mu0 = np.linspace(0.0, 1.0, 50)
        inst = generate_instance(50, 50, mu0, 1.0, seed=14)
        amp = amp_solve(K, inst)
        ref = pgd_solve(K, inst)
        assert amp.objective <= ref.objective + 1e-6 * (1.0 + ref.objective)

    def test_orthant_risk_tracks_prediction(self):
        # well-posed regime: m = 4n, strong signal
        n, m = 50, 200
        K = ConstraintSet.orthant(n)
        mu0 = np.full(n, 5.0)
        results = run_replicates(K, mu0, m, n, 1.0, replicates=100, base_seed=15)
        risks = np.array([r.risk for r in results])
        theory = nnls_solve(DiscretePrior.point_mass(5.0), m / n, 1.0) ** 2
        assert abs(np.median(risks) - theory) / theory <= 0.10

    def test_solver_agreement_small_instances(self):
        rng = np.random.default_rng(16)
        kinds = {
            "orthant": lambda n: ConstraintSet.orthant(n),
            "monotone_cone": lambda n: ConstraintSet.monotone_cone(n),
            "l1_ball": lambda n: ConstraintSet.l1_ball(n, 2.0),
            "subspace": lambda n: ConstraintSet.coordinate_subspace(n, max(n // 2, 1)),
        }
        for kind, make in kinds.items():
            agreements = 0
            for trial in range(20):
                n = int(rng.integers(5, 30))
                K = make(n)
                mu0 = project(K, rng.standard_normal(n)).point
                inst = generate_instance(3 * n, n, mu0, 0.5, seed=int(rng.integers(1 << 31)))
                amp = amp_solve(K, inst)
                ref = pgd_solve(K, inst)
                if amp.solver == "amp" and amp.converged and ref.converged:
                    assert abs(amp.risk - ref.risk) <= 1e-3 * (1.0 + ref.risk), kind
                    agreements += 1
            assert agreements >= 10, f"too few converged {kind} instances to compare"

    def test_divergence_fallback(self, monkeypatch):
        # undersampled strong signal: AMP blows up, and only solve_instance
        # under "auto" falls back to PGD
        n, m = 50, 20
        K = ConstraintSet.orthant(n)
        inst = generate_instance(m, n, np.full(n, 5.0), 1.0, seed=child_seed(5, 0))
        amp = amp_solve(K, inst)
        assert amp.solver == "amp" and not amp.converged
        assert amp.fallback == "blowup"  # its capped iterate fits Y worse than zero
        # given 100 iterations, the norm bound stops it before the cap (at 95)
        assert amp_solve(K, inst, max_iter=100).iterations < 100

        calls = []

        def counting_pgd(*args, **kwargs):
            calls.append(kwargs)
            return pgd_solve(*args, **kwargs)

        monkeypatch.setattr(linear_model, "pgd_solve", counting_pgd)
        res = solve_instance(K, inst, "auto")
        assert res.solver == "pgd" and res.converged and len(calls) == 1
        assert res.fallback == "blowup"
        # a blown-up iterate is no start point: PGD starts cold
        assert calls[0].get("x0") is None
        assert res.iterations == pgd_solve(K, inst).iterations
        gap = np.linalg.norm(project(K, res.mu_hat).point - res.mu_hat)
        assert gap <= 1e-8

        forced = solve_instance(K, inst, "amp")
        assert forced.solver == "amp" and not forced.converged
        assert forced.fallback == "blowup"
        np.testing.assert_array_equal(forced.mu_hat, amp.mu_hat)
        assert len(calls) == 1

    def test_blowup_bound_reads_only_the_data(self):
        # one X and Y split three ways into X mu0 + xi: no estimator sees the
        # split, so AMP stops where it stops on all three (the bound fires at
        # 95 of 100 iterations here)
        n, m = 50, 20
        K = ConstraintSet.orthant(n)
        inst = generate_instance(m, n, np.full(n, 5.0), 1.0, seed=child_seed(5, 0))
        runs = []
        for mu0 in (np.full(n, 5.0), np.zeros(n), np.full(n, 50.0)):
            split = replace(inst, mu0=mu0, xi=inst.Y - inst.X @ mu0)
            runs.append(amp_solve(K, split, max_iter=100))
        first = runs[0]
        assert first.fallback == "blowup" and first.iterations < 100
        for res in runs[1:]:
            np.testing.assert_array_equal(res.mu_hat, first.mu_hat)
            assert (res.iterations, res.objective, res.fallback) == (
                first.iterations, first.objective, first.fallback)

    def test_capped_amp_fitting_worse_than_zero_blew_up(self):
        # zero signal, m < n/2: at the cap AMP's iterate (norm ~220, below the
        # norm bound) fits Y worse than mu = 0 does (objective 65.7 against
        # 1.53).  Started there, PGD would stop at an interpolating minimizer
        # of risk ~940 instead of ~10 (~2e11 from AMP's 100th iterate).
        K = ConstraintSet.orthant(50)
        inst = generate_instance(20, 50, np.zeros(50), 1.0, seed=child_seed(7, 0))
        amp = amp_solve(K, inst)
        assert amp.iterations == AMP_CAP and amp.objective > float(inst.Y @ inst.Y) / 20
        assert amp.fallback == "blowup"
        res = solve_instance(K, inst, "auto")
        assert res.fallback == "blowup" and res.risk == pgd_solve(K, inst).risk < 100.0

    def test_capped_amp_warm_starts_pgd(self, monkeypatch):
        # orthant m = 60: AMP runs to its iteration cap near a minimizer, and
        # PGD starts from its last iterate (1 iteration against 56 from zero)
        K = ConstraintSet.orthant(50)
        inst = generate_instance(60, 50, np.full(50, 5.0), 1.0, seed=child_seed(1, 25))
        amp = amp_solve(K, inst)
        assert not amp.converged and amp.iterations == AMP_CAP and amp.fallback == "cap"
        calls = []

        def counting_pgd(*args, **kwargs):
            calls.append(kwargs)
            return pgd_solve(*args, **kwargs)

        monkeypatch.setattr(linear_model, "pgd_solve", counting_pgd)
        res = solve_instance(K, inst, "auto")
        assert res.solver == "pgd" and res.converged and res.fallback == "cap"
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0]["x0"], amp.mu_hat)
        assert relative_gradient_mapping(K, inst.X, inst.Y, res.mu_hat) <= 1e-7
        assert res.iterations < pgd_solve(K, inst).iterations

        forced = solve_instance(K, inst, "amp")
        assert forced.solver == "amp" and forced.fallback == "cap"
        assert len(calls) == 1

    @pytest.mark.parametrize("signal, replicates", [
        ("zero", (56, 73, 93)), ("linear", (73, 93, 114, 124, 145)), ("quadratic", (73,)),
    ], ids=["zero", "linear", "quadratic"])
    def test_monotone_cone_hands_off_cheaply(self, signal, replicates):
        # the isotonic-grid replicates at n = m = 100, seed 0, that reached
        # AMP's cap before AMP polished its faces: AMP now certifies the
        # minimizer of its repeated face itself, in 4-14 iterations, so
        # nothing is handed to PGD
        K = ConstraintSet.monotone_cone(100)
        mu0 = resolve_signal(signal, 100)
        # grid point 0's design seed, which every signal's replicates share
        design_seed = child_seed(child_seed(0, 0), 1)
        for i in replicates:
            inst = generate_instance(100, 100, mu0, 1.0, seed=child_seed(design_seed, i))
            res = solve_instance(K, inst, "auto")
            assert res.solver == "amp" and res.converged and res.iterations <= 14, i
            assert relative_gradient_mapping(K, inst.X, inst.Y, res.mu_hat) <= 1e-7, i
            ref = pgd_solve(K, inst, tol=1e-15)
            assert abs(res.risk - ref.risk) <= 1e-12 * ref.risk, i

    def test_uncertified_polish_does_not_converge(self, monkeypatch):
        # a "polish" that returns the iterate itself, no minimizer: AMP's next
        # step fails the KKT test there, so AMP goes on and converges nowhere
        # without a certificate, and every iteration still projects once
        calls = []

        def counting_project(K, x):
            calls.append(1)
            return project(K, x)

        def fake_polish(K, X, Y, mu, key, tried):
            return face(K, mu), (mu, X @ mu)

        monkeypatch.setattr(linear_model, "project", counting_project)
        monkeypatch.setattr(linear_model, "_face_minimizer", fake_polish)
        cases = [
            (ConstraintSet.orthant(50), np.full(50, 5.0), 60),
            (ConstraintSet.monotone_cone(100), np.linspace(0.0, 2.0, 100), 100),
        ]
        for K, mu0, m in cases:
            inst = generate_instance(m, K.n, mu0, 1.0, seed=child_seed(41, 0))
            calls.clear()
            amp = amp_solve(K, inst)
            assert not amp.converged and amp.fallback is not None, K.kind
            assert len(calls) == amp.iterations, K.kind
            res = solve_instance(K, inst, "auto")
            assert res.solver == "pgd" and res.converged, K.kind
            assert linear_model._kkt_certified(K, inst, res.mu_hat), K.kind

    def test_forced_pgd_skips_amp(self, monkeypatch):
        def no_amp(*args, **kwargs):
            raise AssertionError("amp_solve called")

        K = ConstraintSet.orthant(20)
        inst = generate_instance(40, 20, np.linspace(0.0, 2.0, 20), 1.0, seed=child_seed(6, 0))
        expected = pgd_solve(K, inst)
        monkeypatch.setattr(linear_model, "amp_solve", no_amp)
        res = solve_instance(K, inst, "pgd")
        assert res.solver == "pgd" and res.iterations == expected.iterations
        assert res.fallback is None
        assert res.objective == expected.objective and res.risk == expected.risk
        np.testing.assert_array_equal(res.mu_hat, expected.mu_hat)


class TestResidualConsistency:
    def test_oversampled_residual_estimates_variance(self):
        # m = 10 n: residual m^{-1} ||Y - X mu_hat||^2 within sigma^2 [0.9, 1.1].
        # Individual replicates carry chi-square noise of relative size
        # sqrt(2/m), so the band is checked on the replicate average.
        sigma = 1.3
        n, m = 100, 1000
        cases = [
            (ConstraintSet.coordinate_subspace(n, 10), np.r_[np.ones(10), np.zeros(n - 10)]),
            (ConstraintSet.orthant(n), np.zeros(n)),
        ]
        for K, mu0 in cases:
            results = run_replicates(K, mu0, m, n, sigma, replicates=20, base_seed=18)
            avg = np.mean([res.objective for res in results])
            assert 0.9 * sigma**2 <= avg <= 1.1 * sigma**2


class TestEmpiricalRisk:
    def test_subspace_exact_ratio(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            [per] = empirical_risk(
                ConstraintSet.coordinate_subspace(100, 10),
                [np.zeros(100)], 1000, 100, 1.0, replicates=60, base_seed=19,
            )
        mean, se = mean_se(np.array(per))
        assert len(per) == 60
        assert abs(mean - 10.0 / 990.0) <= 3.0 * se

    def test_orthant_zero_signal(self):
        # The limit risk at m/n = 0.8 is delta/(m - delta) = 5/3, reached in
        # probability.  At n = 50 the replicate mean is inflated ~23% by the
        # heavy upper tail of the ratio statistic (an exact active-set
        # solver reproduces the same value, so this is finite-size bias, not
        # solver error); the median tracks the in-probability limit.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            [per] = empirical_risk(
                ConstraintSet.orthant(50), [np.zeros(50)], 40, 50, 1.0,
                replicates=500, base_seed=20,
            )
        target = 5.0 / 3.0
        assert abs(np.median(per) - target) / target <= 0.15
        assert abs(np.mean(per) - target) / target <= 0.30

    def test_single_signal_error_is_raised(self):
        # run_replicates raises the ValueError that stops its signal;
        # empirical_risk returns it in that signal's place
        K, short = ConstraintSet.orthant(5), np.zeros(4)
        with pytest.raises(DomainError, match="^mu0 must be a vector of length 5$"):
            run_replicates(K, short, 10, 5, 1.0, 3)
        [error] = empirical_risk(K, [short], 10, 5, 1.0, 3)
        assert isinstance(error, DomainError) and str(error) == "mu0 must be a vector of length 5"

    def test_signal_outside_the_set_is_rejected_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("instance drawn")

        monkeypatch.setattr(linear_model, "generate_instance", no_draw)
        with pytest.raises(DomainError, match="^signal must belong to the constraint set$"):
            run_replicates(ConstraintSet.orthant(5), -np.ones(5), 10, 5, 1.0, 2)

    def test_signal_outside_the_set_is_rejected_in_its_place(self, monkeypatch):
        # a vector is checked once per call, each row of an array at its own
        # replicate: here row 1 leaves K, after row 0 has been solved
        K, good = ConstraintSet.orthant(5), np.ones(5)
        rows = np.ones((2, 5))
        rows[1, 0] = -1.0
        expected = [res.risk for res in run_replicates(K, good, 10, 5, 1.0, 2)]
        checked, solved = [], []
        contains, solve = ConstraintSet.contains, linear_model.solve_instance

        def counting_contains(K, x):
            checked.append(x.copy())
            return contains(K, x)

        def counting_solve(K, inst, solver_choice):
            solved.append(inst.mu0.copy())
            return solve(K, inst, solver_choice)

        monkeypatch.setattr(ConstraintSet, "contains", counting_contains)
        monkeypatch.setattr(linear_model, "solve_instance", counting_solve)
        outside, risks, row_error = empirical_risk(K, [-good, good, rows], 10, 5, 1.0, 2)
        for error in (outside, row_error):
            assert isinstance(error, DomainError)
            assert str(error) == "signal must belong to the constraint set"
        assert risks == expected
        assert [x.tolist() for x in checked] == [(-good).tolist(), good.tolist(), rows[0].tolist(),
                                                  rows[1].tolist()]
        assert [mu.tolist() for mu in solved] == [good.tolist(), rows[0].tolist(), good.tolist()]

    @pytest.mark.parametrize("short_first", [True, False], ids=["short-first", "short-second"])
    def test_short_signal_is_rejected_wherever_it_sits(self, short_first):
        K, short, good = ConstraintSet.orthant(5), np.ones(4), np.ones(5)
        signals = [short, good] if short_first else [good, short]
        risks = empirical_risk(K, signals, 10, 5, 1.0, 2)
        error, good_risks = risks if short_first else risks[::-1]
        assert isinstance(error, DomainError) and str(error) == "mu0 must be a vector of length 5"
        assert good_risks == [res.risk for res in run_replicates(K, good, 10, 5, 1.0, 2)]

    def test_seed_determinism(self):
        K, signals = ConstraintSet.orthant(10), [np.zeros(10)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            [a] = empirical_risk(K, signals, 30, 10, 1.0, replicates=12, base_seed=21)
            [b] = empirical_risk(K, signals, 30, 10, 1.0, replicates=12, base_seed=21)
            [c] = empirical_risk(K, signals, 30, 10, 1.0, replicates=12, base_seed=22)
        assert a == b
        assert a != c

    def test_child_seeds_are_distinct(self):
        seeds = {child_seed(0, i) for i in range(100)}
        assert len(seeds) == 100


class TestUnconvergedReplicates:
    """PGD capped at one iteration: replicate 2 of constant 5 on the orthant
    (n = 50, m = 60) is the first whose solve does not converge."""

    K, FIVE, ZERO = ConstraintSet.orthant(50), np.full(50, 5.0), np.zeros(50)
    SEED = child_seed(child_seed(0, 0), 1)

    @pytest.fixture(autouse=True)
    def capped_pgd(self, monkeypatch):
        monkeypatch.setattr(linear_model, "pgd_solve", functools.partial(pgd_solve, max_iter=1))

    def test_run_replicates_returns_every_result(self):
        results = run_replicates(self.K, self.FIVE, 60, 50, 1.0, 10, self.SEED)
        assert len(results) == 10
        assert [res.converged for res in results].index(False) == 2
        for i, res in enumerate(results):  # the replicates after 2 are solved too
            alone = solve_instance(self.K, generate_instance(60, 50, self.FIVE, 1.0, child_seed(self.SEED, i)))
            assert (res.risk, res.converged, res.iterations) == (alone.risk, alone.converged, alone.iterations)

    def test_empirical_risk_stops_that_signal_alone(self):
        error, zero = empirical_risk(self.K, [self.FIVE, self.ZERO], 60, 50, 1.0, 10, self.SEED)
        assert isinstance(error, DomainError) and str(error) == "replicate 2 did not converge"
        assert zero == [res.risk for res in run_replicates(self.K, self.ZERO, 60, 50, 1.0, 10, self.SEED)]

