"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 3 compares theory with simulation over the whole NNLS grid
(n = 50, signal 5, m in {40, 60, 100, 200, 400}).  The paper promises
``risk / r^2 -> 1`` only under a non-degeneracy condition: the residual
statistic ``1 + omega^2 (E dof - m) / (n sigma^2)`` at the root must stay
below 1.  Which cells meet it is decided by an independent oracle
(``tests/oracles.py``), and the program must flag exactly the same cells.
Where the condition holds, the ratio must lie in [0.9, 1.1].  Where it
fails (m = 40: r^2 = 18.803, E dof = 42.13 > m, statistic 2.053), the
least squares minimizer is not unique: the residual interpolates to zero
and the measured risk depends on the solver (ratio ~ 1.65 for projected
gradient from zero, ~ 1.10 for an active-set solver).  There the test
asserts that the degeneracy is real and reported: the program's statistic
is at least 1 and matches the oracle, and an exact active-set NNLS and
projected gradient both reach zero residual on the same instances at
clearly different risks.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.optimize import nnls

from oracles import (
    fd_divergence,
    monotone_projection_oracle,
    near_tie,
    nnls_oracle,
    orthant_fixed_point_oracle,
)
from riskfix.constraints import (
    ConstraintSet,
    MonteCarloConfig,
    divergence,
    l1_threshold,
    mc_statistical_dimension,
    polar_project,
    project,
)
from riskfix.experiments import get_preset, resolve_signal, run_experiment
from riskfix.fixed_point import FixedPointProblem, nnls_solve, solve
from riskfix.kernels import DiscretePrior, kernel_G, kernel_H, normal_cdf
from riskfix.linear_model import amp_solve, generate_instance, pgd_solve
from riskfix.seeds import child_seed
from riskfix.sequence import eval_processes

HARMONIC_100 = sum(1.0 / i for i in range(1, 101))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def fmt(value, spec: str) -> str:
    """Format a record field that a failed cell may have left as None."""
    return "None" if value is None else format(value, spec)


def quiet_solve(problem, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return solve(problem, **kw)


@pytest.fixture(scope="module")
def figure2_left_records():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        start = time.perf_counter()
        records = run_experiment(get_preset("figure2-left"))
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def figure2_right_records():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        start = time.perf_counter()
        records = run_experiment(get_preset("figure2-right"))
    return records, time.perf_counter() - start


def test_criterion_01_subspace_closed_form():
    K = ConstraintSet.coordinate_subspace(100, 10)
    problem = FixedPointProblem(K, np.zeros(100), 40, 100, 1.0)
    sol = quiet_solve(problem, tol=1e-12)
    err = abs(sol.r_sq - 1.0 / 3.0)
    report(1, sol.status == "converged" and err < 1e-8,
           f"subspace d=10, n=100, m=40: r^2 = {sol.r_sq:.12f}, |error| = {err:.2e}")


def test_criterion_02_nnls_zero_signal():
    target = 5.0 / 3.0
    r_analytic = nnls_solve(DiscretePrior.point_mass(0.0), 0.8, 1.0) ** 2
    K = ConstraintSet.orthant(50)
    problem = FixedPointProblem(K, np.zeros(50), 40, 50, 1.0)
    r_generic = quiet_solve(problem, tol=1e-10).r_sq
    ok = (abs(r_analytic - target) < 1e-8
          and abs(r_generic - target) < 1e-8
          and abs(r_analytic - r_generic) < 1e-8)
    report(2, ok, f"nnls r^2 = {r_analytic:.12f}, generic r^2 = {r_generic:.12f}, "
                  f"target 5/3, route gap = {abs(r_analytic - r_generic):.2e}")


def solver_spread(rec, mu0, seed: int, instances: int = 3):
    """Exact active-set NNLS vs projected gradient on instances of one cell.

    Returns the largest residual ``||Y - X mu||^2 / ||Y||^2`` of either
    solver and the per-instance (NNLS risk, PGD risk) pairs.
    """
    K = ConstraintSet.orthant(rec.n)
    worst_resid, risks = 0.0, []
    for i in range(instances):
        inst = generate_instance(rec.m, rec.n, mu0, rec.sigma, seed=child_seed(seed, i))
        exact, _ = nnls(inst.X, inst.Y)
        pgd = pgd_solve(K, inst)
        for mu in (exact, pgd.mu_hat):
            resid = inst.Y - inst.X @ mu
            worst_resid = max(worst_resid, float(resid @ resid) / float(inst.Y @ inst.Y))
        risks.append((float(np.sum((exact - mu0) ** 2)) / rec.n, pgd.risk))
    return worst_resid, risks


def test_criterion_03_figure2_left(figure2_left_records):
    records, elapsed = figure2_left_records
    config = get_preset("figure2-left")
    lines = []
    cells_ok = True
    degenerate, flagged = set(), set()
    for rec in records:
        mu0 = resolve_signal(rec.signal, rec.n)
        r_sq, dof, r2 = orthant_fixed_point_oracle(mu0, rec.m, rec.sigma)
        theory_ok = (rec.r_theory_sq is not None and rec.r2_statistic is not None
                     and math.isclose(rec.r_theory_sq, r_sq, rel_tol=1e-6)
                     and math.isclose(rec.r2_statistic, r2, rel_tol=1e-6, abs_tol=1e-9))
        if rec.r2_statistic is not None and rec.r2_statistic >= 1.0:
            flagged.add(rec.m)
        line = (f"m={rec.m}: ratio={fmt(rec.ratio, '.4f')} "
                f"(r2_stat={fmt(rec.r2_statistic, '.3f')}, oracle {r2:.3f})")
        if r2 >= 1.0:
            # non-degeneracy fails: the minimizer is not unique, so certify
            # that instead of the band
            degenerate.add(rec.m)
            worst_resid, risks = solver_spread(rec, mu0, config.seed)
            spread_ok = worst_resid <= 1e-10 and all(
                abs(a - b) >= 0.05 * r_sq for a, b in risks)
            cell_ok = theory_ok and rec.r2_statistic >= 1.0 and spread_ok
            line += (f" degenerate, E dof {dof:.2f} >= m; NNLS/PGD residual "
                     f"<= {worst_resid:.1e}, risks "
                     + ", ".join(f"{a:.2f}/{b:.2f}" for a, b in risks)
                     + ("" if spread_ok else " <- minimizers not shown distinct"))
        else:
            cell_ok = theory_ok and rec.ratio is not None and 0.9 <= rec.ratio <= 1.1
            if theory_ok and not cell_ok:
                line += " <- outside [0.9, 1.1]"
        if not theory_ok:
            line += (f" <- theory r^2={fmt(rec.r_theory_sq, '.6f')} disagrees with "
                     f"oracle r^2={r_sq:.6f} or r2_stat with oracle")
        cells_ok &= cell_ok
        lines.append(line)
    flags_ok = flagged == degenerate
    gaps = [None if rec.r_theory_sq is None
            else abs(math.sqrt(rec.r_theory_sq) - math.sqrt(50.0 / rec.m)) for rec in records]
    gap_ok = None not in gaps and all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    time_ok = elapsed <= 300.0
    detail = ("figure2-left " + "; ".join(lines)
              + f"; degenerate cells: oracle {sorted(degenerate)}, program {sorted(flagged)}"
              + f"; gaps to sqrt(n/m) {[fmt(g, '.3f') for g in gaps]} monotone={gap_ok}"
              + f"; runtime {elapsed:.0f}s (cap 300)")
    report(3, cells_ok and flags_ok and gap_ok and time_ok, detail)


def test_criterion_04_figure2_right(figure2_right_records):
    records, elapsed = figure2_right_records
    lines = []
    band_ok = True
    for rec in records:
        in_band = rec.ratio is not None and 0.9 <= rec.ratio <= 1.1
        band_ok &= in_band
        lines.append(f"{rec.signal}@n={rec.n}: {fmt(rec.ratio, '.4f')}"
                     + ("" if in_band else " <- outside"))
    time_ok = elapsed <= 600.0
    report(4, band_ok and time_ok,
           "figure2-right ratios " + "; ".join(lines) + f"; runtime {elapsed:.0f}s (cap 600)")


def test_criterion_05_statistical_dimensions():
    mc = MonteCarloConfig(samples=10_000, seed=101)
    est_o, se_o = mc_statistical_dimension(ConstraintSet.orthant(100), mc)
    est_m, se_m = mc_statistical_dimension(ConstraintSet.monotone_cone(100), mc)
    ok_o = abs(est_o - 50.0) <= 3.0 * se_o
    ok_m = abs(est_m - HARMONIC_100) <= 3.0 * se_m
    report(5, ok_o and ok_m,
           f"MC delta(orthant, n=100) = {est_o:.3f}+-{se_o:.3f} (target 50); "
           f"MC delta(monotone, n=100) = {est_m:.4f}+-{se_m:.4f} (target {HARMONIC_100:.4f})")


def test_criterion_06_nnls_oversampled_regime():
    r_sq = nnls_solve(DiscretePrior.point_mass(5.0), 50.0, 1.0) ** 2
    target = 0.02  # (1 - p0/2) sigma^2 / ratio with p0 = 0
    rel = abs(r_sq - target) / target
    report(6, rel <= 0.10, f"point mass 5, m/n=50: r^2 = {r_sq:.6f}, "
                           f"relative gap to 0.02 = {rel:.3%}")


def test_criterion_07_regime_three_gate():
    K = ConstraintSet.orthant(50)
    problem = FixedPointProblem(K, np.zeros(50), 20, 50, 1.0)
    sol = quiet_solve(problem)
    ok = sol.status == "no_solution" and sol.regime == "III" and sol.r_sq is None
    report(7, ok, f"orthant n=50, m=20: status={sol.status}, regime={sol.regime}")


def test_criterion_08_pathwise_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    kinds = ("orthant", "monotone_cone", "l1_ball", "subspace")
    sigmas = np.geomspace(0.05, 20.0, 50)
    checked = 0
    worst_identity = 0.0
    for kind in kinds:
        for _ in range(250):
            n = int(rng.integers(2, 101))
            if kind == "orthant":
                K = ConstraintSet.orthant(n)
                mu0 = np.abs(rng.standard_normal(n)) * (rng.random() < 0.5)
            elif kind == "monotone_cone":
                K = ConstraintSet.monotone_cone(n)
                mu0 = np.sort(rng.standard_normal(n)) * (rng.random() < 0.5)
            elif kind == "l1_ball":
                K = ConstraintSet.l1_ball(n, radius=float(rng.uniform(0.5, 3.0)))
                raw = rng.standard_normal(n)
                mu0 = raw * (0.8 * K.radius / max(np.abs(raw).sum(), 1e-9)) * (rng.random() < 0.5)
            else:
                d = int(rng.integers(1, n + 1))
                K = ConstraintSet.subspace(np.linalg.qr(rng.standard_normal((n, d)))[0])
                mu0 = K.basis @ rng.standard_normal(d)
            h = rng.standard_normal(n)
            hh = float(h @ h)

            # three-sigma subgrid for the expensive pathwise identities, full
            # grid for the monotonicity statements
            samples = [eval_processes(K, mu0, float(s), h) for s in sigmas]
            err, lrt, dof = np.array(samples).T
            scale = np.maximum(1.0, sigmas**2 * hh)
            worst_identity = max(worst_identity,
                                 float(np.max(np.abs(lrt - (2 * dof - err)) / scale)))
            assert np.all(np.abs(lrt - (2 * dof - err)) <= 1e-9 * scale)
            assert np.all(err <= dof + 1e-9 * scale)
            assert np.all(dof <= lrt + 1e-9 * scale)
            assert np.all(np.diff(err) >= -1e-12)
            assert np.all(np.diff(err / sigmas**2) <= 1e-12)
            if K.is_cone:
                x = rng.standard_normal(n) * 2.0
                p = project(K, x).point
                q = polar_project(K, x)
                s2 = max(float(x @ x), 1e-12)
                assert np.linalg.norm(p + q - x) <= 1e-9 * max(1.0, s2)
                assert abs(float(p @ q)) <= 1e-9 * s2
            j = int(rng.integers(0, 10))
            for M in (1.5, 2.0, 4.0):
                a_err, a_lrt, _ = samples[j]
                b_err, b_lrt, _ = eval_processes(K, mu0, float(M * sigmas[j]), h)
                tol_e = 1e-9 * max(1.0, b_err)
                assert a_err <= b_err + tol_e and b_err <= M**2 * a_err + tol_e
                tol_l = 1e-9 * max(1.0, abs(b_lrt))
                assert M * a_lrt <= b_lrt + tol_l and b_lrt <= M**2 * a_lrt + tol_l
            checked += 1
    elapsed = time.perf_counter() - start
    report(8, checked == 1000 and elapsed <= 120.0,
           f"{checked} instances, worst identity residual {worst_identity:.2e}, "
           f"runtime {elapsed:.0f}s (cap 120)")


def test_criterion_09_kernel_suite():
    xs = np.linspace(0.0, 10.0, 10_000)
    g, h = kernel_G(xs), kernel_H(xs)
    ok = (np.all(g >= 0.5) and np.all(g <= 1.0)
          and np.all(h >= 0.0) and h.max() < 0.13
          and np.max(np.abs(h - (normal_cdf(xs) - g))) < 1e-12)
    for delta in (0.01, 0.1):
        ok = ok and bool(np.all(kernel_G((1 + delta) * xs) <= g * (1 + 8 * delta) + 1e-12))
    report(9, ok, f"G in [1/2, 1], 0 <= H <= {h.max():.4f} < 0.13, "
                  f"identity residual {np.max(np.abs(h - (normal_cdf(xs) - g))):.1e}, "
                  "stability G((1+d)x) <= (1+8d)G(x)")


def test_criterion_10_oracle_equivalences():
    start = time.perf_counter()
    rng = np.random.default_rng(303)

    # PAVA vs exhaustive active-set QP
    for _ in range(500):
        n = int(rng.integers(2, 9))
        x = rng.standard_normal(n) * rng.uniform(0.2, 3.0)
        fit = project(ConstraintSet.monotone_cone(n), x).point
        assert np.max(np.abs(fit - monotone_projection_oracle(x))) <= 1e-8

    # l1 threshold equation
    for _ in range(200):
        n = int(rng.integers(1, 50))
        radius = float(rng.uniform(0.3, 2.0))
        x = rng.standard_normal(n) * 2.0
        if np.abs(x).sum() > radius:
            mu = l1_threshold(x, radius)
            assert abs(np.maximum(np.abs(x) - mu, 0.0).sum() - radius) <= 1e-10

    # divergence vs central finite differences, all kinds
    fd_checked = 0
    while fd_checked < 60:
        kind = ("orthant", "monotone_cone", "l1_ball", "subspace")[fd_checked % 4]
        n = int(rng.integers(2, 9))
        if kind == "orthant":
            K = ConstraintSet.orthant(n)
        elif kind == "monotone_cone":
            K = ConstraintSet.monotone_cone(n)
        elif kind == "l1_ball":
            K = ConstraintSet.l1_ball(n, radius=float(rng.uniform(0.5, 2.0)))
        else:
            d = int(rng.integers(1, n + 1))
            K = ConstraintSet.subspace(np.linalg.qr(rng.standard_normal((n, d)))[0])
        x = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
        if near_tie(K, x):
            continue
        assert abs(divergence(K, x) - fd_divergence(K, x)) <= 1e-3
        fd_checked += 1

    # PGD vs exhaustive KKT oracle (orthant, n = 3)
    for _ in range(20):
        mu0 = np.abs(rng.standard_normal(3))
        inst = generate_instance(5, 3, mu0, 1.0, seed=int(rng.integers(1 << 31)))
        res = pgd_solve(ConstraintSet.orthant(3), inst, tol=1e-15)
        assert np.max(np.abs(res.mu_hat - nnls_oracle(inst.X, inst.Y))) <= 1e-6

    # AMP vs PGD objective agreement, 20 instances per kind
    makers = {
        "orthant": lambda n: ConstraintSet.orthant(n),
        "monotone_cone": lambda n: ConstraintSet.monotone_cone(n),
        "l1_ball": lambda n: ConstraintSet.l1_ball(n, 2.0),
        "subspace": lambda n: ConstraintSet.coordinate_subspace(n, max(n // 2, 1)),
    }
    compared = {kind: 0 for kind in makers}
    for kind, make in makers.items():
        for _ in range(20):
            n = int(rng.integers(8, 40))
            K = make(n)
            mu0 = project(K, rng.standard_normal(n)).point
            inst = generate_instance(3 * n, n, mu0, 0.5, seed=int(rng.integers(1 << 31)))
            amp = amp_solve(K, inst)
            if amp.solver != "amp" or not amp.converged:
                continue
            ref = pgd_solve(K, inst, tol=1e-15)
            assert abs(amp.objective - ref.objective) <= 1e-6 * (1.0 + ref.objective), kind
            compared[kind] += 1
        assert compared[kind] >= 10, f"too few AMP-converged {kind} instances"

    elapsed = time.perf_counter() - start
    report(10, elapsed <= 180.0,
           f"PAVA==QP (500), l1 threshold (200), divergence==FD (60), "
           f"PGD==KKT (20), AMP==PGD {dict(compared)}; runtime {elapsed:.0f}s (cap 180)")


def test_criterion_11_solver_structure():
    tol = 1e-10
    K_sub = ConstraintSet.coordinate_subspace(100, 10)
    cases = [
        FixedPointProblem(K_sub, np.zeros(100), 40, 100, 1.0),
        FixedPointProblem(ConstraintSet.orthant(50), np.zeros(50), 40, 50, 1.0),
        FixedPointProblem(ConstraintSet.orthant(50), np.full(50, 5.0), 60, 50, 1.0),
        FixedPointProblem(ConstraintSet.orthant(50), np.full(50, 5.0), 400, 50, 1.0),
        FixedPointProblem(ConstraintSet.orthant(50), DiscretePrior.point_mass(5.0),
                          2500, 50, 1.0),
        FixedPointProblem(ConstraintSet.monotone_cone(100), np.zeros(100), 100, 100, 1.0,
                          MonteCarloConfig(samples=4000, seed=404)),
        FixedPointProblem(ConstraintSet.monotone_cone(100),
                          (np.arange(1, 101) / 100.0) ** 2, 100, 100, 1.0,
                          MonteCarloConfig(samples=4000, seed=405)),
    ]
    details = []
    for problem in cases:
        sol = quiet_solve(problem, tol=tol)
        assert sol.status == "converged"
        trace = np.array(sol.trace)
        assert trace[0] == 0.0 and np.all(np.diff(trace) >= -1e-14), "trace not monotone"
        again = quiet_solve(problem, tol=tol, r0_sq=10.0 * sol.r_sq)
        gap = abs(math.sqrt(again.r_sq) - math.sqrt(sol.r_sq)) / math.sqrt(sol.r_sq)
        assert gap <= 5.0 * tol, f"restart gap {gap:.2e}"
        ratio = sol.r_sq / problem.sigma2
        lo = sol.delta_K / (problem.m - sol.delta_K) if problem.m > sol.delta_K else math.inf
        dt_hi = sol.delta_T + 3.0 * sol.delta_T_se
        hi = dt_hi / (problem.m - dt_hi) if problem.m > dt_hi else math.inf
        assert ratio >= lo - 1e-9 and ratio <= hi + 1e-9, "bounds violated"
        details.append(f"{problem.constraint.kind}(m={problem.m}) restart gap {gap:.1e}")
    report(11, True, "monotone traces, restart-uniqueness, a-priori bounds: " + "; ".join(details))
