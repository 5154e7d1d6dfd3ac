"""Experiment grid, record serialization, and config handling."""

import functools
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from riskfix.errors import ConfigError, DomainError
import riskfix.experiments
import riskfix.fixed_point
import riskfix.linear_model
from riskfix.constraints import ConstraintSet
from riskfix.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentRecord,
    emit_report,
    get_preset,
    load_config,
    parse_prior,
    parse_records,
    resolve_constraint,
    resolve_signal,
    run_experiment,
)
from riskfix.linear_model import empirical_risk, run_replicates
from riskfix.seeds import child_seed, mean_se

TINY = ExperimentConfig(
    name="tiny",
    constraint="orthant",
    signals=("zero", "constant:2"),
    grid=((12, 40),),
    sigma=1.0,
    replicates=12,
    samples=200,
    seed=5,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_quiet(config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_experiment(config)


class TestSignals:
    def test_presets(self):
        np.testing.assert_array_equal(resolve_signal("zero", 4), np.zeros(4))
        np.testing.assert_allclose(resolve_signal("constant:2.5", 3), [2.5, 2.5, 2.5])
        np.testing.assert_allclose(resolve_signal("linear", 4), [0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(resolve_signal("quadratic", 2), [0.25, 1.0])

    def test_piecewise_constant(self):
        sig = resolve_signal("piecewise_constant:3", 9)
        assert sig.shape == (9,)
        assert np.all(np.diff(sig) >= 0)
        assert len(np.unique(sig)) == 3

    def test_prior_atoms(self):
        prior = resolve_signal("atoms=0:0.5,5:0.5", 10)
        assert prior.mass_at_zero == 0.5
        with pytest.raises(ConfigError):
            parse_prior("5")

    def test_file_signal(self, tmp_path):
        path = tmp_path / "mu0.txt"
        path.write_text("1.0 2.0 3.0\n")
        np.testing.assert_allclose(resolve_signal(f"file:{path}", 3), [1.0, 2.0, 3.0])
        with pytest.raises(ConfigError):
            resolve_signal(f"file:{path}", 5)

    def test_unknown(self):
        with pytest.raises(ConfigError):
            resolve_signal("cubic", 5)
        with pytest.raises(ConfigError):
            resolve_constraint("ball", 5)


class TestConfig:
    def test_from_dict_roundtrip(self):
        raw = {
            "name": "t", "constraint": "orthant", "signal": "zero",
            "grid": [[10, 20]], "replicates": 10,
        }
        config = ExperimentConfig.from_dict(raw)
        assert config.signals == ("zero",)
        assert config.grid == ((10, 20),)

    def test_unknown_field(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"name": "t", "constraint": "orthant",
                                        "signals": ["zero"], "grid": [[5, 5]], "bogus": 1})

    def test_missing_field(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"name": "t"})

    def test_rejection_names_the_floors(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(name="t", constraint="orthant", signals=("zero",),
                             grid=((5, 5),), replicates=5)
        assert str(exc.value) == ("config needs sigma > 0, replicates >= 10 "
                                  "and samples >= 100")

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(name="t", constraint="orthant", signals=("zero",),
                             grid=((5, 5),), replicates=10, sigma=sigma)
        assert str(exc.value) == ("config needs sigma > 0, replicates >= 10 "
                                  "and samples >= 100")

    @pytest.mark.parametrize("call, message", [
        (lambda tmp: replace(TINY, signals=()), "at least one signal spec"),
        (lambda tmp: replace(TINY, grid=()), "non-empty (n, m) grid"),
        (lambda tmp: replace(TINY, solver="newton"), "unknown solver choice 'newton'"),
        (lambda tmp: ExperimentConfig.from_dict({"name": "t", "constraint": "orthant",
                                                 "signals": ["zero"], "grid": [[1, 2, 3]]}),
         "grid must be a list of [n, m] pairs"),
        (lambda tmp: load_config(_write(tmp, "c.json", "[1, 2]")),
         "top-level JSON value must be an object"),
        (lambda tmp: resolve_constraint("l1_ball", 5), "l1_ball needs a radius"),
        (lambda tmp: resolve_constraint("subspace", 5), "subspace needs a dimension"),
        (lambda tmp: resolve_signal("piecewise_constant:6", 5),
         "piecewise_constant needs 1 <= k <= n, got 6"),
        (lambda tmp: parse_records(_write(tmp, "r.csv", "n,m\n5,10\n")), "unexpected CSV header"),
        (lambda tmp: replace(TINY, jobs=2), "jobs must be 1"),
    ], ids=["no-signals", "no-grid", "solver", "grid-triple", "config-not-object",
            "l1-no-radius", "subspace-no-dim", "pieces-above-n", "csv-header", "jobs-2"])
    def test_input_rejected_with_reason(self, tmp_path, call, message):
        with pytest.raises(ConfigError) as exc:
            call(tmp_path)
        assert message in str(exc.value)

    def test_load_config_diagnostics(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",}')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(str(path))

    def test_presets_exist(self):
        left = get_preset("figure2-left")
        assert [m for _, m in left.grid] == [40, 60, 100, 200, 400]
        right = get_preset("figure2-right")
        assert [n for n, _ in right.grid] == [100, 200, 300]
        assert len(get_preset("figure2-right", full=True).grid) == 5
        assert get_preset("degenerate").grid == ((50, 20),)
        with pytest.raises(ConfigError):
            get_preset("figure3")


class TestRunExperiment:
    def test_tiny_grid(self):
        records = run_quiet(TINY)
        assert len(records) == 2
        for rec in records:
            assert rec.n == 12 and rec.m == 40
            assert rec.regime == "I"
            assert rec.ratio is not None and rec.ratio > 0
            assert rec.risk_emp_se >= 0
            assert rec.runtime_seconds > 0

    def test_determinism_up_to_runtime(self):
        a = run_quiet(TINY)
        b = run_quiet(TINY)
        for ra, rb in zip(a, b):
            da, db = asdict(ra), asdict(rb)
            da.pop("runtime_seconds"), db.pop("runtime_seconds")
            assert da == db

    def test_degenerate_cell_has_empty_theory(self):
        config = replace(TINY, name="deg", signals=("zero",), grid=((12, 4),))
        rec = run_quiet(config)[0]
        assert rec.regime == "III"
        assert rec.r_theory_sq is None and rec.ratio is None
        assert rec.risk_emp_mean is not None

    def test_unconverged_fixed_point_is_not_reported(self, monkeypatch):
        # the root-finder converges on every cell within its default cap, so
        # the cap is lowered to two evaluations: no bracket narrows that far
        monkeypatch.setattr(riskfix.experiments, "solve",
                            functools.partial(riskfix.fixed_point.solve, max_iter=2))
        config = ExperimentConfig("unc", "orthant", ("constant:5",), ((50, 26),),
                                  replicates=10, samples=100)
        rec = run_quiet(config)[0]
        assert rec.regime == "unconverged"
        assert rec.r_theory_sq is None and rec.r_theory_se is None
        assert rec.ratio is None and rec.r2_statistic is None
        assert rec.risk_emp_mean is not None

    def test_prior_signal_cell(self):
        config = replace(TINY, name="prior", signals=("atoms=0:0.5,3:0.5",), grid=((12, 30),))
        rec = run_quiet(config)[0]
        assert rec.r_theory_sq is not None and rec.risk_emp_mean is not None

    def test_error_row_fail_soft(self, tmp_path):
        config = replace(TINY, name="bad", signals=(f"file:{tmp_path}/absent.txt",))
        rec = run_quiet(config)[0]
        assert rec.regime.startswith("error")
        assert rec.r_theory_sq is None

    def test_fail_soft_keeps_the_other_signals(self, tmp_path):
        config = replace(SHARED, signals=("linear", f"file:{tmp_path}/absent.txt", "quadratic"))
        without = run_quiet(replace(config, signals=("linear", "quadratic")))
        records = run_quiet(config)
        assert [r.regime.startswith("error") for r in records] == [False] * 2 + [True] * 2 + [False] * 2
        assert records[2].r_theory_sq is None and records[3].risk_emp_mean is None
        # the others' risks do not depend on the failed signal (shared designs)
        for rec, ref in zip(records[:2] + records[4:], without):
            assert _values(rec) == _values(ref)

    def test_verify_error_fails_only_its_signal(self, monkeypatch):
        solve_instance = riskfix.linear_model.solve_instance

        def fails_on_quadratic(K, inst, solver_choice):
            if np.array_equal(inst.mu0, resolve_signal("quadratic", inst.mu0.size)):
                raise DomainError("quadratic verify fails")
            return solve_instance(K, inst, solver_choice)

        reference = run_quiet(SHARED)
        monkeypatch.setattr(riskfix.linear_model, "solve_instance", fails_on_quadratic)
        records = run_quiet(SHARED)
        assert [r.regime for r in records[4:]] == ["error: quadratic verify fails"] * 2
        assert [_values(r) for r in records[:4]] == [_values(r) for r in reference[:4]]

    def test_theory_error_fails_only_its_signal(self):
        config = ExperimentConfig("theory", "monotone_cone", ("linear", "atoms=0:0.5,1:0.5"),
                                  ((12, 30),), replicates=10, samples=200)
        alone = run_quiet(replace(config, signals=("linear",)))
        records = run_quiet(config)
        assert records[1].regime == "error: prior signals run through the orthant analytic path only"
        assert records[1].r_theory_sq is None and records[1].risk_emp_mean is None
        assert asdict(records[0]) | {"runtime_seconds": 0} == asdict(alone[0]) | {"runtime_seconds": 0}

    @pytest.mark.parametrize("constraint, signals, message", [
        ("orthant", ("zero", "constant:-1"), "signal must belong to the constraint set"),
        ("monotone_cone", ("linear", "atoms=0:0.5,1:0.5"),
         "prior signals run through the orthant analytic path only"),
    ], ids=["non-member", "prior-off-orthant"])
    def test_invalid_problem_solves_no_replicate(self, monkeypatch, constraint, signals, message):
        # every problem is built before the first block, so the invalid
        # signal solves no replicate: only the valid signal's 10 are solved
        solve_instance = riskfix.linear_model.solve_instance
        calls = []

        def counting(K, inst, solver_choice):
            calls.append(inst)
            return solve_instance(K, inst, solver_choice)

        monkeypatch.setattr(riskfix.linear_model, "solve_instance", counting)
        config = ExperimentConfig("invalid", constraint, signals, ((12, 30),),
                                  replicates=10, samples=200)
        records = run_quiet(config)
        assert records[1].regime == f"error: {message}"
        assert records[0].risk_emp_mean is not None
        assert len(calls) == 10

    def test_unconverged_replicate_fails_its_signal(self, monkeypatch):
        # at seed 0, AMP reaches its cap on replicates 2 and 8 of constant:5
        # and on none of zero's; PGD cut to one iteration finishes 8, not 2
        config = ExperimentConfig("unconverged", "orthant", ("constant:5", "zero"), ((50, 60),),
                                  replicates=10, samples=200)
        reference = run_quiet(config)
        pgd_solve = riskfix.linear_model.pgd_solve
        monkeypatch.setattr(riskfix.linear_model, "pgd_solve", functools.partial(pgd_solve, max_iter=1))
        records = run_quiet(config)
        # replicate 2 stops constant:5 in its first block, replicates 0-4
        assert records[0].regime == "error: 1 of 5 replicates did not converge"
        assert records[0].r_theory_sq is None and records[0].risk_emp_mean is None
        assert _values(records[1]) == _values(reference[1])
        K, design_seed = ConstraintSet.orthant(50), child_seed(child_seed(0, 0), 1)
        with pytest.raises(DomainError, match="^1 of 10 replicates did not converge$"):
            empirical_risk(K, np.full(50, 5.0), 60, 50, 1.0, 10, design_seed)
        assert empirical_risk(K, np.zeros(50), 60, 50, 1.0, 10, design_seed)[0] > 0

    def test_programming_error_in_verify_propagates(self, monkeypatch):
        def broken(K, inst, solver_choice):
            raise TypeError("not a domain error")

        monkeypatch.setattr(riskfix.linear_model, "solve_instance", broken)
        with pytest.raises(TypeError, match="not a domain error"):
            run_quiet(SHARED)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(problem):
            raise TypeError("not a domain error")

        monkeypatch.setattr("riskfix.experiments.solve", broken)
        with pytest.raises(TypeError, match="not a domain error"):
            run_quiet(TINY)


SHARED = ExperimentConfig(
    name="shared", constraint="orthant", signals=("zero", "linear", "quadratic"),
    grid=((10, 30), (12, 24)), replicates=13, samples=200, seed=9,
)


def _values(rec):
    """A record's fields apart from its id and runtime."""
    row = asdict(rec)
    row.pop("experiment_id"), row.pop("runtime_seconds")
    return row


class TestSharedDesigns:
    """A grid point draws each replicate's design once and solves every signal on it."""

    def test_risks_equal_each_signal_alone(self):
        K = ConstraintSet.monotone_cone(15)
        signals = [resolve_signal(spec, 15) for spec in ("zero", "linear", "quadratic")]
        shared = empirical_risk(K, signals, 15, 15, 1.0, range(12), base_seed=4)
        blocks = [empirical_risk(K, signals, 15, 15, 1.0, block, base_seed=4)
                  for block in np.array_split(np.arange(12), 3)]
        for s, mu in enumerate(signals):
            alone = [res.risk for res in run_replicates(K, mu, 15, 15, 1.0, 12, base_seed=4)]
            assert shared[s] == alone
            assert sum((block[s] for block in blocks), []) == alone

    def test_records_pool_the_design_seed_replicates(self):
        records = run_quiet(SHARED)
        G = len(SHARED.grid)
        for idx, rec in enumerate(records):
            g = idx % G
            design_seed = child_seed(child_seed(SHARED.seed, g), 1)
            K = ConstraintSet.orthant(rec.n)
            alone = run_replicates(K, resolve_signal(rec.signal, rec.n), rec.m, rec.n,
                                   SHARED.sigma, SHARED.replicates, design_seed)
            assert (rec.risk_emp_mean, rec.risk_emp_se) == mean_se(np.array([r.risk for r in alone]))

    @pytest.mark.parametrize("signal", ["linear", "atoms=0:0.5,3:0.5"])
    def test_first_signal_records_do_not_see_the_others(self, signal):
        alone = run_quiet(replace(SHARED, signals=(signal,)))
        together = run_quiet(replace(SHARED, signals=(signal, "quadratic")))
        assert [asdict(r) | {"runtime_seconds": 0} for r in alone] == \
            [asdict(r) | {"runtime_seconds": 0} for r in together[:len(alone)]]

    def test_one_design_per_replicate_and_grid_point(self, monkeypatch):
        calls = []
        generate_instance = riskfix.linear_model.generate_instance

        def counted(*args, **kwargs):
            calls.append(kwargs["seed"])
            return generate_instance(*args, **kwargs)

        monkeypatch.setattr(riskfix.linear_model, "generate_instance", counted)
        run_quiet(SHARED)
        assert len(calls) == SHARED.replicates * len(SHARED.grid)
        assert len(set(calls)) == len(calls)


class TestReports:
    def _records(self):
        return run_quiet(TINY)

    def test_csv_shape(self, tmp_path):
        records = self._records()
        path = str(tmp_path / "out.csv")
        text = emit_report(records, "csv", path)
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(records)
        assert text.endswith("\n")

    def test_single_record_two_lines(self, tmp_path):
        rec = self._records()[:1]
        text = emit_report(rec, "csv")
        assert len(text.splitlines()) == 2

    def test_roundtrip_csv(self, tmp_path):
        records = self._records()
        path = str(tmp_path / "out.csv")
        emit_report(records, "csv", path)
        back = parse_records(path, "csv")
        assert back == records

    def test_roundtrip_json(self, tmp_path):
        records = self._records()
        path = str(tmp_path / "out.json")
        emit_report(records, "json", path)
        back = parse_records(path, "json")
        assert back == records

    def test_csv_json_numeric_agreement(self, tmp_path):
        records = self._records()
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "a.json")
        emit_report(records, "csv", p1)
        emit_report(records, "json", p2)
        csv_back = parse_records(p1, "csv")
        json_back = parse_records(p2, "json")
        for a, b in zip(csv_back, json_back):
            for col in CSV_COLUMNS:
                va, vb = getattr(a, col), getattr(b, col)
                if isinstance(va, float) and va and vb:
                    assert abs(va - vb) <= 1e-12 * abs(va)
                elif col != "runtime_seconds":
                    assert va == vb

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            emit_report([], "csv")
        with pytest.raises(DomainError):
            emit_report(self._records(), "yaml")

    def test_none_round_trips_as_blank(self, tmp_path):
        rec = ExperimentRecord(
            experiment_id="x-000", n=5, m=2, sigma=1.0, constraint="orthant",
            signal="zero", r_theory_sq=None, r_theory_se=None,
            risk_emp_mean=0.5, risk_emp_se=0.01, ratio=None,
            r2_statistic=None, regime="III", runtime_seconds=0.1,
        )
        path = str(tmp_path / "b.csv")
        emit_report([rec], "csv", path)
        assert parse_records(path, "csv")[0] == rec

    def test_error_record_round_trips(self, tmp_path):
        # a failed cell: its regime is the error text, every estimate blank
        rec = ExperimentRecord(
            experiment_id="x-001", n=5, m=2, sigma=1.0, constraint="l1_ball:-1",
            signal="zero", r_theory_sq=None, r_theory_se=None,
            risk_emp_mean=None, risk_emp_se=None, ratio=None,
            r2_statistic=None, regime="error: l1_ball needs a positive radius",
            runtime_seconds=0.0,
        )
        path = str(tmp_path / "e.csv")
        emit_report([rec], "csv", path)
        assert parse_records(path, "csv") == [rec]

    def test_two_atom_prior_round_trips(self, tmp_path):
        # the prior's atoms are comma-separated: the cell is quoted, not rewritten
        config = replace(TINY, signals=("atoms=0:0.5,5:0.5",), replicates=10)
        records = run_quiet(config)
        assert records[0].signal == "atoms=0:0.5,5:0.5" and records[0].ratio is not None
        path = str(tmp_path / "p.csv")
        text = emit_report(records, "csv", path)
        assert ',"atoms=0:0.5,5:0.5",' in text.splitlines()[1]
        assert parse_records(path, "csv") == records

    def test_error_text_with_a_comma_round_trips(self, tmp_path):
        rec = ExperimentRecord(
            experiment_id="x-002", n=5, m=2, sigma=1.0, constraint="orthant",
            signal="atoms=0:0.5,5:0.5", r_theory_sq=None, r_theory_se=None,
            risk_emp_mean=None, risk_emp_se=None, ratio=None,
            r2_statistic=None, regime='error: bad prior "0:0.5,5:x", expected v:w pairs',
            runtime_seconds=0.0,
        )
        path = str(tmp_path / "c.csv")
        emit_report([rec], "csv", path)
        assert parse_records(path, "csv") == [rec]
