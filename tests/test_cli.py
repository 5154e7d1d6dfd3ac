"""CLI subcommand behavior and exit codes."""

import json

import pytest

from riskfix.cli import main
from riskfix.constraints import MonteCarloConfig
from riskfix.experiments import resolve_constraint, resolve_signal
from riskfix.fixed_point import FixedPointProblem, solve


@pytest.fixture()
def vector_file(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("-1.0 2.0\n")
    return str(path)


def run(argv):
    return main(argv)


class TestExitCodes:
    def test_project_success(self, vector_file, capsys):
        assert run(["project", "--constraint", "orthant", "--in", vector_file]) == 0
        out = capsys.readouterr().out
        assert "projection: 0.0 2.0" in out
        assert "divergence: 1.0" in out

    def test_project_l1_sphere_at_large_scale(self, tmp_path, capsys):
        # on the sphere, with a dither below the input's resolution
        path = tmp_path / "x.txt"
        path.write_text("100000 100000\n")
        assert run(["project", "--constraint", "l1_ball:200000", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        assert "projection: 100000.0 100000.0" in out
        assert "divergence: 2.0" in out and "structure: 2" in out

    def test_domain_error_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("nan 1.0\n")
        assert run(["project", "--constraint", "orthant", "--in", str(bad)]) == 1

    def test_missing_file_is_two(self, tmp_path):
        assert run(["project", "--constraint", "orthant", "--in", str(tmp_path / "no.txt")]) == 2

    def test_bad_config_is_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["experiment", str(cfg)]) == 2

    def test_unknown_preset_is_two(self):
        assert run(["experiment", "figure9-left"]) == 2

    @pytest.mark.parametrize("field, value", [
        ("replicates", 12.5), ("samples", 150.5), ("seed", 1.5), ("jobs", 1.5),
        ("sigma", "1"), ("grid", [[10.7, 30]]), ("seed", -1), ("constraint", 5),
        ("signal", 5), ("signal", ["zero", 3]),
    ])
    def test_malformed_config_is_two(self, tmp_path, capsys, field, value):
        cfg = {"name": "bad", "constraint": "monotone_cone", "signal": "zero",
               "grid": [[10, 30]], "replicates": 10, "samples": 200, "seed": 3}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, field: value}))
        assert run(["experiment", str(path)]) == 2
        assert field in capsys.readouterr().err

    FIXED_POINT = ["fixed-point", "--n", "5", "--m", "10"]

    @pytest.mark.parametrize("argv, message", [
        (["project", "--constraint", "l1_ball:abc", "--in", "{good}"], "l1_ball radius"),
        (FIXED_POINT + ["--constraint", "subspace:abc", "--signal", "zero"],
         "subspace dimension"),
        (FIXED_POINT + ["--constraint", "orthant", "--signal", "constant:abc"],
         "constant signal"),
        (FIXED_POINT + ["--constraint", "monotone_cone", "--signal", "piecewise_constant:x"],
         "piecewise_constant piece count"),
        (FIXED_POINT + ["--constraint", "orthant", "--signal", "atoms=1:x"],
         "prior atom weight"),
        (["project", "--constraint", "orthant", "--in", "{bad}"], "could not convert"),
        (FIXED_POINT + ["--constraint", "orthant", "--signal", "file:{bad}"],
         "could not convert"),
    ], ids=["l1_ball-radius", "subspace-dim", "constant", "piecewise_constant", "atoms",
            "project-in-file", "signal-file"])
    def test_malformed_number_is_two(self, tmp_path, capsys, argv, message):
        files = {"good": tmp_path / "good.txt", "bad": tmp_path / "bad.txt"}
        files["good"].write_text("1.0 2.0\n")
        files["bad"].write_text("1.0 abc 2.0 0.5 1.5\n")
        assert run([arg.format(**files) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv", [
        ["risk-curve", "--constraint", "orthant", "--n", "5", "--mu0-preset", "zero",
         "--sigma-min", "0"],
        ["kernels", "--grid", "-3"],
        ["project", "--constraint", "subspace:3", "--in", "{x}"],
        ["project", "--constraint", "subspace:-1", "--in", "{x}"],
    ], ids=["sigma-min-0", "grid-negative", "subspace-above-n", "subspace-negative"])
    def test_out_of_range_number_is_one(self, vector_file, capsys, argv):
        assert run([arg.format(x=vector_file) for arg in argv]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    SIMULATE = ["simulate", "--constraint", "orthant", "--n", "5", "--m", "10",
                "--signal", "zero", "--replicates", "10"]

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_no_replicates_is_one(self, capsys, count):
        assert run(self.SIMULATE + ["--replicates", count]) == 1
        assert "replicates must be at least 1" in capsys.readouterr().err

    def test_negative_seed_is_two(self, capsys):
        assert run(self.SIMULATE + ["--seed", "-1"]) == 2
        assert "--seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_bad_env_seed_is_two(self, monkeypatch, capsys, value):
        monkeypatch.setenv("RISKFIX_SEED", value)
        assert run(self.SIMULATE) == 2
        assert "RISKFIX_SEED" in capsys.readouterr().err


class TestSubcommands:
    def test_kernels_csv(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run(["kernels", "--x-min", "0", "--x-max", "2", "--grid", "5",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,G,H"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[1]) == 0.5 and float(first[2]) == 0.0

    def test_risk_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run([
            "risk-curve", "--constraint", "orthant", "--n", "12",
            "--mu0-preset", "zero", "--sigma-min", "0.5", "--sigma-max", "2.0",
            "--grid", "4", "--samples", "200", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sigma,err_mean,err_se,lrt_mean,lrt_se,dof_mean,dof_se"
        assert len(lines) == 5
        # zero-signal orthant: E err ~ sigma^2 n / 2
        row = lines[1].split(",")
        assert float(row[1]) == pytest.approx(0.25 * 6.0, rel=0.3)

    def test_fixed_point_text_and_json(self, tmp_path, capsys):
        args = ["fixed-point", "--constraint", "orthant", "--n", "50", "--m", "100",
                "--signal", "zero", "--sigma", "1.0"]
        assert run(args) == 0
        out = capsys.readouterr().out
        assert "status: converged" in out
        assert "regime: I" in out

        jpath = tmp_path / "fp.json"
        assert run(args + ["--json", "--out", str(jpath)]) == 0
        payload = json.loads(jpath.read_text())
        assert payload["status"] == "converged"
        assert payload["r_sq"] == pytest.approx(25.0 / 75.0, rel=1e-5)
        assert payload["regime"] == "I"

    @pytest.mark.parametrize("constraint, signal, samples", [
        ("orthant", "constant:5", 10_000),
        ("monotone_cone", "linear", 500),
    ])
    def test_fixed_point_default_tol_is_solve_default(self, capsys, constraint, signal, samples):
        n, m = 50, 100
        assert run(["fixed-point", "--constraint", constraint, "--n", str(n), "--m", str(m),
                    "--signal", signal, "--samples", str(samples), "--seed", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        problem = FixedPointProblem(resolve_constraint(constraint, n), resolve_signal(signal, n),
                                    m, n, 1.0, MonteCarloConfig(samples=samples, seed=3))
        assert payload["r_sq"] == solve(problem).r_sq

    def test_fixed_point_prior_signal(self, capsys):
        assert run(["fixed-point", "--constraint", "orthant", "--n", "50", "--m", "100",
                    "--signal", "atoms=0:0.5,5:0.5"]) == 0
        assert "status: converged" in capsys.readouterr().out

    def test_simulate(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run([
            "simulate", "--constraint", "orthant", "--n", "10", "--m", "30",
            "--signal", "zero", "--replicates", "11", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "replicate_id,risk,objective,iterations,solver,converged"
        assert len(lines) == 12

    def test_simulate_rejects_prior(self):
        assert run(["simulate", "--constraint", "orthant", "--n", "10", "--m", "30",
                    "--signal", "atoms=0:1.0", "--replicates", "10"]) == 1

    def test_experiment_config_roundtrip(self, tmp_path):
        cfg = {
            "name": "cli-tiny",
            "constraint": "orthant",
            "signal": "zero",
            "grid": [[10, 30]],
            "replicates": 10,
            "samples": 200,
            "seed": 3,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert run(["experiment", str(cfg_path), "--out", str(out1)]) == 0
        assert run(["experiment", str(cfg_path), "--out", str(out2)]) == 0
        strip = lambda text: [l.rsplit(",", 1)[0] for l in text.splitlines()]
        assert strip(out1.read_text()) == strip(out2.read_text())

    def test_experiment_seed_override_changes_output(self, tmp_path):
        cfg = {
            "name": "cli-tiny", "constraint": "orthant", "signal": "zero",
            "grid": [[10, 30]], "replicates": 10, "samples": 200, "seed": 3,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(["experiment", str(cfg_path), "--out", str(a)]) == 0
        assert run(["experiment", str(cfg_path), "--seed", "99", "--out", str(b)]) == 0
        assert a.read_text() != b.read_text()

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RISKFIX_SEED", "77")
        out1 = tmp_path / "s1.csv"
        code = run(["simulate", "--constraint", "orthant", "--n", "8", "--m", "20",
                    "--signal", "zero", "--replicates", "10", "--out", str(out1)])
        assert code == 0
        out2 = tmp_path / "s2.csv"
        monkeypatch.delenv("RISKFIX_SEED")
        run(["simulate", "--constraint", "orthant", "--n", "8", "--m", "20",
             "--signal", "zero", "--replicates", "10", "--seed", "77", "--out", str(out2)])
        assert out1.read_text() == out2.read_text()

    def test_help_everywhere(self, capsys):
        for sub in ("project", "kernels", "risk-curve", "fixed-point", "simulate", "experiment"):
            with pytest.raises(SystemExit) as exc:
                run([sub, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert "--seed" in out and "--out" in out
