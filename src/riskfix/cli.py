"""Command-line interface.

Subcommands: project, kernels, risk-curve, fixed-point, simulate,
experiment.  Exit codes: 0 success, 1 domain errors, 2 I/O or
configuration errors.  RISKFIX_SEED provides the default seed.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .constraints import MonteCarloConfig, project
from .errors import ConfigError, DomainError
from .experiments import (
    emit_report,
    get_preset,
    load_config,
    read_vector,
    resolve_constraint,
    resolve_signal,
    run_experiment,
)
from .fixed_point import FixedPointProblem, solve
from .kernels import DiscretePrior, kernel_G, kernel_H
from .linear_model import run_replicates
from .sequence import mc_expectations


def default_seed() -> int:
    text = os.environ.get("RISKFIX_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ConfigError(f"RISKFIX_SEED must be a non-negative integer, got {text!r}")
    return seed


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskfix",
        description="Asymptotic risk of convex-constrained least squares: "
                    "fixed-point predictions and Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="project a vector onto a constraint set")
    _common(p)
    p.add_argument("--constraint", required=True, help="orthant | monotone_cone | l1_ball:R | subspace:d")
    p.add_argument("--in", dest="infile", required=True, help="whitespace-separated vector file")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("kernels", help="tabulate the G/H kernels over a grid")
    _common(p)
    p.add_argument("--x-min", type=float, default=0.0)
    p.add_argument("--x-max", type=float, default=10.0)
    p.add_argument("--grid", type=int, default=101)
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("risk-curve", help="Monte Carlo err/lrt/dof over a sigma grid")
    _common(p)
    p.add_argument("--constraint", required=True)
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mu0-file")
    group.add_argument("--mu0-preset")
    p.add_argument("--sigma-min", type=float, default=0.1)
    p.add_argument("--sigma-max", type=float, default=10.0)
    p.add_argument("--grid", type=int, default=25)
    p.add_argument("--samples", type=int, default=2000)
    p.set_defaults(func=cmd_risk_curve)

    p = sub.add_parser("fixed-point", help="solve the risk fixed-point equation")
    _common(p)
    p.add_argument("--constraint", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--signal", required=True,
                   help="preset, file:path, or prior spec atoms=v1:w1,v2:w2")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=None,
                   help="step tolerance (default: 1e-10 on closed forms, 1e-6 on Monte Carlo)")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=cmd_fixed_point)

    p = sub.add_parser("simulate", help="simulate the constrained LSE across replicates")
    _common(p)
    p.add_argument("--constraint", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--signal", required=True)
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--solver", choices=("amp", "pgd", "auto"), default="auto")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="run a preset or JSON experiment config")
    _common(p)
    p.add_argument("config", help="preset name (figure2-left, figure2-right, degenerate) or config.json path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--full", action="store_true", help="full-size grid for figure2-right")
    p.set_defaults(func=cmd_experiment)

    return parser


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="base seed (default: RISKFIX_SEED or 0)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _seed_of(args) -> int:
    if args.seed is None:
        return default_seed()
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    return args.seed


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_project(args) -> None:
    x = read_vector(args.infile)
    K = resolve_constraint(args.constraint, x.size)
    res = project(K, x)
    point = " ".join(repr(float(v)) for v in res.point)
    _write(args, f"projection: {point}\ndivergence: {res.divergence!r}\nstructure: {res.structure}\n")


def cmd_kernels(args) -> None:
    if args.grid < 1:
        raise DomainError(f"--grid must be at least 1, got {args.grid}")
    xs = np.linspace(args.x_min, args.x_max, args.grid)
    g, h = kernel_G(xs), kernel_H(xs)
    lines = ["x,G,H"]
    lines += [f"{repr(float(x))},{repr(float(a))},{repr(float(b))}" for x, a, b in zip(xs, g, h)]
    _write(args, "\n".join(lines) + "\n")


def cmd_risk_curve(args) -> None:
    K = resolve_constraint(args.constraint, args.n)
    spec = f"file:{args.mu0_file}" if args.mu0_file else args.mu0_preset
    mu0 = _signal_vector(spec, args.n, "risk-curve")
    if not (args.sigma_min > 0 and args.sigma_max > 0 and args.grid >= 1):
        raise DomainError("risk-curve needs --sigma-min > 0, --sigma-max > 0 and --grid >= 1")
    grid = np.geomspace(args.sigma_min, args.sigma_max, args.grid)
    curve = mc_expectations(K, mu0, grid, MonteCarloConfig(args.samples, _seed_of(args)))
    lines = ["sigma,err_mean,err_se,lrt_mean,lrt_se,dof_mean,dof_se"]
    for j in range(grid.size):
        cells = (curve.sigma_grid[j], curve.err_mean[j], curve.err_se[j],
                 curve.lrt_mean[j], curve.lrt_se[j], curve.dof_mean[j], curve.dof_se[j])
        lines.append(",".join(repr(float(c)) for c in cells))
    _write(args, "\n".join(lines) + "\n")


def cmd_fixed_point(args) -> None:
    if not 0 < args.sigma < math.inf:
        raise DomainError(f"--sigma must be positive and finite, got {args.sigma!r}")
    K = resolve_constraint(args.constraint, args.n)
    signal = resolve_signal(args.signal, args.n)
    mc = MonteCarloConfig(samples=args.samples, seed=_seed_of(args))
    problem = FixedPointProblem(constraint=K, signal=signal, m=args.m, n=args.n,
                                sigma2=args.sigma**2, mc=mc)
    sol = solve(problem, tol=args.tol)
    iterations = max(len(sol.trace) - 1, 0)
    if args.json:
        payload = asdict(sol)
        payload["bounds"] = [_json_safe(b) for b in sol.bounds]
        payload["bracket"] = sol.bracket and [_json_safe(b) for b in sol.bracket]
        payload["iterations"] = iterations
        _write(args, json.dumps(payload, indent=2) + "\n")
        return
    lines = [
        f"status: {sol.status}",
        f"r_sq: {sol.r_sq!r}",
        f"omega: {sol.omega!r}",
        f"regime: {sol.regime}",
        f"r2_statistic: {sol.r2_statistic!r} (holds: {sol.r2_holds}, verified: {sol.r2_verified})",
        f"bounds on r_sq/sigma_sq: [{sol.bounds[0]!r}, {sol.bounds[1]!r}]",
        f"delta_K: {sol.delta_K!r}",
        f"delta_T: {sol.delta_T!r} +- {sol.delta_T_se!r}",
        f"L_n: {sol.L_n!r}",
        f"iterations: {iterations}",
        f"bracket on r_sq: {sol.bracket and list(sol.bracket)}",
    ]
    _write(args, "\n".join(lines) + "\n")


def cmd_simulate(args) -> None:
    K = resolve_constraint(args.constraint, args.n)
    mu0 = _signal_vector(args.signal, args.n, "simulate")
    results = run_replicates(K, mu0, args.m, args.n, args.sigma,
                             args.replicates, _seed_of(args), args.solver)
    lines = ["replicate_id,risk,objective,iterations,solver,converged,fallback"]
    for i, res in enumerate(results):
        lines.append(f"{i},{res.risk!r},{res.objective!r},{res.iterations},{res.solver},"
                     f"{res.converged},{res.fallback or ''}")
    _write(args, "\n".join(lines) + "\n")


def _signal_vector(spec: str, n: int, command: str) -> np.ndarray:
    """The signal vector of ``spec``; a prior is a domain error here."""
    mu0 = resolve_signal(spec, n)
    if isinstance(mu0, DiscretePrior):
        raise DomainError(f"{command} needs an explicit signal vector, not a prior")
    return mu0


def cmd_experiment(args) -> None:
    if args.config.endswith(".json") or os.path.exists(args.config):
        config = load_config(args.config)
    else:
        config = get_preset(args.config, full=args.full)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    records = run_experiment(config)
    _write(args, emit_report(records, format=args.format))


def _json_safe(value):
    if value is None or (isinstance(value, float) and math.isinf(value)):
        return None if value is None else "inf"
    return value


if __name__ == "__main__":
    sys.exit(main())
