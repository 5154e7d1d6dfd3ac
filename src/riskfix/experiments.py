"""Experiment grids: theory prediction vs empirical risk, tidy reports.

A config describes a constraint family, one or more signal presets, a grid
of (n, m) sizes and Monte Carlo budgets.  Each (signal, grid point) cell
solves the risk fixed point (theory), simulates the estimator across
replicates (empirical), and emits one record; a cell that meets a domain,
config or IO error fails soft into an ``error:`` record, while programming
errors propagate.  Grid points run one after another.  At each, replicate
i's design and noise are drawn once and every signal is solved on them
(common random numbers), so comparisons between signals are paired; the
replicates are split into one block per signal, and each cell runs its
theory and then its block.  Reports serialize to CSV or JSON with
identical field names and values.
"""

import csv
import io
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .constraints import ConstraintSet, MonteCarloConfig
from .errors import ConfigError, DomainError
from .fixed_point import FixedPointProblem, solve
from .kernels import DiscretePrior
from .linear_model import empirical_risk
# perfbench/spans.py wraps these two names here too; tests/test_tracer_targets.py checks they resolve.
from .linear_model import generate_instance, solve_instance  # noqa: F401
from .seeds import child_rng, child_seed, mean_se

CSV_COLUMNS = (
    "experiment_id", "n", "m", "sigma", "constraint", "signal",
    "r_theory_sq", "r_theory_se", "risk_emp_mean", "risk_emp_se",
    "ratio", "r2_statistic", "regime", "runtime_seconds",
)


@dataclass
class ExperimentRecord:
    """One grid cell: theoretical prediction vs empirical risk."""

    experiment_id: str
    n: int
    m: int
    sigma: float
    constraint: str
    signal: str
    r_theory_sq: float
    r_theory_se: float
    risk_emp_mean: float
    risk_emp_se: float
    ratio: float  # sqrt(theory) / sqrt(empirical)
    r2_statistic: float
    regime: str
    runtime_seconds: float


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment grid."""

    name: str
    constraint: str
    signals: tuple
    grid: tuple  # ((n, m), ...)
    sigma: float = 1.0
    replicates: int = 200
    samples: int = 10_000
    seed: int = 0
    solver: str = "auto"
    jobs: int = 1  # only 1 is accepted: cells run in one sequential loop

    def __post_init__(self):
        if not self.signals:
            raise ConfigError("config needs at least one signal spec")
        if not (isinstance(self.constraint, str) and isinstance(self.signals, (tuple, list))
                and all(isinstance(spec, str) for spec in self.signals)):
            raise ConfigError("constraint must be a string spec and signals a list of them")
        if not self.grid:
            raise ConfigError("config needs a non-empty (n, m) grid")
        for pair in self.grid:
            if len(pair) != 2 or not all(_is_integer(v) and v >= 1 for v in pair):
                raise ConfigError(f"grid entries must be positive integer (n, m) pairs, got {pair!r}")
        for field in ("replicates", "samples", "seed", "jobs"):
            if not _is_integer(getattr(self, field)):
                raise ConfigError(f"{field} must be an integer, got {getattr(self, field)!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if isinstance(self.sigma, bool) or not isinstance(self.sigma, numbers.Real):
            raise ConfigError(f"sigma must be a real number, got {self.sigma!r}")
        if not 0 < self.sigma < np.inf or self.replicates < 10 or self.samples < 100:
            raise ConfigError("config needs sigma > 0, replicates >= 10 and samples >= 100")
        if self.jobs != 1:
            raise ConfigError(f"jobs must be 1 (cells run sequentially), got {self.jobs}")
        if self.solver not in ("amp", "pgd", "auto"):
            raise ConfigError(f"unknown solver choice {self.solver!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        data = dict(raw)
        if "signal" in data and "signals" not in data:
            data["signals"] = data.pop("signal")
        signals = data.get("signals")
        if isinstance(signals, str):
            data["signals"] = (signals,)
        elif isinstance(signals, list):
            data["signals"] = tuple(signals)
        if "grid" in data:
            try:
                data["grid"] = tuple((n, m) for n, m in data["grid"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"grid must be a list of [n, m] pairs: {exc}") from exc
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        missing = {"name", "constraint", "signals", "grid"} - set(data)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        return cls(**data)


def _is_integer(value) -> bool:
    """An integer value, not a bool or a float with an integral value."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return ExperimentConfig.from_dict(raw)


def resolve_constraint(spec: str, n: int) -> ConstraintSet:
    """Constraint from a compact string: kind or kind:parameter."""
    kind, _, param = spec.partition(":")
    if kind == "orthant":
        return ConstraintSet.orthant(n)
    if kind == "monotone_cone":
        return ConstraintSet.monotone_cone(n)
    if kind == "l1_ball":
        if not param:
            raise ConfigError("l1_ball needs a radius, e.g. l1_ball:2.5")
        return ConstraintSet.l1_ball(n, _number(float, param, "l1_ball radius"))
    if kind == "subspace":
        if not param:
            raise ConfigError("subspace needs a dimension, e.g. subspace:10")
        return ConstraintSet.coordinate_subspace(n, _number(int, param, "subspace dimension"))
    raise ConfigError(f"unknown constraint spec {spec!r}")


def resolve_signal(spec: str, n: int):
    """Signal vector (or DiscretePrior) from a preset string.

    Presets: ``zero``, ``constant:u``, ``linear``, ``quadratic``,
    ``piecewise_constant:k``, ``atoms=v1:w1,v2:w2``, ``file:path``.
    """
    if spec == "zero":
        return np.zeros(n)
    if spec == "linear":
        return np.arange(1, n + 1) / n
    if spec == "quadratic":
        return (np.arange(1, n + 1) / n) ** 2
    if spec.startswith("constant:"):
        return _number(float, spec.split(":", 1)[1], "constant signal") * np.ones(n)
    if spec.startswith("piecewise_constant:"):
        k = _number(int, spec.split(":", 1)[1], "piecewise_constant piece count")
        if not 1 <= k <= n:
            raise ConfigError(f"piecewise_constant needs 1 <= k <= n, got {k}")
        levels = np.linspace(0.0, 1.0, k) if k > 1 else np.zeros(1)
        return levels[np.minimum(np.arange(n) * k // n, k - 1)]
    if spec.startswith("atoms="):
        return parse_prior(spec[len("atoms="):])
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        vec = read_vector(path)
        if vec.size != n:
            raise ConfigError(f"{path}: expected {n} values, found {vec.size}")
        return vec
    raise ConfigError(f"unknown signal spec {spec!r}")


def parse_prior(spec: str) -> DiscretePrior:
    """Prior from 'v1:w1,v2:w2,...'."""
    atoms = []
    for chunk in spec.split(","):
        value, _, weight = chunk.partition(":")
        if not weight:
            raise ConfigError(f"prior atom {chunk!r} must look like value:weight")
        atoms.append((_number(float, value, "prior atom value"),
                      _number(float, weight, "prior atom weight")))
    return DiscretePrior(atoms)


def read_vector(path: str) -> np.ndarray:
    """The whitespace-separated numbers of a text file, as one flat vector."""
    try:
        return np.loadtxt(path, dtype=float).reshape(-1)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _number(convert, text: str, what: str):
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ConfigError(f"{what} must be {kind}, got {text!r}") from None


def run_experiment(config: ExperimentConfig):
    """All grid cells of the config, ordered by (signal, grid) index."""
    points = [_run_grid_point(config, g, n, m) for g, (n, m) in enumerate(config.grid)]
    return [rec for per_signal in zip(*points) for rec in per_signal]


class _Cell:
    """One (signal, grid point) cell while its grid point runs."""

    def __init__(self, config, idx, spec, n, m):
        self.config, self.spec, self.n, self.m = config, spec, n, m
        self.experiment_id = f"{config.name}-{idx:03d}"
        self.cell_seed = child_seed(config.seed, idx)
        self.problem = self.sol = self.error = None
        self.risks = []
        self.runtime = 0.0

    def signal_rows(self, block):
        """The signal, or a prior's i.i.d. draw for each replicate of the block."""
        signal = self.problem.signal
        if not isinstance(signal, DiscretePrior):
            return signal
        seed = child_seed(self.cell_seed, 2)
        return np.array([child_rng(seed, i).choice(signal.values, size=self.n,
                                                   p=signal.weights) for i in block])

    def record(self) -> ExperimentRecord:
        config, sol = self.config, self.sol
        values = dict(r_theory_sq=None, r_theory_se=None, risk_emp_mean=None, risk_emp_se=None,
                      ratio=None, r2_statistic=None, regime=f"error: {self.error}")
        if self.error is None:
            emp_mean, emp_se = mean_se(np.array(self.risks))
            # Only a converged root is reported; no_solution has no root at all.
            converged = sol.status == "converged"
            ratio = None
            if converged and sol.r_sq > 0 and emp_mean > 0:
                ratio = math.sqrt(sol.r_sq) / math.sqrt(emp_mean)
            values = dict(
                r_theory_sq=sol.r_sq if converged else None,
                r_theory_se=sol.r_se if converged else None,
                risk_emp_mean=emp_mean, risk_emp_se=emp_se, ratio=ratio,
                r2_statistic=sol.r2_statistic if converged else None,
                regime="unconverged" if sol.status == "max_iterations" else sol.regime,
            )
        return ExperimentRecord(
            experiment_id=self.experiment_id, n=self.n, m=self.m, sigma=config.sigma,
            constraint=config.constraint, signal=self.spec, runtime_seconds=self.runtime,
            **values,
        )


_FAIL_SOFT = (ValueError, ConfigError, OSError)  # domain, config and IO errors; bugs propagate


def _run_grid_point(config: ExperimentConfig, g: int, n: int, m: int) -> list:
    """The records of every signal at grid point g, in signal order.

    Replicate i's design and noise come from ``child_seed(design_seed, i)``
    and every signal is solved on them (``run_replicates``), so the signals
    share them.  The replicates are split into one equal block per signal:
    cell s runs its theory, then the block's replicates for every signal.
    A cell's runtime is its theory plus its verify block.
    """
    G = len(config.grid)
    cells = [_Cell(config, s * G + g, spec, n, m) for s, spec in enumerate(config.signals)]
    design_seed = child_seed(child_seed(config.seed, g), 1)
    blocks = np.array_split(np.arange(config.replicates), len(cells))
    try:
        K = resolve_constraint(config.constraint, n)
    except _FAIL_SOFT as exc:
        for cell in cells:
            cell.error = exc
        return [cell.record() for cell in cells]
    for cell in cells:  # every problem is built, and so checked, before any block runs
        try:
            cell.problem = FixedPointProblem(
                constraint=K, signal=resolve_signal(cell.spec, n), m=m, n=n, sigma2=config.sigma**2,
                mc=MonteCarloConfig(samples=config.samples, seed=child_seed(cell.cell_seed, 0)),
            )
        except _FAIL_SOFT as exc:
            cell.error = exc
    for cell, block in zip(cells, blocks):
        start = time.perf_counter()
        if cell.error is None:
            try:
                cell.sol = solve(cell.problem)
            except _FAIL_SOFT as exc:
                cell.error = exc
        live = [c for c in cells if c.error is None]
        if live and block.size:
            risks = empirical_risk(K, [c.signal_rows(block) for c in live], m, n,
                                   config.sigma, block, design_seed, config.solver)
            for c, r in zip(live, risks):
                if isinstance(r, ValueError):
                    c.error = r
                else:
                    c.risks += r
        cell.runtime = time.perf_counter() - start
    return [cell.record() for cell in cells]


def get_preset(name: str, full: bool = False) -> ExperimentConfig:
    """Built-in experiment grids."""
    if name == "figure2-left":
        return ExperimentConfig(
            name="figure2-left", constraint="orthant", signals=("constant:5",),
            grid=tuple((50, m) for m in (40, 60, 100, 200, 400)),
            sigma=1.0, replicates=1000, samples=10_000, seed=20, solver="auto",
        )
    if name == "figure2-right":
        sizes = (100, 200, 300, 400, 500) if full else (100, 200, 300)
        return ExperimentConfig(
            name="figure2-right", constraint="monotone_cone",
            signals=("zero", "linear", "quadratic"),
            grid=tuple((n, n) for n in sizes),
            sigma=1.0, replicates=200, samples=10_000, seed=21, solver="auto",
        )
    if name == "degenerate":
        return ExperimentConfig(
            name="degenerate", constraint="orthant", signals=("zero",),
            grid=((50, 20),), sigma=1.0, replicates=200, samples=10_000,
            seed=22, solver="auto",
        )
    raise ConfigError(f"unknown preset {name!r}; available: figure2-left, figure2-right, degenerate")


def emit_report(records, format: str = "csv", path: str = None):
    """Write records as CSV (fixed header) or JSON; returns the text."""
    if not records:
        raise DomainError("emit_report needs at least one record")
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([_csv_cell(row[c]) for c in CSV_COLUMNS] for row in map(asdict, records))
        text = out.getvalue()
    elif format == "json":
        text = json.dumps([asdict(rec) for rec in records], indent=2) + "\n"
    else:
        raise DomainError(f"unknown report format {format!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def parse_records(path: str, format: str = "csv"):
    """Inverse of emit_report, for round-tripping reports."""
    with open(path, encoding="utf-8", newline="") as fh:
        if format == "json":
            return [ExperimentRecord(**row) for row in json.load(fh)]
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != CSV_COLUMNS:
            raise ConfigError(f"{path}: unexpected CSV header")
        types = {f.name: f.type for f in fields(ExperimentRecord)}
        return [ExperimentRecord(**{
            col: cell if types[col] is str else None if cell == "" else types[col](cell)
            for col, cell in zip(CSV_COLUMNS, cells)}) for cells in reader if cells]


def _csv_cell(value) -> str:
    if value is None or isinstance(value, str):
        return value or ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))
