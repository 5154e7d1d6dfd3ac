"""Spans recorded from outside the package, and the per-layer metrics built from them.

A ``Tracer`` replaces functions of riskfix at the module attribute through
which their callers look them up (the import site, or the defining module for
calls inside one module) with a wrapper that records one span per call:
name, start, end and the index of the enclosing span.  Spans live in flat
arrays while the grid runs; ``write`` saves them when the benchmark ends.
Nothing in the package is edited and the wrappers restore the originals on
exit, so the same process can run traced and untraced grids.
"""

import contextlib
import math
import statistics
import time
from array import array

import numpy as np
from scipy.optimize import isotonic_regression

import riskfix.constraints
import riskfix.experiments
import riskfix.fixed_point
import riskfix.linear_model
import riskfix.sequence

# Wrapped in untraced grids too: pieces of at most about 0.1 s (a replicate
# solve, a PGD call, a Monte Carlo pass, a closed-form E err evaluation) whose
# medians over the repeats of a grid give the end-to-end times, and between
# which the speed probe runs (see ``piece_times``).  A few spans per
# replicate, Monte Carlo pass or fixed-point iteration.
PIECE_TARGETS = (
    (riskfix.experiments, "solve", "fixed_point.solve"),
    (riskfix.experiments, "empirical_risk", "linear_model.empirical_risk"),
    (riskfix.linear_model, "solve_instance", "linear_model.solve_instance"),
    (riskfix.linear_model, "pgd_solve", "linear_model.pgd_solve"),
    (riskfix.fixed_point, "process_rows", "sequence.process_rows"),
    (riskfix.fixed_point, "orthant_err_closed_form", "sequence.orthant_err_closed_form"),
    (riskfix.fixed_point, "orthant_lrt_closed_form", "sequence.orthant_lrt_closed_form"),
    (riskfix.constraints, "project_rows", "constraints.project_rows"),
)
CELL_PARTS = ("fixed_point.solve", "linear_model.empirical_risk")

# (module holding the name the caller looks up, attribute, span name)
LAYER_TARGETS = PIECE_TARGETS + (
    (riskfix.experiments, "generate_instance", "linear_model.generate_instance"),
    (riskfix.experiments, "solve_instance", "linear_model.solve_instance"),
    (riskfix.fixed_point, "gaussian_rows", "seeds.gaussian_rows"),
    (riskfix.fixed_point, "statistical_dimension", "constraints.statistical_dimension"),
    (riskfix.fixed_point, "tangent_dimension", "constraints.tangent_dimension"),
    (riskfix.constraints, "gaussian_rows", "seeds.gaussian_rows"),
    (riskfix.sequence, "gaussian_rows", "seeds.gaussian_rows"),
    (riskfix.sequence, "project_rows", "constraints.project_rows"),
    (riskfix.sequence, "project", "constraints.project"),
    (riskfix.linear_model, "project", "constraints.project"),
    (riskfix.linear_model, "generate_instance", "linear_model.generate_instance"),
    (riskfix.linear_model, "run_replicates", "linear_model.run_replicates"),
    (riskfix.linear_model, "amp_solve", "linear_model.amp_solve"),
)

ERR_EVALS = ("sequence.process_rows", "sequence.orthant_err_closed_form",
             "sequence.orthant_lrt_closed_form")
PGD_FALLBACK_PARENTS = ("linear_model.solve_instance", "linear_model.amp_solve")
POWER_ITERATION_STEPS = 100  # linear_model._power_iteration_sq default


def _rows(args, kwargs):
    """Rows drawn by gaussian_rows(seed, rows, cols)."""
    return int(args[1] if len(args) > 1 else kwargs["rows"])


def _rows_of_matrix(args, kwargs):
    """Rows projected by project_rows(K, Y)."""
    return int(np.shape(args[1] if len(args) > 1 else kwargs["Y"])[0])


def _solver_summary(args, kwargs, result):
    m, n = args[1].X.shape
    return (result.solver, result.iterations, result.converged, m, n)


def _solve_summary(args, kwargs, result):
    return (len(result.trace) - 1, result.status)


# Per span name: what of the call's arguments and result the metrics need.
ATTRS = {
    "seeds.gaussian_rows": lambda a, k, r: _rows(a, k),
    "constraints.project_rows": lambda a, k, r: _rows_of_matrix(a, k),
    "linear_model.amp_solve": _solver_summary,
    "linear_model.pgd_solve": _solver_summary,
    "fixed_point.solve": _solve_summary,
}


class SpeedProbe:
    """Fixed reference work, timed between pieces of a grid: the host's speed now.

    The host runs this process up to 1.7x slower or faster for seconds at a
    time (other tenants share its cores).  The probe's time follows that, so
    grid times divided by the mean probe time of the same repeat, times
    ``REFERENCE_S``, read as seconds at one fixed host speed.  The work mixes
    what dominates the grids: small matrix-vector products in a Python loop
    (AMP/PGD) and PAVA calls (isotonic projections).  About 1 ms, run at
    most every ``EVERY_S``, so it adds about 1% to a grid.
    """

    EVERY_S = 0.1
    REFERENCE_S = 0.65e-3  # median probe time inside grids, 2-vCPU Intel Xeon VM, 1 BLAS thread

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.X = rng.standard_normal((40, 50)) / math.sqrt(50)
        self.y = rng.standard_normal(40)
        self.z = rng.standard_normal(300)
        self.last = -math.inf

    def due(self) -> bool:
        return time.perf_counter() - self.last >= self.EVERY_S

    def run(self) -> float:
        start = time.perf_counter()
        v = np.zeros(self.X.shape[1])
        for _ in range(60):
            v = np.maximum(v - 0.5 * (self.X.T @ (self.X @ v - self.y)), 0.0)
        for _ in range(10):
            isotonic_regression(self.z)
        self.last = time.perf_counter()
        return self.last - start


class Tracer:
    """In-memory span store: name id, start, end and parent index per span.

    With a ``SpeedProbe``, each wrapped call first runs the probe when it is
    due; probe times are kept apart (``probe_s``, with the span they ran in)
    and left out of every span's self time.
    """

    def __init__(self, probe: SpeedProbe = None):
        self.probe = probe
        self.probe_s = []
        self.probe_at = []
        self.probe_parent = []
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.attrs = {}
        self._stack = [-1]

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        summarize = ATTRS.get(name)

        def traced(*args, **kwargs):
            if self.probe is not None and self.probe.due():
                self.probe_parent.append(self._stack[-1])
                self.probe_at.append(time.perf_counter())
                self.probe_s.append(self.probe.run())
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if summarize is not None:
                self.attrs[idx] = summarize(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path):
        """Save the spans as arrays (name ids index ``names``)."""
        np.savez(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            start=np.frombuffer(self.start, np.float64), end=np.frombuffer(self.end, np.float64),
            parent=np.frombuffer(self.parent, np.int32),
        )


def _self_seconds(tr: Tracer) -> np.ndarray:
    """Each span's duration minus the part its child spans and probes cover."""
    dur = np.frombuffer(tr.end, np.float64) - np.frombuffer(tr.start, np.float64)
    parent = np.frombuffer(tr.parent, np.int32)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    probe_parent = np.array(tr.probe_parent, dtype=np.int64)
    inside = probe_parent >= 0
    covered += np.bincount(probe_parent[inside], weights=np.array(tr.probe_s)[inside],
                           minlength=dur.size)
    return dur - covered


def probe_mean(tr: Tracer) -> float:
    """Probe time averaged over the grid's time: each probe stands for the
    interval until the next one (the last, until the last span ends)."""
    at = np.array(tr.probe_at)
    until = np.append(at[1:], max(tr.end[-1], at[-1] + 1e-9))
    return float(np.average(tr.probe_s, weights=until - at))


def piece_times(runs) -> dict:
    """End-to-end seconds of a grid, from its pieces, at the reference host speed.

    ``runs`` are (tracer, wall seconds) of repeats of one grid recorded with
    the same targets and a ``SpeedProbe``, so their spans line up one to one
    (repeats whose spans differ from the first are left out).  In each repeat,
    every span's self time and the wall time outside all spans and probes
    are scaled by ``REFERENCE_S / mean probe time``; then each piece's median
    over the repeats is taken and the medians are summed.
    """
    ref = runs[0][0]
    same = [(t, w) for t, w in runs if t.name_id == ref.name_id and t.parent == ref.parent]
    top = np.flatnonzero(np.frombuffer(ref.parent, np.int32) < 0)
    scaled_self, scaled_outside = [], []
    for t, wall in same:
        scale = SpeedProbe.REFERENCE_S / probe_mean(t)
        scaled_self.append(_self_seconds(t) * scale)
        # ``wall`` leaves out every probe; the top spans' durations hold the nested ones.
        spans_s = sum(t.end[i] - t.start[i] for i in top)
        nested_probes = sum(d for d, p in zip(t.probe_s, t.probe_parent) if p >= 0)
        scaled_outside.append((wall - spans_s + nested_probes) * scale)
    self_s = np.median(scaled_self, axis=0)
    outside = statistics.median(scaled_outside)

    owner = np.full(self_s.size, -1)  # cell index of the solve/verify part a span is in
    part = np.zeros(self_s.size, bool)  # True inside empirical_risk
    cell = -1
    for i, (nid, p) in enumerate(zip(ref.name_id, ref.parent)):
        name = ref.names[nid]
        if name == CELL_PARTS[0]:
            cell += 1
        if name in CELL_PARTS:
            owner[i], part[i] = cell, name == CELL_PARTS[1]
        elif p >= 0:
            owner[i], part[i] = owner[p], part[p]
    inside = owner >= 0
    cells = np.bincount(owner[inside], weights=self_s[inside]) if inside.any() else [0.0]
    return {
        "wall_s": float(self_s.sum()) + outside,
        "predict_s": float(self_s[inside & ~part].sum()),
        "verify_s": float(self_s[inside & part].sum()),
        "cell_s_max": float(np.max(cells)),
        "repeats_used": len(same),
        "probe_ms": [1e3 * probe_mean(t) for t, _ in same],
    }


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer counters (exact) and busy seconds of one traced grid run."""
    nid = np.frombuffer(tr.name_id, np.int32)
    dur = np.frombuffer(tr.end, np.float64) - np.frombuffer(tr.start, np.float64)
    parent = np.frombuffer(tr.parent, np.int32)
    ids = {name: i for i, name in enumerate(tr.names)}
    has_parent = parent >= 0
    parent_nid = np.full(nid.shape, -1, np.int32)
    parent_nid[has_parent] = nid[parent[has_parent]]
    child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=nid.size)

    def named(name):
        return np.flatnonzero(nid == ids.get(name, -1))

    def under(idx, *parent_names):
        wanted = [ids[p] for p in parent_names if p in ids]
        return idx[np.isin(parent_nid[idx], wanted)]

    def attrs(idx):
        return [tr.attrs[int(i)] for i in idx]

    out = {}

    def calls_and_s(name):
        idx = named(name)
        out[f"{name}.calls"] = int(idx.size)
        out[f"{name}.s"] = float(dur[idx].sum())
        return idx

    out["seeds.gaussian_rows.rows"] = sum(attrs(calls_and_s("seeds.gaussian_rows")))
    out["constraints.project_rows.rows"] = sum(attrs(calls_and_s("constraints.project_rows")))
    for name in ("constraints.statistical_dimension", "constraints.tangent_dimension"):
        out[f"{name}.s"] = float(dur[named(name)].sum())
    calls_and_s("constraints.project")
    calls_and_s("sequence.process_rows")

    solves = calls_and_s("fixed_point.solve")
    out["fixed_point.solve.self_s"] = float((dur[solves] - child_s[solves]).sum())
    out["fixed_point.solve.iterations"] = sum(a[0] for a in attrs(solves))
    out["fixed_point.solve.max_iterations"] = sum(a[1] == "max_iterations" for a in attrs(solves))
    out["fixed_point.err_evals"] = sum(
        int(under(named(name), "fixed_point.solve").size) for name in ERR_EVALS)

    calls_and_s("linear_model.generate_instance")

    # Every AMP iteration projects once, and so does every PGD iteration,
    # plus once at the start: a solver span's projection children are its work.
    projects = named("constraints.project")
    projects = projects[parent[projects] >= 0]
    steps = np.bincount(parent[projects], minlength=nid.size)
    amps = calls_and_s("linear_model.amp_solve")
    out["linear_model.amp_solve.iterations"] = int(steps[amps].sum())
    amp_results = attrs(amps)
    out["linear_model.amp_solve.unconverged"] = sum(r[0] == "amp" and not r[2] for r in amp_results)
    out["linear_model.amp_success_frac"] = (
        sum(r[0] == "amp" and r[2] for r in amp_results) / len(amp_results) if amp_results else 0.0)

    pgds = named("linear_model.pgd_solve")
    fallback = under(pgds, *PGD_FALLBACK_PARENTS)
    audit = under(pgds, "linear_model.empirical_risk")
    out["linear_model.pgd_solve.calls"] = int(fallback.size)
    out["linear_model.pgd_solve.s"] = float(dur[fallback].sum())
    out["linear_model.pgd_solve.iterations"] = int((steps[fallback] - 1).sum())
    out["linear_model.pgd_solve.unconverged"] = sum(not a[2] for a in attrs(fallback))
    out["linear_model.pgd_solve.audit_calls"] = int(audit.size)
    out["linear_model.pgd_solve.audit_s"] = float(dur[audit].sum())

    # Computed, not measured: every matvec with X (m x n) or X^T reads the
    # m*n doubles of X once and does 2*m*n flops.  AMP: 2 per iteration and 1
    # for the final residual; PGD: 2 per iteration, 2 per power-iteration
    # step, and 3 for the initial residual and the power-iteration finish.
    matvec_elems = 0
    for i, (_, _, _, m, n) in zip(amps, amp_results):
        matvec_elems += (2 * int(steps[i]) + 1) * m * n
    for i, (_, _, _, m, n) in zip(pgds, attrs(pgds)):
        matvec_elems += (2 * (int(steps[i]) - 1) + 2 * POWER_ITERATION_STEPS + 3) * m * n
    out["linear_model.matvec_flops"] = 2 * matvec_elems
    out["linear_model.matvec_bytes"] = 8 * matvec_elems

    runs = named("experiments.run_experiment")
    out["experiments.self_s"] = float((dur[runs] - child_s[runs]).sum())
    out["experiments.emit_report.s"] = float(dur[named("experiments.emit_report")].sum())
    return {k: (int(v) if isinstance(v, (bool, np.integer)) else v) for k, v in out.items()}


TIME_SUFFIXES = (".s", ".self_s", ".audit_s")
COUNTER_SUFFIXES = (".calls", ".rows", ".iterations", ".max_iterations", ".unconverged",
                    ".audit_calls", ".err_evals", ".matvec_flops", ".matvec_bytes")


def median_layer_metrics(runs: list) -> dict:
    """Counters of the first traced run; busy seconds as medians over runs."""
    merged = dict(runs[0])
    for key in merged:
        if key.endswith(TIME_SUFFIXES):
            merged[key] = statistics.median(r[key] for r in runs)
    return merged


def unit(key: str) -> str:
    if key.endswith(TIME_SUFFIXES):
        return "s"
    if key.endswith("_frac"):
        return "ratio"
    if key.endswith(".matvec_flops"):
        return "flop-computed"
    if key.endswith(".matvec_bytes"):
        return "B-computed"
    return "count"


def counter_keys(metrics: dict) -> list:
    """Keys of the metrics that count work and must repeat exactly."""
    return sorted(k for k in metrics if k.endswith(COUNTER_SUFFIXES))
