"""riskfix benchmark: time experiment grids end to end, or trace them per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload nnls-grid --seed 0 --seconds 30 --trace 0

It drives the package only through ``riskfix.experiments.run_experiment``
(``jobs=1``, one caller, no extra threads) on the workload's grid, runs the
grid back to back until ``--seconds`` are used (at least twice), checks the
reports, and prints one line per metric followed by a JSON result as the last
line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's functions from outside (see spans.py) and reports per-layer metrics.
Reports and spans go to ``.perfbench_out/`` in the checkout.
"""

import time

STARTED = time.perf_counter()  # a setup probe's setup time counts from here

import os  # noqa: E402

# Held equal on every commit measured; must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import astuple, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
HELD_OUT_SEED = 90210  # never used while writing a change; check claims on it too
SETUP_PROBES = 5
MIN_GRIDS = 2  # two back-to-back runs check determinism

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "predict_s": "s", "verify_s": "s",
    "cell_s_max": "s", "peak_rss_mb": "MB", "cells_in_band": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload_name: str, seed: int) -> None:
    """What a user pays before the first grid cell: import and config build.

    Prints the seconds since this interpreter started running this file, and
    the median speed-probe time right after, as a JSON pair.
    """
    import workloads

    workloads.WORKLOADS[workload_name].config(seed)
    elapsed = time.perf_counter() - STARTED
    import spans

    probe = spans.SpeedProbe()
    print(json.dumps([elapsed, statistics.median(probe.run() for _ in range(30))]))


def measure_setup(workload_name: str, seed: int) -> tuple:
    """Setup seconds of fresh interpreters at the reference host speed, and raw."""
    import spans

    cmd = [sys.executable, __file__, "--setup-probe", "--workload", workload_name,
           "--seed", str(seed)]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True)
        elapsed, probe_s = json.loads(done.stdout.splitlines()[-1])
        scaled.append(elapsed * spans.SpeedProbe.REFERENCE_S / probe_s)
        raw.append(elapsed)
    return scaled, raw


@dataclass
class GridRun:
    traced: bool
    records: list
    text: str
    wall_s: float  # probe time left out
    probe_s: float  # mean speed-probe time while the grid ran
    tracer: object


def run_grid(workload, seed: int, traced: bool) -> GridRun:
    """One grid from config to report text, under the wrappers chosen."""
    import spans
    from riskfix.experiments import emit_report, run_experiment

    probe = spans.SpeedProbe()
    tracer = spans.Tracer(probe=None if traced else probe)
    targets = spans.LAYER_TARGETS if traced else spans.PIECE_TARGETS
    # Traced grids run no probe inside their spans; time the host around them.
    around = [probe.run() for _ in range(20)] if traced else []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with tracer.installed(targets):
            start = time.perf_counter()
            config = workload.config(seed)
            with tracer.span("experiments.run_experiment"):
                records = run_experiment(config)
            with tracer.span("experiments.emit_report"):
                text = emit_report(records)
            wall = time.perf_counter() - start - sum(tracer.probe_s)
    if traced:
        around += [probe.run() for _ in range(20)]
    probe_s = statistics.median(around) if traced else spans.probe_mean(tracer)
    return GridRun(traced, records, text, wall, probe_s, tracer)


def run_until(workload, seed: int, seconds: float, schedule) -> list:
    """Grids in ``schedule`` order (cycling its tail) until the time is used.

    The whole schedule head always runs; after it, a grid starts only if a
    grid of median length still ends within ``seconds``.
    """
    head, tail = schedule
    grids = []
    start = time.perf_counter()
    while True:
        if len(grids) >= len(head):
            typical = statistics.median(g.wall_s for g in grids)
            if time.perf_counter() - start + typical > seconds:
                return grids
            traced = tail[(len(grids) - len(head)) % len(tail)]
        else:
            traced = head[len(grids)]
        grids.append(run_grid(workload, seed, traced))


def _row_without_runtime(rec) -> tuple:
    return astuple(rec)[:-1]  # runtime_seconds is the last CSV column


def check_grids(workload, seed: int, grids: list):
    """Attempted and failed cells over all grids, plus problems that fail the run.

    A cell fails when its record is an error or misses a value, when the CSV
    report does not round-trip through ``parse_records``, or when it differs
    from the same cell of the first grid apart from ``runtime_seconds``.
    """
    from riskfix.experiments import parse_records

    import workloads

    report = OUT / f"report-{workload.name}-seed{seed}.csv"
    first = grids[0].records
    attempted = failed = 0
    problems = []
    for g in grids:
        report.write_text(g.text, encoding="utf-8")
        parsed = parse_records(str(report))
        if len(parsed) != len(g.records) or len(g.records) != len(first):
            problems.append("report has a different number of cells")
            parsed = g.records
        for rec, back, ref in zip(g.records, parsed, first):
            attempted += 1
            why = workloads.cell_failures(rec)
            if back != rec:
                why.append(f"{rec.experiment_id}: CSV round trip changed the record")
            if _row_without_runtime(rec) != _row_without_runtime(ref):
                why.append(f"{rec.experiment_id}: differs from the first run with the same seed")
            failed += bool(why)
            problems.extend(why)
    if workload.check is not None:
        problems.extend(workload.check(first))
    return attempted, failed, problems


def openblas_threads() -> dict:
    """Thread count in effect in each OpenBLAS loaded into this process."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                found[Path(path).name] = getter()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "riskfix").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "openblas_threads": openblas_threads(),
    }


def end_to_end_metrics(workload, seed: int, seconds: float):
    import spans
    import workloads

    setup, setup_raw = measure_setup(workload.name, seed)
    grids = run_until(workload, seed, seconds, ((False,) * MIN_GRIDS, (False,)))
    times = spans.piece_times([(g.tracer, g.wall_s) for g in grids])
    metrics = {
        "setup_s": statistics.median(setup),
        **{k: times[k] for k in ("wall_s", "predict_s", "verify_s", "cell_s_max")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells_in_band": sum(
            1 for r in grids[0].records
            if r.r_theory_sq is not None and not workloads.off_band(r)),
    }
    info = {"walls": [g.wall_s for g in grids], "setups": setup_raw,
            "repeats_used": times["repeats_used"], "probe_ms": times["probe_ms"],
            "cells_off_band": sum(map(workloads.off_band, grids[0].records))}
    return grids, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, info


def per_layer_metrics(workload, seed: int, seconds: float):
    import spans

    # Untraced first so the traced grids cannot warm anything for it; then
    # two traced grids, which must repeat every counter exactly.
    grids = run_until(workload, seed, seconds, ((False, True, True), (False, True)))
    untraced = [g for g in grids if not g.traced]
    traced = [g for g in grids if g.traced]
    layers = [spans.layer_metrics(g.tracer) for g in traced]
    problems = [f"counter {key} differs between traced runs: {[m[key] for m in layers]}"
                for key in spans.counter_keys(layers[0])
                if any(m[key] != layers[0][key] for m in layers)]
    merged = spans.median_layer_metrics(layers)
    # Both at the reference host speed, so a swing in host speed between
    # the grids does not read as tracing cost.
    merged["trace_overhead_frac"] = (
        statistics.median(g.wall_s / g.probe_s for g in traced)
        / statistics.median(g.wall_s / g.probe_s for g in untraced) - 1.0)
    traced[-1].tracer.write(OUT / f"spans-{workload.name}-seed{seed}.npz")
    info = {"walls": [g.wall_s for g in untraced], "traced_walls": [g.wall_s for g in traced],
            "probe_ms": [1e3 * g.probe_s for g in untraced],
            "traced_probe_ms": [1e3 * g.probe_s for g in traced]}
    return grids, {k: (v, spans.unit(k)) for k, v in merged.items()}, info, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "riskfix" / "__init__.py").is_file():
        print(f"error: no riskfix sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    if args.trace:
        grids, metrics, info, problems = per_layer_metrics(workload, args.seed, args.seconds)
    else:
        grids, metrics, info = end_to_end_metrics(workload, args.seed, args.seconds)
        problems = []
    attempted, failed, check_problems = check_grids(workload, args.seed, grids)
    problems.extend(check_problems)
    info["failed_frac"] = failed / attempted
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    summary = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "env": env, "info": info, "problems": problems}
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**summary, "result": result}, indent=2) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"problem: {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:14s} {name:40s} {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
