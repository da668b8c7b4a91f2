#!/usr/bin/env python3
"""swapcool benchmark harness.

Run from the repository root:

    python3 perfbench/run.py --workload coeffs_xi_flow --seed 0 --seconds 32 --trace 0

Workloads: coeffs_xi_flow, schedule, oracle (see perfbench/README.md).  One
run repeats measured iterations for about --seconds, sets the workload up
SETUP_REPS times (once before the first iteration, the others spread between
iterations), then checks every iteration's outputs.  With --trace 0
it reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced iterations and reports the per-layer metrics from the traced ones.
The last line of standard output is the JSON result; the full record
(environment, quartiles, failures, byte identity) and, when traced, the spans
are written under perfbench/out/.

The package is imported from src/ of the checkout, never from an installed
copy; without src/swapcool the harness exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import reference
from tracer import Tracer, no_span, write_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPS = 11
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# single-threaded BLAS: within the 2-core budget and steadier on a shared machine
BLAS_THREADS = "1"

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
SPAN_METRICS = (
    "network.accumulate", "network.schedule_events", "network.stats_sweep",
    "network.validate", "network.schedule_json", "network.scaling_report",
    "network.m_alpha", "network.rescale_row", "network.xi_statistic",
    "network.exact_oracle", "flow.flow_series", "flow.flow_rk4", "protocol.oracle",
    "protocol.apply_protocol", "hamiltonian.build_model", "quantum.eigendecompose",
    "experiments.serialize", "cli.write",
)
SELF_LAYERS = ("hamiltonian", "quantum", "protocol", "flow", "network", "experiments", "cli")
COUNTS = ("network.pair_events", "network.step_star_sum", "flow.time_points",
          "protocol.oracle_calls", "cli.bytes_written")


class HarnessError(Exception):
    """The benchmark cannot run here (no source tree, failed set-up)."""


def bootstrap() -> None:
    """Pin BLAS threads before numpy loads and import swapcool from src/."""
    if not os.path.isfile(os.path.join(SRC, "swapcool", "cli.py")):
        raise HarnessError(f"no swapcool source tree at {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import swapcool

    if os.path.dirname(os.path.dirname(os.path.abspath(swapcool.__file__))) != SRC:
        raise HarnessError(f"swapcool imported from {swapcool.__file__}, not from {SRC}")


# --- environment -------------------------------------------------------------------

def _git(*args) -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _l3_size() -> str | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as fh:
                if fh.read().strip() == "3":
                    with open(os.path.join(base, index, "size")) as fh2:
                        return fh2.read().strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    from swapcool import kernels

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.BACKEND,
        "cython_importable": importlib.util.find_spec("Cython") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_size(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "loadavg_at_start": list(os.getloadavg()),
    }


# --- measurement -------------------------------------------------------------------

def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI and all it loads."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import swapcool.cli"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise HarnessError(f"importing swapcool failed: {proc.stderr.strip()}")
    return elapsed


@dataclass
class Iteration:
    index: int
    out_dir: str
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    results: object = None
    error: str | None = None
    worst: tuple | None = None
    identity: dict | None = None
    tracer: Tracer | None = None


def run_iteration(workload, state, it: Iteration, run_id: str) -> None:
    os.makedirs(it.out_dir, exist_ok=True)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if it.traced:
            it.tracer = Tracer(f"{run_id}-{it.index}")
            with it.tracer:
                with it.tracer.span("bench.iteration"):
                    it.results = workload.run(state, it.out_dir, it.tracer.span)
        else:
            it.results = workload.run(state, it.out_dir, no_span)
    except Exception as exc:        # a failing program is a failed iteration, not a crash
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        it.error = f"{type(exc).__name__}: {exc} (at {frame.filename}:{frame.lineno})"
    it.wall = time.perf_counter() - t0
    it.cpu = time.process_time() - c0


def check_iteration(workload, state, it: Iteration, ref) -> None:
    if it.error is None:
        try:
            report, it.identity = workload.check(state, it.out_dir, it.results, ref)
        except Exception as exc:    # unreadable or malformed output fails the iteration
            it.error = f"output check raised {type(exc).__name__}: {exc}"
        else:
            it.worst = report.worst
            if not report.ok:
                it.error = "output mismatch: " + report.summary()
    it.results = None
    shutil.rmtree(it.out_dir, ignore_errors=True)


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(tracer) -> dict[str, float]:
    durations = tracer.durations()
    self_times = tracer.self_times()
    out = {f"{name}_s": durations.get(name, 0.0) for name in SPAN_METRICS}
    out.update({f"{layer}.self_s": self_times.get(layer, 0.0) for layer in SELF_LAYERS})
    out.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    acc = durations.get("network.accumulate", 0.0)
    out["network.accumulate_pairs_per_s"] = (
        tracer.counts["network.accumulated_pairs"] / acc if acc else 0.0)
    series = durations.get("flow.flow_series", 0.0)
    out["flow.amplitudes_per_s"] = tracer.counts["flow.amplitudes"] / series if series else 0.0
    out["network.tau_table_mb"] = tracer.peaks.get("network.tau_table_mb", 0.0)
    return out


def benchmark(name: str, seed: int, seconds: float, trace: bool, profile_name: str = "full",
              out_dir: str = OUT_DIR) -> dict:
    """One benchmark run; returns the full record (result line under "result")."""
    import workloads     # imports swapcool, so only after bootstrap()

    profile = workloads.PROFILES[profile_name]
    workload = workloads.WORKLOADS[name](profile, seed)
    ref = None if name == "oracle" else reference.load_reference(profile.name, name)
    env = environment()
    run_id = f"{name}-{seed}-{os.getpid()}-{time.time_ns()}"
    work = os.path.join(out_dir, f"work-{run_id}")
    try:
        setup: list[float] = []

        def set_up():
            t_import = import_seconds()
            t0 = time.perf_counter()
            prepared = workload.prepare(os.path.join(work, f"setup{len(setup)}"))
            setup.append(t_import + time.perf_counter() - t0)
            return prepared

        state = set_up()
        iterations: list[Iteration] = []
        while True:
            it = Iteration(len(iterations), os.path.join(work, f"iter{len(iterations)}"),
                           traced=trace and len(iterations) % 2 == 1)
            run_iteration(workload, state, it, run_id)
            iterations.append(it)
            if it.index == 0:
                # one CLI invocation per process is what a user runs, so the peak
                # is taken after the first iteration; later ones only add heap
                # fragmentation that grows with the iteration count
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            elapsed = sum(i.wall for i in iterations)
            # the other set-ups are spread over the run rather than done in a row,
            # so that setup_s samples the machine's speed over the same stretch
            # of time as the iterations do
            while len(setup) < min(SETUP_REPS, 1 + (SETUP_REPS - 1) * elapsed / seconds):
                set_up()
            if trace and len(iterations) < 2:
                continue
            # stop when one more iteration of median length would overrun
            if elapsed + statistics.median(i.wall for i in iterations) > seconds:
                break
        while len(setup) < SETUP_REPS:
            set_up()
        for it in iterations:
            check_iteration(workload, state, it, ref)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(it.error is not None for it in iterations)

    def measured(traced: bool) -> list[Iteration]:
        same = [it for it in iterations if it.traced == traced]
        return [it for it in same if it.error is None] or same

    plain = measured(traced=False)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "profile": profile.name, "environment": env,
        "attempted": len(iterations), "failed": failed,
        "error_rate": failed / len(iterations),
        "wall_s": quartiles([it.wall for it in plain]),
        "cpu_s": quartiles([it.cpu for it in plain]),
        "setup_s": quartiles(setup),
        "peak_rss_mb": peak_rss_mb,
        "iterations": [{"wall_s": it.wall, "cpu_s": it.cpu, "traced": it.traced}
                       for it in iterations],
        "failures": [{"iteration": it.index, "error": it.error} for it in iterations if it.error],
        "worst_case": max((it.worst for it in iterations if it.worst is not None),
                          default=None),
        "byte_identity": next((it.identity for it in iterations if it.identity), None),
    }
    if trace:
        tracers = [it.tracer for it in measured(traced=True)]
        per_iter = [layer_metrics(t) for t in tracers]
        layer = {k: statistics.median(m[k] for m in per_iter) for k in per_iter[0]}
        # exact counts are reported as counted; they must not vary between iterations
        layer.update({k: per_iter[0][k] for k in COUNTS})
        record["count_mismatch"] = sorted(k for k in COUNTS
                                          if len({m[k] for m in per_iter}) > 1)
        traced_wall = statistics.median(it.wall for it in measured(traced=True))
        untraced_wall = record["wall_s"]["median"]
        layer["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
        record["layers"] = layer
        record["missing_trace_targets"] = tracers[0].missing
        spans_path = os.path.join(out_dir, f"spans-{name}-seed{seed}.json")
        write_spans(spans_path, tracers)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    else:
        values = {"wall_s": record["wall_s"]["median"], "cpu_s": record["cpu_s"]["median"],
                  "peak_rss_mb": peak_rss_mb, "setup_s": record["setup_s"]["median"]}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    record["result"] = {"correct": failed == 0, "attempted": len(iterations),
                        "failed": failed, "metrics": metrics}
    return record


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    return "count"


def summary_lines(record: dict) -> list[str]:
    lines = [f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']}: "
             f"{record['attempted']} iterations, {record['failed']} failed "
             f"(error_rate {record['error_rate']:.3f})"]
    for key in ("wall_s", "cpu_s", "setup_s"):
        q = record[key]
        lines.append(f"  {key:<12} median {q['median']:.4f} s  "
                     f"[q1 {q['q1']:.4f}, q3 {q['q3']:.4f}]  n={q['n']}")
    lines.append(f"  peak_rss_mb  {record['peak_rss_mb']:.1f} MB")
    for fail in record["failures"]:
        lines.append(f"  FAILED iteration {fail['iteration']}: {fail['error']}")
    if record["worst_case"]:
        share, path, limit, measured = record["worst_case"]
        lines.append(f"  closest check: {path} measured {measured!r} against {limit!r} "
                     f"(deviation share {share:.3g})")
    if record["byte_identity"] is not None:
        lines.append(f"  byte identity with the seed outputs: {record['byte_identity']}")
    lines.append("  environment: " + json.dumps(record["environment"], sort_keys=True))
    for key, value in sorted(record.get("layers", {}).items()):
        lines.append(f"  {key:<36} {value}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("coeffs_xi_flow", "schedule", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        bootstrap()
        record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, ImportError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("\n".join(summary_lines(record)))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
