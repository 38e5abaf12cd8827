"""Benchmark of glra: one seeded workload per run, end to end or traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload solve-dense --seed 1 --seconds 20 --trace 0

One operation is one pass over the workload's fixed input set, after one
untimed warm-up pass; every pass is checked.  With ``--trace 0`` the run
prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics
from the span tracer, with traced and untraced passes alternated so the
tracing overhead is measured in the same run.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; the
same object, with the environment and the full span table, is written to
``.bench_out/``.  BLAS is pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

# Per-layer metrics that are counters rather than span aggregates; every
# other name in BENCHMARK.json's per_layer list is <span>.calls,
# <span>.self_s or <span>.mb_per_s (file MB over inclusive span time).
COUNTERS = ("lapack.svd.gflop", "linalg.projector_mb", "checks.trials")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve-dense", "sweep-growth", "cli-files", "check-suites"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke runs every workload and check in seconds")
    return parser.parse_args(argv)


def import_program() -> None:
    """Import numpy, glra from this checkout's src/, and the workloads."""
    if not os.path.isfile(os.path.join(ROOT, "src", "glra", "__init__.py")):
        print(f"error: no glra package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    import glra  # noqa: F401
    import workloads  # noqa: F401


IMPORT_PROBE = (
    "import sys, time; started = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import numpy, glra; print(time.perf_counter() - started)"
)


def import_seconds() -> float:
    """Time to import numpy and glra in a fresh interpreter (which inherits the BLAS pin)."""
    import subprocess

    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, os.path.join(ROOT, "src")],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def median(values):
    return float(statistics.median(values))


def blas_threads():
    """OpenBLAS's own thread count, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib_path in glob.glob(pattern):
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class HostClock:
    """Host speed, sampled between the program calls of every pass.

    On a shared machine the CPU speed a process gets switches between a
    fast and a slow state that lasts seconds, and the share of slow time
    drifts over minutes.  Small-array numpy work slows more in the slow
    state than dense LAPACK work does.  Two fixed kernels independent of
    the program, one of each kind, are timed between operations.  A pass's
    slowdown is ``1 + w_dense (dense - 1) + w_small (small - 1)``, with
    each kernel's mean time during the pass over its reference time and
    the workload's weights ``HOST_WEIGHTS``; time metrics are divided by
    it, so they read as seconds on a host where the kernels take their
    reference times.
    """

    REFERENCE_DENSE_S = 0.0063
    REFERENCE_SMALL_S = 0.0043
    REPEATS = 2

    def __init__(self, weights: tuple[float, float]) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.weights = weights
        self._np = np
        self._dense = rng.standard_normal((128, 128))
        self._small = rng.standard_normal((8, 8))
        self.dense: list[float] = []
        self.small: list[float] = []

    def sample(self) -> None:
        np = self._np
        for _ in range(self.REPEATS):
            started = time.perf_counter()
            np.linalg.svd(self._dense)
            np.linalg.svd(self._dense)
            self.dense.append(time.perf_counter() - started)
            started = time.perf_counter()
            for _ in range(150):
                a = np.asarray(self._small, dtype=float)
                np.all(np.isfinite(a))
                u, s, vh = np.linalg.svd(a, full_matrices=False)
                (vh.T / s) @ u.T
            self.small.append(time.perf_counter() - started)

    def mark(self) -> int:
        return len(self.dense)

    def slowdown(self, since: int = 0) -> float:
        """Weighted slowdown over the samples taken since ``mark()`` returned ``since``."""
        dense, small = self.dense[since:], self.small[since:]
        w_dense, w_small = self.weights
        return (1.0 + w_dense * (sum(dense) / len(dense) / self.REFERENCE_DENSE_S - 1.0)
                + w_small * (sum(small) / len(small) / self.REFERENCE_SMALL_S - 1.0))


class Runner:
    """Runs, times and checks passes of one workload.

    ``errors`` holds passes the program could not complete (counted in
    ``failed``), ``failures`` the checks that completed passes did not meet.
    """

    def __init__(self, workload, clock: HostClock) -> None:
        self.workload = workload
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.failures: list[str] = []

    def timed_pass(self, counted: bool = True):
        """Run one checked pass; return its wall time and host slowdown, or None if it failed."""
        self.attempted += counted
        elapsed = 0.0
        outputs = []
        since = self.clock.mark()
        for op in self.workload.operations():
            self.clock.sample()
            started = time.perf_counter()
            try:
                outputs.append(op())
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += counted
                self.errors.append(f"{type(exc).__name__}: {exc}")
                return None
            elapsed += time.perf_counter() - started
        self.clock.sample()
        self.failures.extend(self.workload.check(outputs))
        return elapsed, self.clock.slowdown(since)


def layer_value(name: str, snap: dict, overhead: float) -> float:
    """One per-layer metric of one traced pass."""
    stats, counters = snap["stats"], snap["counters"]
    if name == "trace.overhead_ratio":
        return overhead
    if name in COUNTERS:
        return counters.get(name, 0.0)
    span, _, kind = name.rpartition(".")
    st = stats.get(span, {})
    if kind == "calls":
        return st.get("calls", 0)
    if kind == "self_s":
        return st.get("self_s", 0.0)
    if kind == "mb_per_s":
        busy = st.get("total_s", 0.0)
        return counters.get(span + ".mb", 0.0) / busy if busy > 0 else 0.0
    raise ValueError(f"no source for per-layer metric {name!r}")


def layer_metrics(per_layer: list[dict], samples: list[dict], overhead: float) -> dict:
    """Median over traced passes of every per-layer metric in BENCHMARK.json."""
    return {
        m["name"]: {"value": median([layer_value(m["name"], snap, overhead) for snap in samples]),
                    "unit": m["unit"]}
        for m in per_layer
    }


def tracer_hooks():
    import numpy as np

    def projector(tr, args, kwargs, result):
        tr.count("linalg.projector_mb", np.asarray(result).nbytes / 1e6)

    def file_mb(counter):
        def hook(tr, args, kwargs, result):
            path = args[0] if args else kwargs["path"]
            tr.count(counter, os.path.getsize(path) / 1e6)

        return hook

    def trials(tr, args, kwargs, report):
        tr.count("checks.trials", sum(r.trials for rs in report.suites.values() for r in rs))

    return {
        "linalg.proj_range": projector,
        "linalg.proj_kernel_perp": projector,
        "matio.read_matrix": file_mb("matio.read_matrix.mb"),
        "matio.write_matrix": file_mb("matio.write_matrix.mb"),
        "checks.run_suites": trials,
    }


def run_end_to_end(runner: Runner, seconds: float, setup_s: float) -> tuple[dict, dict]:
    """Host-corrected time metrics (see HostClock); raw wall times go to the record."""
    import resource

    passes = []
    started = time.perf_counter()
    while runner.attempted < MIN_PASSES or time.perf_counter() - started < seconds:
        timed = runner.timed_pass()
        if timed is not None:
            passes.append(timed)
    corrected = [wall / slow for wall, slow in passes]
    metrics = {
        "ops_per_s": {"value": len(corrected) / sum(corrected) if passes else 0.0, "unit": "1/s"},
        "op_s_p50": {"value": median(corrected) if passes else 0.0, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    return metrics, {"pass_s": [wall for wall, _ in passes],
                     "pass_slowdown": [slow for _, slow in passes],
                     "clock_dense_s": runner.clock.dense, "clock_small_s": runner.clock.small}


def run_traced(runner: Runner, seconds: float, per_layer: list[dict]) -> tuple[dict, dict]:
    from tracer import Tracer

    tracer = Tracer()
    hooks = tracer_hooks()
    plain, traced, samples = [], [], []
    started = time.perf_counter()
    while runner.attempted < 2 * MIN_TRACED_PASSES or time.perf_counter() - started < seconds:
        timed = runner.timed_pass()
        if timed is not None:
            plain.append(timed[0] / timed[1])
        tracer.reset()
        tracer.install(hooks)
        try:
            timed = runner.timed_pass()
        finally:
            tracer.uninstall()
        if timed is not None:
            traced.append(timed[0] / timed[1])
            samples.append({
                "stats": {k: vars(v).copy() for k, v in tracer.stats.items()},
                "counters": dict(tracer.counters),
            })
    # host-corrected, so a change of host state between the two kinds of
    # pass does not read as tracing overhead
    overhead = median(traced) / median(plain) if traced and plain else 0.0
    return layer_metrics(per_layer, samples, overhead), {
        "corrected_pass_s": plain, "corrected_traced_pass_s": traced,
        "spans": samples[-1] if samples else {}
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for the program, the host clock and the import probes, so the
    # clock samples the same CPU the timed work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import_program()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    import numpy

    import workloads

    out_dir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.size, args.seed, workdir)
    clock = HostClock(workload.HOST_WEIGHTS)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            clock.sample()
            started = time.perf_counter()
            workload.setup()
            setup_times.append(import_seconds() + time.perf_counter() - started)
        clock.sample()
        setup_s = median(setup_times) / clock.slowdown()
        workload.prepare()
        runner = Runner(workload, clock)
        runner.timed_pass(counted=False)
        if args.trace:
            metrics, detail = run_traced(runner, args.seconds, spec["per_layer"])
        else:
            metrics, detail = run_end_to_end(runner, args.seconds, setup_s)
            detail["wall_setup_s"] = median(setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in runner.errors[:5]:
        print(f"operation failed: {msg}", file=sys.stderr)
    for msg in runner.failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=args.size, setup_runs_s=setup_times,
                  environment={
                      "python": platform.python_version(),
                      "numpy": numpy.__version__,
                      "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
                      .get("version"),
                      "blas_threads": blas_threads(),
                  }, **detail)
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
