"""gridwigner benchmark: closed-loop job streams over the public entry points.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload wigner-forward --seed 1 --seconds 18 --trace 0

One client in one process sends each job only after the previous one
returns.  A run measures a fixed number of whole rounds of the
workload's job mix, set by ``--seconds``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` measures an untraced and a traced pass
and reports per-layer self time, calls and errors.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md next to this file.
"""

from __future__ import annotations

import os

# One BLAS thread, so the single client process uses one core and BLAS
# threads do not compete with it.  Set before numpy loads.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"

WORKLOADS = ("wigner-forward", "reconstruct-inverse", "quantizer-cache", "tomography-suite")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # jobs that must lie beyond the tail percentile
#: Seconds the reference loop takes at the reference host's typical speed.
REF_S = 0.008
#: Reference passes on each side of a timed span that set its speed factor.
REF_WINDOW = 3

UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


def import_program() -> float:
    """Import the checkout's ``gridwigner`` from ``src/``; return the seconds taken.

    numpy is imported first and not timed: the harness needs it anyway,
    and its import time is not the program's.
    """
    if not (SRC / "gridwigner" / "__init__.py").is_file():
        raise ImportError(f"no gridwigner package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401

    start = perf_counter()
    import gridwigner
    import gridwigner.cli  # noqa: F401

    elapsed = perf_counter() - start
    if SRC not in Path(gridwigner.__file__).resolve().parents:
        raise ImportError(f"gridwigner was imported from {gridwigner.__file__}, not {SRC}")
    return elapsed


def openblas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if one is found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in names:
            if hasattr(handle, name):
                return int(getattr(handle, name)())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
        "blas_threads": openblas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


class Reference:
    """A fixed loop timed between jobs to follow the host's current speed.

    It mixes what the library's jobs spend their time on: complex matrix
    products, elementwise transcendental numpy, many small-array numpy
    calls and pure-Python arithmetic, about 2 ms each.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.v = rng.standard_normal(1 << 15)
        self.s = rng.standard_normal(12)

    def __call__(self) -> float:
        """Seconds one pass of the loop takes now."""
        np, a, s = self.np, self.a, self.s
        start = perf_counter()
        b = a
        for _ in range(24):
            b = (a @ b) / 8.0
        np.exp(1j * self.v).sum()
        for _ in range(100):
            np.exp(1j * np.outer(s, s)).sum()
        x = 0
        for i in range(25000):
            x += i * i
        return perf_counter() - start


def speed_factors(refs: list[float]) -> list[float]:
    """Speed factor of each span timed between reference passes.

    ``refs[i]`` ran just before span ``i`` and ``refs[i + 1]`` just after
    it.  The factor is ``REF_S`` over the median of the ``REF_WINDOW``
    passes on either side of the span, so one noisy pass moves it little.
    """
    return [
        REF_S / statistics.median(refs[max(0, i + 1 - REF_WINDOW) : i + 1 + REF_WINDOW])
        for i in range(len(refs) - 1)
    ]


class Stats:
    """Latencies, reference passes and failures of the jobs of one pass.

    A job's calibrated latency is its measured latency times its speed
    factor (see :func:`speed_factors`).
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.refs: list[float] = []
        self.kinds: list[str] = []
        self.failures: list[str] = []
        self.rounds = 0

    @property
    def factors(self) -> list[float]:
        return speed_factors(self.refs)

    def calibrated(self) -> list[float]:
        return [lat * f for lat, f in zip(self.latencies, self.factors)]

    def jobs_per_s(self) -> float:
        return len(self.latencies) / sum(self.calibrated())


def execute(job, stats: Stats, sink, recorder=None) -> None:
    """Run one job with its stdout sent to ``sink``, time it, and gate it."""
    errors = io.StringIO()
    if recorder is not None:
        recorder.job = len(stats.latencies)
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
        start = perf_counter()
        try:
            out, problem = job.call(), None
        except SystemExit as exc:
            out, problem = None, f"exited with {exc.code}"
        except Exception as exc:  # a job that raises is a counted failure, not a crash
            out, problem = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    if problem is None:
        try:
            problem = job.check(out)
        except Exception as exc:  # an unreadable output fails the gate
            problem = f"gate: {type(exc).__name__}: {exc}"
    stats.latencies.append(elapsed)
    stats.kinds.append(job.kind)
    if problem is not None:
        stats.failures.append(f"{job.kind}: {problem} {errors.getvalue().strip()}".strip())


def rounds_for(seconds: float, round_s: float) -> int:
    """Whole rounds in a run of ``seconds``, with ``round_s`` budgeted per round."""
    return max(1, round(seconds / round_s))


def run_rounds(workload, rng, rounds: int, reference, sink, recorder=None) -> Stats:
    """``rounds`` whole rounds of the job mix, the reference loop around each job."""
    stats = Stats()
    stats.refs.append(reference())
    for _ in range(rounds):
        for job in workload.round(rng):
            execute(job, stats, sink, recorder)
            stats.refs.append(reference())
        stats.rounds += 1
    return stats


def timed_setups(workload, repeats: int, reference) -> tuple[list[float], list[float]]:
    """Measured and calibrated seconds of ``repeats`` set-ups."""
    measured, refs = [], [reference()]
    for _ in range(repeats):
        start = perf_counter()
        workload.setup()
        measured.append(perf_counter() - start)
        refs.append(reference())
    return measured, [t * f for t, f in zip(measured, speed_factors(refs))]


def tail(latencies: list[float]) -> tuple[float, int]:
    """Latency at the highest whole percentile with ``TAIL_BEYOND`` jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    pct = 100 * (n - TAIL_BEYOND) // n
    return ordered[math.ceil(pct * n / 100) - 1], pct


def typical_latencies(kinds: list[str], latencies: list[float]) -> list[float]:
    """Each job's latency replaced by the median latency of its template in the run."""
    by_kind: dict[str, list[float]] = {}
    for kind, lat in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(lat)
    medians = {kind: statistics.median(v) for kind, v in by_kind.items()}
    return [medians[kind] for kind in kinds]


def end_to_end(import_s: float, setups: tuple[list[float], list[float]], stats: Stats) -> tuple[dict, dict]:
    typical = typical_latencies(stats.kinds, stats.calibrated())
    tail_s, pct = tail(typical)
    measured_setups, calibrated_setups = setups
    values = {
        "setup_s": import_s + statistics.median(calibrated_setups),
        "jobs_per_s": stats.jobs_per_s(),
        "job_p50_s": statistics.median(typical),
        "job_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    details = {
        "tail_percentile": pct,
        "samples": len(typical),
        "rounds": stats.rounds,
        "import_s": import_s,
        "setup_runs_s": measured_setups,
        "setup_runs_calibrated_s": calibrated_setups,
        "measured": {
            "jobs_per_s": len(stats.latencies) / sum(stats.latencies),
            "job_p50_s": statistics.median(stats.latencies),
            "job_tail_s": tail(stats.latencies)[0],
        },
        "speed_factor_median": statistics.median(stats.factors),
    }
    return metrics, details


def per_layer(workload, plain: Stats, traced: Stats, recorder) -> tuple[dict, dict]:
    values = spans.layer_metrics(recorder, traced.rounds)
    units = {k: ("s" if k.endswith("self_s") else "count") for k in values}
    values["quantizer.cache_bytes"] = float(workload.cache_bytes())
    units["quantizer.cache_bytes"] = "bytes"
    values["trace_overhead"] = traced.jobs_per_s() / plain.jobs_per_s()
    units["trace_overhead"] = "ratio"
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    details = {
        "untraced_rounds": plain.rounds,
        "traced_rounds": traced.rounds,
        "spans": len(recorder.spans),
        "span_coverage": spans.root_time(recorder) / sum(traced.latencies),
        "cache_bytes_source": "computed from the ndarray fields of the cached Quantizer objects",
    }
    return metrics, details


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """One benchmark run; returns the result object plus a ``details`` entry."""
    import_s = import_program()
    import numpy as np

    import workloads

    reference = Reference()
    import_s *= REF_S / statistics.median(reference() for _ in range(REF_WINDOW))
    workdir = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    workload = workloads.make(workload_name, workdir, seed, scale)
    rounds = rounds_for(seconds, workload.params["round_s"])
    warm = Stats()
    try:
        with open(os.devnull, "w") as sink:
            setups = timed_setups(workload, 1 if trace else SETUP_REPEATS, reference)
            rng = np.random.default_rng([seed, 1])
            for job in workload.warmup(rng):
                execute(job, warm, sink)
            if not trace:
                stats = run_rounds(workload, rng, rounds, reference, sink)
                metrics, details = end_to_end(import_s, setups, stats)
                measured = [stats]
            else:
                half = max(1, rounds // 2)
                plain = run_rounds(workload, rng, half, reference, sink)
                recorder = spans.Recorder()
                recorder.install()
                try:
                    workload.setup()
                    traced = run_rounds(workload, rng, half, reference, sink, recorder)
                finally:
                    recorder.uninstall()
                metrics, details = per_layer(workload, plain, traced, recorder)
                WORK.mkdir(exist_ok=True)
                recorder.write(WORK / f"trace-{workload_name}.csv")
                measured = [plain, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(warm.latencies) + sum(len(s.latencies) for s in measured)
    failures = warm.failures + [f for s in measured for f in s.failures]
    by_kind: dict[str, list[float]] = {}
    for s in measured:
        for kind, lat in zip(s.kinds, s.calibrated()):
            by_kind.setdefault(kind, []).append(lat)
    details.update(
        workload=workload_name,
        scale=scale,
        trace=int(trace),
        seconds=seconds,
        fail_frac=len(failures) / attempted,
        failures=failures[:10],
        median_latency_by_kind={k: statistics.median(v) for k, v in sorted(by_kind.items())},
        jobs=[list(zip(s.kinds, s.latencies, s.factors)) for s in measured],
        environment=environment(seed),
    )
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "details": details,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    details = result.pop("details")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "details": details}, fh, indent=1)
    print(json.dumps({"details": {k: v for k, v in details.items() if k != "jobs"}}))
    for failure in details["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
