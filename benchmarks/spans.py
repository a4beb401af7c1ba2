"""Span recorder for the traced benchmark run.

Every public function of the eight ``gridwigner`` modules is wrapped
where the package and the modules bind it, so a call reached through
``gridwigner.cli.wigner_grid`` is covered as well as one through
``gridwigner.wigner.wigner_grid``.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the time covered by its
child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("cli", "kernels", "phasespace", "linalg", "quantizer", "wigner", "tomography", "states")

#: Functions that get a ``<layer>.<function>.self_s`` metric of their own.
FUNCTIONS = {
    "wigner": (
        "wigner_grid",
        "wigner",
        "check_density",
        "phase_matrix_elements",
        "reconstruct",
        "wigner_wootters",
        "wigner_symmetric",
        "wigner_to_json",
        "load_wigner",
    ),
    "linalg": ("min_diag_pivot",),
    "quantizer": ("build_quantizer", "verify_quantizer", "quantize", "symbol", "ordering_check"),
    "tomography": (
        "line_projector",
        "leonhardt_wigner",
        "leonhardt_reconstruct",
        "leonhardt_phase_point_op",
        "half_phase_ket",
        "relate_odd",
        "relate_even",
        "continuum_study",
    ),
    "states": ("save_density_json", "load_density_json"),
    "kernels": ("validate",),
}

SETUP = -1  # job id of spans recorded during set-up


class Recorder:
    """Collects spans as ``(job, parent, layer, function, start, end, error)``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = SETUP
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            failed = False
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (self.job, parent, layer, name, start, end, failed)

        return traced

    def install(self) -> None:
        """Replace every public module-level function of the eight layers."""
        modules = {layer: importlib.import_module(f"gridwigner.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(layer, name, obj)
        for mod in (importlib.import_module("gridwigner"), *modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    def self_times(self):
        """Yield ``(job, layer, function, self_seconds, error)`` per span."""
        covered = [0.0] * len(self.spans)
        for job, parent, _, _, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for sid, (job, _, layer, name, start, end, failed) in enumerate(self.spans):
            yield job, layer, name, end - start - covered[sid], failed

    def write(self, path) -> None:
        """Write every span as one CSV line (times relative to the first span)."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("span,job,parent,layer,function,start_s,end_s,error\n")
            for sid, (job, parent, layer, name, start, end, failed) in enumerate(self.spans):
                fh.write(f"{sid},{job},{parent},{layer},{name},{start - t0:.9f},{end - t0:.9f},{int(failed)}\n")


def layer_metrics(recorder: Recorder, rounds: int) -> dict[str, float]:
    """Per-layer self time, calls and errors for one set-up plus one round.

    Set-up spans count once; job spans are divided by the number of
    traced rounds of the job mix.
    """
    keys = [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls", "errors")]
    keys += [f"{layer}.{fn}.self_s" for layer, fns in FUNCTIONS.items() for fn in fns]
    out = dict.fromkeys(keys, 0.0)
    for job, layer, name, self_s, failed in recorder.self_times():
        weight = 1.0 if job == SETUP else 1.0 / rounds
        out[f"{layer}.self_s"] += self_s * weight
        out[f"{layer}.calls"] += weight
        out[f"{layer}.errors"] += failed * weight
        key = f"{layer}.{name}.self_s"
        if key in out:
            out[key] += self_s * weight
    return out


def root_time(recorder: Recorder) -> float:
    """Total duration of the outermost spans recorded inside jobs.

    Over the summed job latency this is the share of job time that some
    wrapped public function accounts for; the rest is spent outside the
    eight modules (the benchmark's own call and redirection overhead).
    """
    return sum(end - start for job, parent, _, _, start, end, _ in recorder.spans if job != SETUP and parent < 0)
