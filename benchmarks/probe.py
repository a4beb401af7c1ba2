"""One-shot scaling probe: the baseline table of ROADMAP.md, per function and size.

    python3 benchmarks/probe.py [--budget 60] [--out benchmarks/.work/probe.json]

Each cell runs in its own process, one BLAS thread, and is timed around
the one library call.  A cell that does not finish within ``--budget``
seconds is stopped and reported as ``"skipped": "budget"``; the larger
sizes of the same function are then reported the same way without being
started.  No cell is ever left out of the report.  This probe is not a
gated workload: it shows how each function scales with ``d``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

CELLS = (
    ("build_quantizer", (15, 31, 45)),
    ("verify_quantizer", (15, 31, 45)),
    ("wigner_grid", (129, 257, 513)),
    ("reconstruct", (129, 257, 513)),
)

# Runs in a fresh interpreter; prints one JSON object.  Input preparation
# is outside the timed call.  The residual is checked with plain numpy.
CELL_SCRIPT = r"""
import json, resource, sys, time
import numpy as np
sys.path[:0] = [sys.argv[3], sys.argv[4]]
import gridwigner as gw
import gate
fn, d = sys.argv[1], int(sys.argv[2])
rng = np.random.default_rng(d)
phi0 = 0.37
grid = gw.PhaseGrid(d, phi0)
kernel = gw.symmetric_kernel((d - 1) // 2)
rho = gate.random_state(d, rng)
if fn == "verify_quantizer":
    q = gw.build_quantizer(grid, kernel)
if fn == "reconstruct":
    w = gw.WignerGrid(grid, kernel.label, gate.wigner_values("symmetric", rho, phi0))
start = time.perf_counter()
if fn == "build_quantizer":
    out = gw.build_quantizer(grid, kernel)
elif fn == "verify_quantizer":
    out = gw.verify_quantizer(q)
elif fn == "wigner_grid":
    out = gw.wigner_grid(grid, kernel, rho)
else:
    out = gw.reconstruct(w, kernel)
seconds = time.perf_counter() - start
if fn == "build_quantizer":
    residual = abs(np.einsum("mnaa->", out.omega) / d**2 - 1.0)
elif fn == "verify_quantizer":
    residual = max(out.hermiticity_dev, out.trace_dev, out.completeness_dev, out.overlap_dev)
elif fn == "wigner_grid":
    residual = float(np.max(np.abs(out.values - gate.wigner_values("symmetric", rho, phi0))))
else:
    residual = float(np.max(np.abs(out - rho)))
print(json.dumps({"seconds": seconds, "residual": float(residual),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def run_cell(fn: str, d: int, budget: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, "-c", CELL_SCRIPT, fn, str(d), str(SRC), str(HERE)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env) as proc:
        try:
            out, err = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"skipped": "budget"}
    if proc.returncode != 0:
        return {"error": err.strip().splitlines()[-1] if err.strip() else f"exit {proc.returncode}"}
    return json.loads(out.splitlines()[-1])


def probe(budget: float, cells=CELLS) -> list[dict]:
    rows = []
    for fn, sizes in cells:
        over = False
        for d in sizes:
            if over:
                cell = {"skipped": "budget", "note": "a smaller size already exceeded the budget"}
            else:
                cell = run_cell(fn, d, budget)
                over = cell.get("skipped") == "budget"
            rows.append({"function": fn, "d": d, "budget_s": budget, **cell})
            print(json.dumps(rows[-1]), flush=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Scaling probe for the ROADMAP baseline table")
    parser.add_argument("--budget", type=float, default=60.0, help="seconds allowed per cell")
    parser.add_argument("--out", type=Path, default=HERE / ".work" / "probe.json")
    args = parser.parse_args(argv)
    if not (SRC / "gridwigner" / "__init__.py").is_file():
        print(f"error: no gridwigner package under {SRC}", file=sys.stderr)
        return 2
    rows = probe(args.budget)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(rows, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
