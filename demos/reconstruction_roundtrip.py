#!/usr/bin/env python3
"""State reconstruction from Wigner grids, plus file round trips.

Draws random density operators, maps them to Wigner grids with each
built-in kernel, inverts the map, and prints the recovery error.  Also
writes one grid to JSON and CSV to show the on-disk formats.
"""

import tempfile
from pathlib import Path

import numpy as np

import gridwigner as gw

rng = np.random.default_rng(5)

for dim, kernel in [
    (3, gw.symmetric_kernel(1)),
    (5, gw.wootters_kernel(2)),
    (4, gw.almost_symmetric_kernel(2)),
]:
    grid = gw.PhaseGrid(dim, phi0=0.1)
    q = gw.build_quantizer(grid, kernel)
    worst = 0.0
    for _ in range(25):
        rho = gw.random_density(dim, rng)
        w = gw.wigner(q, rho)
        worst = max(worst, gw.frob_dist(gw.reconstruct(w, kernel), rho))
    print(f"{kernel.label} kernel, dim {dim}: worst recovery error {worst:.2e}")

# a unimodular kernel inverts by quantization: rho = dim * quantize(W);
# the cosine-kernel table of the same state inverts through reconstruct
grid = gw.PhaseGrid(5, phi0=0.1)
rho = gw.random_density(5, rng)
q = gw.build_quantizer(grid, gw.wootters_kernel(2))
w = gw.wigner(q, rho)
short = w.dim * gw.quantize(q, w.values)
print(f"unimodular identity error:   {gw.frob_dist(short, rho):.2e}")

w_sym = gw.wigner_grid(grid, gw.symmetric_kernel(2), rho)
closed = gw.reconstruct(w_sym, gw.symmetric_kernel(2))
print(f"cosine kernel error:         {gw.frob_dist(closed, rho):.2e}")

with tempfile.TemporaryDirectory() as tmp:
    json_path = Path(tmp) / "grid.json"
    csv_path = Path(tmp) / "grid.csv"
    gw.wigner_to_json(w, json_path)
    gw.wigner_to_csv(w, csv_path)
    print("\nJSON grid file starts with:")
    print(" ", json_path.read_text()[:80], "...")
    print("CSV grid file starts with:")
    print(" ", "\n  ".join(csv_path.read_text().splitlines()[:3]))
