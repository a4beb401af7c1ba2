#!/usr/bin/env python3
"""Wigner function of a qubit on the 2x2 phase-space grid.

Builds the skewed-cosine kernel at the quarter-turn angle, where the
phase-point operators coincide with the classic qubit set, and prints the
four Wigner values for a few Bloch vectors.
"""

import numpy as np

import gridwigner as gw

grid = gw.PhaseGrid(2, phi0=0.0)
kernel = gw.almost_symmetric_kernel(1, np.pi / 4)
quantizer = gw.build_quantizer(grid, kernel)

print("phase-point operators (quarter-turn skew, phi0 = 0):")
for m in range(2):
    for n in range(2):
        # quantize averages f * Omega over the grid: dim times a one-point indicator
        point = np.zeros((2, 2))
        point[m, n] = grid.dim
        print(f"  Omega(phi_{m}, {n}) =")
        print(np.round(gw.quantize(quantizer, point), 6))

for bloch in [(0, 0, 1), (1, 0, 0), (0, 1, 0), (0.3, -0.4, 0.5)]:
    rho = gw.qubit_state(*bloch)
    w = gw.wigner(quantizer, rho)
    print(f"\nBloch vector {bloch}:")
    print(f"  values = {np.round(w.values.ravel(), 6)}")
    print(f"  total  = {w.values.sum():.12f}")
    phase_m, number_m = gw.marginals(w)
    print(f"  phase marginal  = {np.round(phase_m, 6)}")
    print(f"  number marginal = {np.round(number_m, 6)}")
