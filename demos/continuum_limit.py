#!/usr/bin/env python3
"""Scaled grid values against their continuum number-phase targets.

Embeds the two-level superposition (|0> + |1>)(<0| + <1|)/2 into grids
of growing dimension and compares the scaled Wigner values with the
continuum formulas.  The cosine-kernel route converges to the
number-phase Wigner function with the correct phase marginal; the
sign-kernel route converges to a target whose level sum stays flat in
the angle.  Each grid size costs O(support), so a sweep on grids
through the target angle (phi0 = phi) reaches N = 10**5 and separates
the two error sources: the symmetric kernel has none there, while the
skew of the almost-symmetric kernel leaves an O(1/N) error (fitted
log-log slope -1).
"""

import numpy as np

import gridwigner as gw

rho = gw.superposition01()
sizes = [5, 10, 20, 40, 80]

for family, n in [("wootters", 0), ("wootters", 1), ("symmetric", 0)]:
    rep = gw.continuum_study(rho, family, n, phi=0.0, N_list=sizes)
    print(f"{family} kernel, level n={n}, phi=0:")
    for row in rep.rows:
        print(
            f"  N={row.N:3d} dim={row.dim:3d}  scaled={row.scaled_value:.10f}  "
            f"target={row.target:.10f}  err={row.abs_error:.1e}"
        )
    print(f"  errors non-increasing: {rep.monotone()}")

print("\ngrids through phi = 0.9 (phi0 = phi), N = 10 .. 10**5:")
wide = [10**k for k in range(1, 6)]
for family in ("symmetric", "almost-symmetric"):
    rep = gw.continuum_study(rho, family, 0, phi=0.9, N_list=wide, phi0=0.9)
    errs = "  ".join(f"{e:.1e}" for e in rep.errors())
    slope = rep.slope()
    print(f"  {family:16s} errors {errs}  fitted slope {'n/a' if slope is None else f'{slope:.3f}'}")

print("\nmarginal contrast at phi = 0.9:")
phi = 0.9
sign_sum = sum(gw.wootters_target(rho, n, phi) for n in range(12))
np_sum = sum(gw.number_phase_target(rho, n, phi) for n in range(12))
print(f"  sign-kernel target level sum:    {sign_sum:.8f}  (= 1/2pi, angle-independent)")
print(f"  number-phase target level sum:   {np_sum:.8f}")
print(f"  true phase density <phi|rho|phi>: {gw.phase_density(rho, phi):.8f}")
