"""Exactness of the maps at d = 1024 and 1025, and at 2048 and 2049, the sizes the FFT routes are built for.

Each case compares the library's maps with the closed forms of ``oracles``, which build
the table from the number-phase overlaps or the state's anti-diagonals with no FFT core:

- ``wigner_grid`` and a quantizer's ``wigner``, which keeps its chirp phases, against the
  oracle table, on the scale max |K|;
- ``reconstruct`` of the oracle table back to the state, on the scale 1 of a state;
- ``relate_odd`` of the oracle sign-kernel table against the oracle cosine-kernel table,
  on the scale max |K_to / K_from| * max(1, max |W|) = 1.

Every family runs at phi0 = 0, 0.37 and 1e8 with a state of rank 1, 4 and full rank at d = 1024
and 1025, and at phi0 = 0.37 with a state of rank 1 at d = 2048 and 2049.
"""

import functools

import numpy as np
import pytest

import gridwigner as gw
import oracles
from gridwigner.linalg import within

KERNELS = {
    "symmetric": (lambda: gw.symmetric_kernel(512), oracles.wigner_symmetric),
    "wootters": (lambda: gw.wootters_kernel(512), oracles.wigner_wootters),
    "almost-symmetric": (
        lambda: gw.almost_symmetric_kernel(512),
        lambda grid, rho: oracles.wigner_almost_symmetric(grid, rho, gw.default_epsilon(512)),
    ),
    "almost-symmetric-0.3": (
        lambda: gw.almost_symmetric_kernel(512, 0.3),
        lambda grid, rho: oracles.wigner_almost_symmetric(grid, rho, 0.3),
    ),
}
STATES = [(0.0, 1), (0.37, 4), (1e8, None)]  # (phi0, rank), None for full rank


def random_state(d, rank, rng):
    """A random density operator of dimension ``d`` and the given rank (full rank for ``None``)."""
    a = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _dev(a, b):
    return float(np.abs(a - b).max())


KERNELS_2000 = {
    "symmetric": (lambda: gw.symmetric_kernel(1024), oracles.wigner_symmetric),
    "wootters": (lambda: gw.wootters_kernel(1024), oracles.wigner_wootters),
    "almost-symmetric": (
        lambda: gw.almost_symmetric_kernel(1024),
        lambda grid, rho: oracles.wigner_almost_symmetric(grid, rho, gw.default_epsilon(1024)),
    ),
}


@pytest.mark.parametrize("phi0, rank", STATES, ids=["phi0=0-rank1", "phi0=0.37-rank4", "phi0=1e8-full"])
@pytest.mark.parametrize("name", KERNELS)
def test_maps_at_d_near_1000_match_the_closed_forms(name, phi0, rank):
    _check_maps(name, *KERNELS[name], phi0, rank)


@pytest.mark.parametrize("name", KERNELS_2000)
def test_maps_at_d_near_2000_match_the_closed_forms(name):
    _check_maps(name, *KERNELS_2000[name], 0.37, 1)


@functools.lru_cache(maxsize=2)  # at d = 2049 the wootters case reads the symmetric table of its state from the case before
def _closed_form(oracle, dim, phi0, rank):
    """The grid, the seeded state of the given rank and its ``oracle`` table."""
    grid = gw.PhaseGrid(dim, phi0)
    rho = random_state(dim, rank, np.random.default_rng(dim + (rank or 0)))
    return grid, rho, oracle(grid, rho)


@pytest.fixture(scope="module", autouse=True)
def _release_closed_forms():
    yield
    _closed_form.cache_clear()  # the cached grids and tables reach 100 MB each at d = 2049


def _check_maps(name, build, oracle, phi0, rank):
    """Both maps of ``build()`` against ``oracle``, ``reconstruct`` back to the state and, for wootters, ``relate_odd``."""
    kernel = build()
    grid, rho, expected = _closed_form(oracle, kernel.dim, phi0, rank)
    scale = kernel.moduli[1]

    assert within(_dev(gw.wigner_grid(grid, kernel, rho, validate_state=False).values, expected.values), scale)
    q = gw.build_quantizer(grid, kernel, check=False)
    assert within(_dev(gw.wigner(q, rho, validate_state=False).values, expected.values), scale)
    assert "chirp_phases" in vars(q)  # the map read its phases through the quantizer's cache

    assert within(_dev(gw.reconstruct(expected, kernel), rho))

    if name == "wootters":
        symmetric = _closed_form(oracles.wigner_symmetric, kernel.dim, phi0, rank)[2]
        assert within(_dev(gw.relate_odd(expected).values, symmetric.values), max(1.0, np.abs(expected.values).max()))
