import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def planted(kernel, defect, rng, size=1e-8):
    """``kernel`` with one defect of relative size ``size``: an interior entry moved by
    ``1j * size * max |K|`` (``defect="pairing"``) or an edge entry by ``size``
    (``"edge"``).  Either breaks its condition by ``size`` relative to what it measures."""
    import gridwigner as gw

    d, values = kernel.dim, kernel.values.copy()
    if defect == "pairing":
        k, l = (int(x) for x in rng.integers(1, d, size=2))
        values[k, l] += 1j * size * np.max(np.abs(values))
    else:
        i = int(rng.integers(d))
        values[(0, i) if rng.integers(2) else (i, 0)] += size
    return gw.Kernel(values, kernel.label, kernel.eps)


WRITING = ["wigner-json", "wigner-csv", "reconstruct", "reconstruct-half", "converge", "relate-odd", "relate-even"]


def writing_commands(tmp_path):
    """``{name: argv}`` without ``--out`` for every CLI command that writes a file,
    each valid, over input grids written into ``tmp_path``."""
    import gridwigner as gw
    import oracles

    grid, half = tmp_path / "grid.json", tmp_path / "half.json"
    gw.wigner_to_json(oracles.wigner_wootters(gw.PhaseGrid(5), gw.fock_state(5, 1)), grid)
    gw.halfgrid_to_json(gw.leonhardt_wigner(1, 0.0, gw.qubit_state(0, 0, 1)), half)
    wigner = ["wigner", "--dim", "5", "--kernel", "symmetric", "--state", "fock", "1"]
    commands = {
        "wigner-json": wigner,
        "wigner-csv": [*wigner, "--format", "csv"],
        "reconstruct": ["reconstruct", "--grid", str(grid)],
        "reconstruct-half": ["reconstruct", "--grid", str(half)],
        "converge": ["converge", "--kernel", "symmetric", "--state", "fock", "1", "--n", "1", "--phi", "0.5", "--Ns", "5,10"],
        "relate-odd": ["relate", "--direction", "odd", "--grid", str(grid)],
        "relate-even": ["relate", "--direction", "even", "--grid", str(half)],
    }
    assert list(commands) == WRITING
    return commands
