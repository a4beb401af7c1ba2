"""The one tolerance rule: a deviation passes when it is at most ``TOL`` times
the scale of what it measures (``linalg.within``).

Sound built-in kernels pass every kernel condition and identity, ``eps``
within 1e-7 of pi/2 included, where the skewed kernel's entries reach 3.7e7.
Defects planted at a relative size of 1e-8 still fail: a pairing or an
edge-line defect in ``validate`` and in CLI ``verify`` for every built-in
family up to d = 1025, and an interior turned by a phase of 1e-6 in
``reconstruct``.  Whatever CLI ``reconstruct`` accepts, the package's own
state loader accepts as well.
"""

import contextlib
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gridwigner as gw
from conftest import planted
from gridwigner import cli

QUARTER = math.pi / 2


def run(*argv):
    return cli.main(list(argv))


def test_the_rule():
    within = gw.linalg.within
    assert within(gw.TOL) and not within(2 * gw.TOL)
    assert within(3e-3, 3.7e7) and not within(4e-3, 3.7e7)
    assert not within(float("nan")) and not within(0.0, float("nan"))


@pytest.mark.parametrize("dim, eps", [(4, "1.5707963"), (6, "1.5707963"), (256, "1.57")])
def test_sound_kernels_near_a_quarter_turn_pass_verify(capsys, dim, eps):
    # entries up to 3.7e7 (d = 4, 6) and 1256 (d = 256): roundoff of that size is no defect
    assert run("verify", "--dim", str(dim), "--kernel", "almost-symmetric", "--epsilon", eps) == 0
    out = capsys.readouterr().out.splitlines()
    assert not [line for line in out if "FAIL" in line]
    kernel = gw.almost_symmetric_kernel(dim // 2, float(eps))
    ratio = kernel.moduli[1] / kernel.moduli[0]
    assert f"kernel conditioning: max|K| / min|K| = {ratio:.3e}" in out


@pytest.mark.parametrize("N", [1, 2, 3])
def test_skewed_wigner_near_a_quarter_turn_is_real(N, tmp_path):
    # the imaginary residue (2.5e-10 at d = 6) is roundoff of entries up to 3.7e7
    grid, kernel = gw.PhaseGrid(2 * N, 0.37), gw.almost_symmetric_kernel(N, 1.5707963)
    w = gw.wigner_grid(grid, kernel, gw.phase_state(2 * N, 1, 0.37))
    assert abs(w.values.sum() - 1.0) <= 1e-12
    argv = ["--dim", str(2 * N), "--kernel", "almost-symmetric", "--epsilon", "1.5707963", "--phi0", "0.37"]
    assert run("wigner", *argv, "--state", "phase", "1", "--out", str(tmp_path / "w.json")) == 0


def test_a_trace_off_by_5e_10_exits_4(tmp_path, capsys):
    # reconstruct's exit 4 and the state loader hold a state to the same tolerance
    grid, kernel = gw.PhaseGrid(5), gw.symmetric_kernel(2)
    w = gw.wigner_grid(grid, kernel, gw.random_density(5, np.random.default_rng(0)))
    grid_file, state_file = tmp_path / "w.json", tmp_path / "s.json"
    gw.wigner_to_json(gw.WignerGrid(grid, kernel.label, w.values + 5e-10 / 25), grid_file)
    assert run("reconstruct", "--grid", str(grid_file), "--out", str(state_file)) == 4
    assert capsys.readouterr().err == "error: round-trip residual 5.000e-10 exceeds tolerance\n"
    with pytest.raises(ValueError, match="trace differs from 1"):
        gw.load_density_json(state_file)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 65),
    phi0=st.floats(-1e8, 1e8),
    seed=st.integers(0, 2**32 - 1),
    pure=st.booleans(),
    shift=st.floats(-12, -8),
    noise=st.floats(-16, -9),
)
def test_what_reconstruct_accepts_the_loader_accepts(tmp_path_factory, d, phi0, seed, pure, shift, noise):
    rng = np.random.default_rng(seed)
    grid = gw.PhaseGrid(d, phi0)
    family = "almost-symmetric" if d % 2 == 0 else ("symmetric", "wootters")[seed % 2]
    kernel, _ = cli._resolve_kernel(family, d, None)
    rho = gw.phase_state(d, seed % d, phi0) if pure else gw.random_density(d, rng)
    values = gw.wigner_grid(grid, kernel, rho).values
    values = values + rng.choice([-1, 1]) * 10**shift / d**2 + 10**noise * rng.standard_normal((d, d))
    folder = tmp_path_factory.mktemp("trip")
    gw.wigner_to_json(gw.WignerGrid(grid, kernel.label, values, kernel.eps), folder / "w.json")
    code = run("reconstruct", "--grid", str(folder / "w.json"), "--out", str(folder / "s.json"))
    assert code in (0, 4)
    if code == 0:
        gw.load_density_json(folder / "s.json")


planted_cases = st.fixed_dictionaries(
    {
        "family": st.sampled_from(("symmetric", "wootters", "almost-symmetric")),
        "half": st.integers(1, 512),
        "eps": st.one_of(
            st.floats(-QUARTER + 1e-7, QUARTER - 1e-7),
            st.sampled_from((1.5707963, QUARTER - 1e-7, -1.5707963)),
        ),
        "defect": st.sampled_from(("pairing", "edge")),
        "seed": st.integers(0, 2**32 - 1),
    }
)


def _planted_case(case):
    """The built-in kernel of the case (d = 2*half + 1, or 2*half for the skewed family) and its planted copy."""
    d = 2 * case["half"] + (case["family"] != "almost-symmetric")
    try:
        kernel, _ = cli._resolve_kernel(case["family"], d, case["eps"])
    except cli.CliError:  # an eps that makes an entry vanish
        assume(False)
    return kernel, planted(kernel, case["defect"], np.random.default_rng(case["seed"]))


@settings(max_examples=60, deadline=None)
@given(planted_cases)
def test_sound_builtins_pass_validate(case):
    assert gw.validate(_planted_case(case)[0]).valid


@settings(max_examples=60, deadline=None)
@given(planted_cases)
def test_validate_fails_planted_defects(case):
    validity = gw.validate(_planted_case(case)[1])
    assert not validity.valid
    if case["defect"] == "pairing":
        assert not validity.hermitian_pairing
    else:
        assert not (validity.first_col_unit and validity.first_row_unit)


@settings(max_examples=8, deadline=None)
@given(planted_cases)
def test_verify_reports_planted_defects(case):
    kernel, broken = _planted_case(case)
    name = "almost_symmetric_kernel" if case["family"] == "almost-symmetric" else f"{case['family']}_kernel"
    argv = ["verify", "--dim", str(kernel.dim), "--kernel", case["family"], f"--epsilon={case['eps']!r}"]
    out = io.StringIO()
    with mock.patch.object(gw.kernels, name, lambda *args: broken), contextlib.redirect_stdout(out):
        assert run(*argv) == 1
    assert [line for line in out.getvalue().splitlines() if line.startswith("kernel ") and line.endswith(": FAIL")]


@pytest.mark.parametrize("d", [17, 65, 257])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reconstruct_refuses_a_turned_interior(d, seed):
    # the anti-Hermitian defect is 6.3e-8, 1.1e-8 and 1.6e-9 of a state of size 1
    kernel = gw.symmetric_kernel(d // 2)
    values = kernel.values.copy()
    values[1:, 1:] *= np.exp(1e-6j)
    grid = gw.PhaseGrid(d, 0.37)
    w = gw.wigner_grid(grid, kernel, gw.random_density(d, np.random.default_rng(seed)))
    with pytest.raises(gw.ReconstructionError, match="anti-Hermitian part"):
        gw.reconstruct(w, gw.Kernel(values, kernel.label))


def test_relate_measures_its_residue_on_the_table_size():
    # a real table of size 1e6 leaves an imaginary residue near 2e-9 at d = 257: roundoff, not a defect
    table = np.random.default_rng(0).standard_normal((257, 257))
    grid = gw.PhaseGrid(257, 0.37)
    small = gw.relate_odd(gw.WignerGrid(grid, "wootters", table)).values
    large = gw.relate_odd(gw.WignerGrid(grid, "wootters", 1e6 * table)).values
    assert np.max(np.abs(large - 1e6 * small)) <= 1e-12 * 1e6 * np.max(np.abs(small))
