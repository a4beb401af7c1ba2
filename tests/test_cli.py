"""End-to-end tests of the command-line interface and its exit codes."""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridwigner as gw
import oracles
from conftest import WRITING, planted, writing_commands
from gridwigner import _jsonio, cli
from gridwigner.cli import main


def run(*argv):
    return main(list(argv))


class TestWignerCommand:
    def test_qubit_grid(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        code = run(
            "wigner",
            "--dim", "2",
            "--kernel", "almost-symmetric",
            "--epsilon", "0.7853981633974483",
            "--state", "qubit", "0", "0", "1",
            "--out", str(out),
        )
        assert code == 0
        w = gw.load_wigner(out)
        np.testing.assert_allclose(w.values, [[0.5, 0], [0.5, 0]], atol=1e-10)
        assert "normalization" in capsys.readouterr().out

    def test_mixed_constant_grid(self, tmp_path):
        out = tmp_path / "m.json"
        assert run(
            "wigner", "--dim", "3", "--kernel", "symmetric",
            "--state", "mixed", "--out", str(out),
        ) == 0
        w = gw.load_wigner(out)
        np.testing.assert_allclose(w.values, np.full((3, 3), 1 / 9), atol=1e-12)

    def test_fock_wootters_grid(self, tmp_path):
        out = tmp_path / "f.json"
        assert run(
            "wigner", "--dim", "5", "--kernel", "wootters",
            "--state", "fock", "2", "--out", str(out),
        ) == 0
        w = gw.load_wigner(out)
        oracle = oracles.wigner_wootters(gw.PhaseGrid(5, 0.0), gw.fock_state(5, 2))
        np.testing.assert_allclose(w.values, oracle.values, atol=1e-12)

    def test_csv_output(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(
            "wigner", "--dim", "3", "--kernel", "symmetric",
            "--state", "fock", "1", "--out", str(out), "--format", "csv",
        ) == 0
        assert out.read_text().startswith("m,n,phi,value\n")

    def test_kernel_dim_mismatch(self):
        assert run(
            "wigner", "--dim", "4", "--kernel", "symmetric", "--state", "mixed"
        ) == 3

    def test_bad_epsilon(self):
        # eps = pi/4 voids an entry at dim 4
        assert run(
            "wigner", "--dim", "4", "--kernel", "almost-symmetric",
            "--epsilon", "0.7853981633974483", "--state", "mixed",
        ) == 3

    def test_invalid_state_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        # trace 2: rejected
        assert run(
            "wigner", "--dim", "2", "--kernel", "almost-symmetric",
            "--state", str(bad),
        ) == 2

    def test_unknown_state(self):
        assert run(
            "wigner", "--dim", "3", "--kernel", "symmetric", "--state", "nonsense"
        ) == 2

    def test_state_file_round(self, tmp_path, rng):
        rho = gw.random_density(3, rng)
        path = tmp_path / "state.json"
        gw.save_density_json(rho, path)
        out = tmp_path / "w.json"
        assert run(
            "wigner", "--dim", "3", "--kernel", "wootters",
            "--state", str(path), "--out", str(out),
        ) == 0
        w = gw.load_wigner(out)
        np.testing.assert_allclose(
            w.values, oracles.wigner_wootters(gw.PhaseGrid(3), rho).values, atol=1e-12
        )

    def test_file_kernel(self, tmp_path):
        kpath = tmp_path / "k.json"
        gw.save_kernel(gw.symmetric_kernel(1), kpath)
        out = tmp_path / "w.json"
        assert run(
            "wigner", "--dim", "3", "--kernel", f"file:{kpath}",
            "--state", "fock", "0", "--out", str(out),
        ) == 0
        w = gw.load_wigner(out)
        oracle = oracles.wigner_symmetric(gw.PhaseGrid(3), gw.fock_state(3, 0))
        np.testing.assert_allclose(w.values, oracle.values, atol=1e-12)


class TestReconstructCommand:
    @pytest.mark.parametrize(
        "dim,kernel,extra",
        [
            (3, "symmetric", ()),
            (5, "wootters", ()),
            (4, "almost-symmetric", ("--epsilon", "0.25")),
        ],
    )
    def test_round_trip(self, dim, kernel, extra, tmp_path, rng):
        rho = gw.random_density(dim, rng)
        state_in = tmp_path / "in.json"
        gw.save_density_json(rho, state_in)
        grid_file = tmp_path / "w.json"
        assert run(
            "wigner", "--dim", str(dim), "--kernel", kernel, *extra,
            "--state", str(state_in), "--out", str(grid_file),
        ) == 0
        state_out = tmp_path / "out.json"
        assert run(
            "reconstruct", "--grid", str(grid_file), "--out", str(state_out)
        ) == 0
        recovered = gw.load_density_json(state_out)
        assert gw.frob_dist(recovered, rho) <= 1e-9

    def test_tampered_grid(self, tmp_path, rng, capsys):
        rho = gw.random_density(3, rng)
        w = oracles.wigner_symmetric(gw.PhaseGrid(3), rho)
        tampered = gw.WignerGrid(
            grid=w.grid, kernel_label="symmetric",
            values=w.values + 0.1 * np.eye(3),
        )
        grid_file = tmp_path / "t.json"
        gw.wigner_to_json(tampered, grid_file)
        code = run("reconstruct", "--grid", str(grid_file), "--out", str(tmp_path / "o.json"))
        assert code == 4
        captured = capsys.readouterr()
        assert "residual" in captured.out
        assert captured.err.startswith("error: round-trip residual")

    def test_leonhardt_half_grid(self, tmp_path, rng):
        rho = gw.random_density(4, rng)
        half = gw.leonhardt_wigner(2, 0.0, rho)
        grid_file = tmp_path / "half.json"
        gw.halfgrid_to_json(half, grid_file)
        state_out = tmp_path / "state.json"
        assert run("reconstruct", "--grid", str(grid_file), "--out", str(state_out)) == 0
        recovered = gw.load_density_json(state_out)
        assert recovered.shape == (4, 4)
        assert gw.frob_dist(recovered, rho) <= 1e-9

    def test_leonhardt_state_file_is_exactly_hermitian(self, tmp_path, capsys, rng):
        # the raw reconstruction is Hermitian only to roundoff; the file holds its
        # hermitized copy, the printed residual takes the raw one's trace and PSD
        # terms and the hermitized copy's round trip
        half = gw.leonhardt_wigner(6, 0.37, gw.random_density(12, rng))
        grid_file, state_out = tmp_path / "half.json", tmp_path / "state.json"
        gw.halfgrid_to_json(half, grid_file)
        assert run("reconstruct", "--grid", str(grid_file), "--out", str(state_out)) == 0
        raw = gw.leonhardt_reconstruct(half)
        rho = (raw + raw.conj().T) / 2.0
        back = gw.leonhardt_wigner(6, 0.37, rho, validate_state=False)
        residual = max(cli._state_residual(raw), float(np.max(np.abs(back.values - half.values))))
        assert capsys.readouterr().out.splitlines()[0] == f"round-trip residual: {residual:.3e}"
        recovered = gw.load_density_json(state_out)
        assert np.array_equal(recovered, recovered.conj().T)
        assert recovered.tobytes() == rho.tobytes()
        assert not np.array_equal(raw, raw.conj().T)

    def test_leonhardt_state_file_of_a_real_state_conjugates_bitwise(self, tmp_path):
        # equal imaginary parts average to +0.0 on both sides of the diagonal: the
        # lower one takes its conjugate's sign, as in the library's reconstruct
        half = gw.leonhardt_wigner(3, 0.0, gw.fock_state(6, 1))
        grid_file, state_out = tmp_path / "half.json", tmp_path / "state.json"
        gw.halfgrid_to_json(half, grid_file)
        assert run("reconstruct", "--grid", str(grid_file), "--out", str(state_out)) == 0
        rec = gw.load_density_json(state_out)
        lower = np.tril_indices(len(rec), -1)
        assert rec[lower].view(np.uint64).tobytes() == rec.T[lower].conj().view(np.uint64).tobytes()
        assert np.all(np.diagonal(rec).imag.view(np.uint64) == 0)  # +0.0

    def test_pure_state_needs_no_eigenvalues(self, tmp_path, monkeypatch):
        # a pure state's reconstruction has no Cholesky factor of its own; the shifted
        # test at the exit threshold decides its PSD term without an eigensolver
        grid_file, state_out = tmp_path / "w.json", tmp_path / "s.json"
        assert run(
            "wigner", "--dim", "257", "--kernel", "wootters", "--phi0", "0.37",
            "--state", "phase", "3", "--out", str(grid_file),
        ) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert run("reconstruct", "--grid", str(grid_file), "--out", str(state_out)) == 0
        rho = gw.phase_state(257, 3, 0.37)
        assert gw.frob_dist(gw.load_density_json(state_out), rho) <= 1e-9

    @pytest.mark.parametrize("dim,kernel", [(5, "symmetric"), (5, "wootters"), (4, "almost-symmetric")])
    def test_kernel_grid_runs_no_forward_map(self, dim, kernel, tmp_path, monkeypatch, rng):
        # reconstruct is the exact inverse of wigner_grid: only the state term decides exit 4
        grid_file = tmp_path / "w.json"
        kernel, _ = cli._resolve_kernel(kernel, dim, None)
        gw.wigner_to_json(gw.wigner_grid(gw.PhaseGrid(dim, 0.37), kernel, gw.random_density(dim, rng)), grid_file)
        calls = []
        for module in (cli, importlib.import_module("gridwigner.wigner")):
            monkeypatch.setattr(module, "wigner_grid", lambda *args, **kwargs: calls.append(args))
        assert run("reconstruct", "--grid", str(grid_file), "--out", str(tmp_path / "s.json")) == 0
        assert calls == []

    def test_huge_kernel_grid_exits_4(self, tmp_path, capsys):
        # finite entries near 1e307 and the file's skew: the reconstruction fails the state term
        rng = np.random.default_rng(22)
        values = rng.standard_normal((4, 4)) * 1e307
        eps, phi0 = rng.uniform(-3, 3), rng.uniform(-10, 10)
        w = gw.WignerGrid(grid=gw.PhaseGrid(4, phi0), kernel_label="almost-symmetric", values=values, epsilon=eps)
        grid_file = tmp_path / "w.json"
        gw.wigner_to_json(w, grid_file)
        assert run_rejected(capsys, "reconstruct", "--grid", str(grid_file), "--out", str(tmp_path / "s.json")) == 4

    def test_overflowing_half_grid_round_trip_exits_4(self, tmp_path, capsys):
        # a checkerboard of +-1e308 sums to 8e308 along the angle axis
        values = np.where(np.add.outer(np.arange(8), np.arange(8)) % 2, 1e308, -1e308)
        grid_file = tmp_path / "half.json"
        gw.halfgrid_to_json(gw.HalfIntegerWignerGrid(n_half=2, phi0=0.0, values=values), grid_file)
        assert run_rejected(capsys, "reconstruct", "--grid", str(grid_file), "--out", str(tmp_path / "s.json")) == 4
        assert not (tmp_path / "s.json").exists()  # a state that is not finite has no JSON file

    def test_non_psd_grid_exits_4(self, tmp_path, rng, capsys):
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        bad = u @ np.diag([0.8, 0.4, -0.2]) @ u.conj().T  # Hermitian, unit trace, not PSD
        grid_file = tmp_path / "w.json"
        gw.wigner_to_json(oracles.wigner_wootters(gw.PhaseGrid(3), bad), grid_file)
        code = run_rejected(capsys, "reconstruct", "--grid", str(grid_file), "--out", str(tmp_path / "s.json"))
        assert code == 4


class TestVerifyCommand:
    def test_symmetric(self, capsys):
        assert run("verify", "--dim", "5", "--kernel", "symmetric") == 0
        out = capsys.readouterr().out
        assert "n/a (kernel not unimodular)" in out
        assert "FAIL" not in out

    def test_wootters_with_lines(self, capsys):
        assert run("verify", "--dim", "3", "--kernel", "wootters") == 0
        out = capsys.readouterr().out
        assert "line projectivity: PASS" in out

    def test_almost_symmetric_even(self, capsys):
        assert run(
            "verify", "--dim", "4", "--kernel", "almost-symmetric",
            "--epsilon", "0.25",
        ) == 0
        out = capsys.readouterr().out
        assert "n/a (even dim)" in out

    @pytest.mark.parametrize("dim, kernel", [(61, "symmetric"), (61, "wootters"), (60, "almost-symmetric")])
    def test_sampled_size(self, capsys, dim, kernel):
        outputs = []
        for _ in range(2):
            assert run("verify", "--dim", str(dim), "--kernel", kernel, "--phi0", "0.37") == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        out = outputs[0]
        assert "FAIL" not in out
        # every operator and every line family is checked at any size: nothing is sampled
        assert "sampled" not in out
        if kernel == "wootters":
            assert "line projectivity: PASS" in out

    @pytest.mark.parametrize("dim, kernel, levels", [(101, "symmetric", 97), (101, "wootters", 97), (100, "almost-symmetric", 98)])
    def test_sampled_levels(self, capsys, dim, kernel, levels):
        # a seeded sample of operators once checked only `levels` of the `dim` levels; now no operator is sampled
        assert run("verify", "--dim", str(dim), "--kernel", kernel, "--phi0", "0.37") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert f"on {levels * dim} of {dim * dim} operators" not in out
        assert [line for line in out.splitlines() if line.startswith("sampled:")] == []

    def test_a_kernel_failing_validity_is_reported_not_raised(self, capsys, monkeypatch, rng):
        # a built-in kernel with a planted pairing defect: verify prints the failed condition
        broken = planted(gw.almost_symmetric_kernel(3, 1.5707963), "pairing", rng)
        monkeypatch.setattr(gw.kernels, "almost_symmetric_kernel", lambda N, eps: broken)
        assert run("verify", "--dim", "6", "--kernel", "almost-symmetric", "--epsilon", "1.5707963") == 1
        captured = capsys.readouterr()
        assert "kernel conjugation pairing: FAIL" in captured.out.splitlines()
        assert captured.err == "verification failed\n"

    def test_every_operator_checked_up_to_45(self, capsys):
        # every operator and every line family at any size: nothing is sampled
        assert run("verify", "--dim", "45", "--kernel", "wootters") == 0
        assert "sampled" not in capsys.readouterr().out


class TestConvergeCommand:
    def test_wootters_superposition(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run(
            "converge", "--kernel", "wootters", "--state", "superposition01",
            "--n", "0", "--phi", "0", "--Ns", "5,10,20,40", "--out", str(out),
        ) == 0
        text = capsys.readouterr().out
        assert "monotone error decrease: yes" in text
        rows = out.read_text().strip().split("\n")[1:]
        target = float(rows[0].split(",")[4])
        assert target == pytest.approx(1 / (4 * np.pi))

    def test_symmetric_superposition(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(
            "converge", "--kernel", "symmetric", "--state", "superposition01",
            "--n", "0", "--phi", "0", "--Ns", "5,10,20,40", "--out", str(out),
        ) == 0
        rows = out.read_text().strip().split("\n")[1:]
        target = float(rows[0].split(",")[4])
        assert target == pytest.approx(1 / (2 * np.pi))

    def test_fock_constant(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(
            "converge", "--kernel", "symmetric", "--state", "fock", "0",
            "--n", "0", "--phi", "1.0", "--Ns", "5,10,20", "--out", str(out),
        ) == 0
        for line in out.read_text().strip().split("\n")[1:]:
            assert float(line.split(",")[3]) == pytest.approx(1 / (2 * np.pi), abs=1e-12)

    @pytest.mark.parametrize("kernel, slope", [
        ("symmetric", "fitted error slope: n/a"), ("almost-symmetric", "fitted error slope: -1.000"),
    ])
    def test_grid_through_phi_to_a_million(self, kernel, slope, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run(
            "converge", "--kernel", kernel, "--state", "superposition01", "--n", "0", "--phi", "0.7",
            "--phi0", "0.7", "--Ns", "100,1000,10000,100000,1000000", "--out", str(out),
        ) == 0
        assert capsys.readouterr().out.splitlines()[-3:-1] == ["monotone error decrease: yes", slope]
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert [float(row[2]) for row in rows] == [0.7] * 5
        if kernel == "symmetric":
            assert max(float(row[5]) for row in rows) < 1e-14

    @pytest.mark.parametrize("kernel", ["symmetric", "almost-symmetric", "wootters"])
    def test_grid_size_beyond_int64(self, kernel, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run(
            "converge", "--kernel", kernel, "--state", "superposition01", "--n", "0",
            "--phi", "0.7", "--Ns", "100,100000000000000000000", "--out", str(out),
        ) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert int(rows[1][0]) == 10**20
        assert float(rows[1][5]) < 1e-12

    def test_bad_embedding(self):
        assert run(
            "converge", "--kernel", "wootters", "--state", "fock", "5",
            "--n", "0", "--phi", "0", "--Ns", "3,5",
        ) == 5

    @pytest.mark.parametrize("angles", [
        ["--phi", "1e307"], ["--phi", "0", "--phi0", "1e308"], ["--phi=-1e308", "--phi0", "1e308"],
    ])
    def test_huge_angles_give_one_row_per_size(self, angles, tmp_path, capsys):
        # the nearest grid index used to form (phi - phi0) * dim, which overflows
        out = tmp_path / "c.csv"
        assert run(
            "converge", "--kernel", "symmetric", "--state", "superposition01", "--n", "0",
            *angles, "--Ns", "5,10", "--out", str(out),
        ) == 0
        assert capsys.readouterr().err == ""
        assert [row.split(",")[0] for row in out.read_text().strip().split("\n")[1:]] == ["5", "10"]

    @pytest.mark.parametrize("kernel", ["symmetric", "almost-symmetric", "wootters"])
    def test_large_phi0_gives_the_rows_of_its_reduced_angle(self, kernel, tmp_path):
        # at phi0 = 1e20 the grid angles lost 2 pi m / dim: error 1.5e-2 at every N, slope 0
        rows = {}
        for phi0 in (1e20, math.remainder(1e20, 2 * math.pi)):
            out = tmp_path / "c.csv"
            assert run(
                "converge", "--kernel", kernel, "--state", "superposition01", "--n", "0",
                "--phi", "0.3", f"--phi0={phi0!r}", "--Ns", "5,10,20,40,80", "--out", str(out),
            ) == 0
            rows[phi0] = np.array([[float(v) for v in line.split(",")] for line in out.read_text().split()[1:]])
        far, near = rows.values()
        assert np.array_equal(far[:, :2], near[:, :2])
        np.testing.assert_allclose(far[:, 3:], near[:, 3:], rtol=0, atol=1e-12)


class TestRelateCommand:
    def test_odd_relation(self, tmp_path, capsys):
        grid_file = tmp_path / "woot.json"
        assert run(
            "wigner", "--dim", "3", "--kernel", "wootters",
            "--state", "fock", "0", "--out", str(grid_file),
        ) == 0
        out = tmp_path / "sym.json"
        assert run(
            "relate", "--direction", "odd", "--grid", str(grid_file),
            "--state", "fock", "0", "--out", str(out),
        ) == 0
        text = capsys.readouterr().out
        assert "max deviation vs direct" in text
        w = gw.load_wigner(out)
        direct = oracles.wigner_symmetric(gw.PhaseGrid(3), gw.fock_state(3, 0))
        np.testing.assert_allclose(w.values, direct.values, atol=1e-10)

    def test_even_relation_qubit(self, tmp_path):
        half = gw.leonhardt_wigner(1, 0.0, gw.qubit_state(0, 0, 1))
        grid_file = tmp_path / "half.json"
        gw.halfgrid_to_json(half, grid_file)
        out = tmp_path / "even.json"
        assert run(
            "relate", "--direction", "even", "--grid", str(grid_file),
            "--epsilon", "0.7853981633974483", "--out", str(out),
        ) == 0
        w = gw.load_wigner(out)
        np.testing.assert_allclose(w.values, [[0.5, 0], [0.5, 0]], atol=1e-10)

    def test_a_state_is_compared_on_the_kernel_of_the_related_grid(self, tmp_path, capsys, rng):
        rho = gw.random_density(4, rng)
        grid_file, state_file = tmp_path / "half.json", tmp_path / "rho.json"
        gw.halfgrid_to_json(gw.leonhardt_wigner(2, 0.3, rho), grid_file)
        gw.save_density_json(rho, state_file)
        for eps in ([], ["--epsilon", "0.6"]):  # the default is 1/dim = 0.25
            assert run(
                "relate", "--direction", "even", "--grid", str(grid_file), *eps,
                "--state", str(state_file), "--out", str(tmp_path / "r.json"),
            ) == 0
            deviation = capsys.readouterr().out.split("max deviation vs direct: ")[1].split()[0]
            assert float(deviation) <= 1e-12

    def test_mixed_constant(self, tmp_path):
        grid_file = tmp_path / "woot.json"
        assert run(
            "wigner", "--dim", "3", "--kernel", "wootters",
            "--state", "mixed", "--out", str(grid_file),
        ) == 0
        out = tmp_path / "sym.json"
        assert run("relate", "--direction", "odd", "--grid", str(grid_file), "--out", str(out)) == 0
        np.testing.assert_allclose(gw.load_wigner(out).values, np.full((3, 3), 1 / 9), atol=1e-12)

    @pytest.mark.parametrize("state", [[], ["--state", "mixed"]])
    def test_even_relation_refuses_an_epsilon_with_a_vanishing_entry(self, tmp_path, capsys, rng, state):
        # eps = pi/4 voids an entry at dim 4: the related grid could not be reconstructed
        grid_file = tmp_path / "half.json"
        gw.halfgrid_to_json(gw.leonhardt_wigner(2, 0.0, gw.random_density(4, rng)), grid_file)
        out = tmp_path / "related.json"
        assert run_rejected(
            capsys, "relate", "--direction", "even", "--grid", str(grid_file),
            "--epsilon", "0.7853981633974483", *state, "--out", str(out),
        ) == 3
        assert not out.exists()

    def test_kernel_mismatch(self, tmp_path):
        grid_file = tmp_path / "sym.json"
        assert run(
            "wigner", "--dim", "3", "--kernel", "symmetric",
            "--state", "mixed", "--out", str(grid_file),
        ) == 0
        assert run("relate", "--direction", "odd", "--grid", str(grid_file)) == 3


class TestJsonStability:
    def test_grid_files_rewrite_identically(self, tmp_path, rng):
        rho = gw.random_density(3, rng)
        first = tmp_path / "a.json"
        gw.wigner_to_json(oracles.wigner_symmetric(gw.PhaseGrid(3, 0.2), rho), first)
        second = tmp_path / "b.json"
        gw.wigner_to_json(gw.load_wigner(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_density_files_rewrite_identically(self, tmp_path, rng):
        rho = gw.random_density(4, rng)
        first = tmp_path / "a.json"
        gw.save_density_json(rho, first)
        second = tmp_path / "b.json"
        gw.save_density_json(gw.load_density_json(first), second)
        assert first.read_bytes() == second.read_bytes()


def test_a_closed_stdout_ends_quietly():
    # ``gridwigner verify ... | head -1`` once the reader has gone: no traceback, exit 141 as by SIGPIPE
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(Path(gw.__file__).parents[1])}
    argv = [sys.executable, "-m", "gridwigner.cli", "verify", "--dim", "45", "--kernel", "wootters"]
    proc = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, env=env)
    os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def run_rejected(capsys, *argv):
    """Run a command expected to fail; its stderr must be one ``error:`` line."""
    code = run(*argv)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert "Traceback" not in err
    return code


def write_grid(path, dim, kernel, rows, cols, phi0=0.0):
    path.write_text(json.dumps(
        {"dim": dim, "phi0": phi0, "kernel": kernel, "values": np.full((rows, cols), 0.1).tolist()}
    ))
    return str(path)


@pytest.mark.parametrize("kernel", ["symmetric", "wootters"])
def test_wigner_at_odd_dim_builds_no_kernel_table(tmp_path, monkeypatch, kernel):
    """``wigner`` maps a state through the chirp form of an odd-dimension kernel: it reads no
    kernel table and builds no sheared weights."""
    def refuse(*args):
        raise AssertionError("a kernel table was built")

    monkeypatch.setattr(importlib.import_module("gridwigner.kernels")._ChirpKernel, "values", property(refuse))
    monkeypatch.setattr(importlib.import_module("gridwigner.quantizer"), "_sheared_weights", refuse)
    out = tmp_path / "w.json"
    assert run("wigner", "--dim", "9", "--kernel", kernel, "--state", "phase", "2", "--out", str(out)) == 0
    assert gw.load_wigner(out).kernel_label == kernel


class TestInputBoundary:
    def test_converge_fock_without_level(self, capsys):
        assert run_rejected(
            capsys, "converge", "--kernel", "symmetric", "--state", "fock",
            "--n", "0", "--phi", "0", "--Ns", "5,10",
        ) == 2

    def test_converge_refuses_a_negative_fock_level_by_name(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the number state was built")

        monkeypatch.setattr(cli, "fock_state", refuse)
        assert run(*"converge --kernel symmetric --state fock -1 --n 0 --phi 0 --Ns 5".split()) == 2
        assert capsys.readouterr().err == "error: bad state spec 'fock -1': number level -1 is negative\n"

    @pytest.mark.parametrize("kernel, dim, size", [
        ("symmetric", 3, 2), ("wootters", 5, 3), ("leonhardt", 4, 5),
    ])
    def test_reconstruct_table_not_matching_dim(self, tmp_path, capsys, kernel, dim, size):
        grid = write_grid(tmp_path / "g.json", dim, kernel, size, size)
        assert run_rejected(capsys, "reconstruct", "--grid", grid) == 2

    @pytest.mark.parametrize("direction, kernel, dim, size", [
        ("odd", "wootters", 5, 3), ("even", "leonhardt", 4, 6),
    ])
    def test_relate_table_not_matching_dim(self, tmp_path, capsys, direction, kernel, dim, size):
        grid = write_grid(tmp_path / "g.json", dim, kernel, size, size + 1)
        assert run_rejected(capsys, "relate", "--direction", direction, "--grid", grid) == 2

    @pytest.mark.parametrize("direction, kernel, dim, wanted", [
        ("odd", "leonhardt", 4, "a wootters grid"), ("even", "wootters", 3, "a leonhardt half grid"),
    ])
    def test_relate_checks_the_label_before_the_table(self, tmp_path, capsys, direction, kernel, dim, wanted):
        # a malformed table under the wrong label exits 3 for the label, not 2 for the table
        grid = tmp_path / "g.json"
        grid.write_text(json.dumps({"dim": dim, "phi0": 0.0, "kernel": kernel, "values": [["x"]]}))
        assert run("relate", "--direction", direction, "--grid", str(grid), "--out", str(tmp_path / "r.json")) == 3
        assert capsys.readouterr().err == f"error: {direction} relation needs {wanted}, got kernel {kernel!r}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("label", [5, None])
    @pytest.mark.parametrize("argv", [["reconstruct"], ["relate", "--direction", "odd"], ["relate", "--direction", "even"]])
    def test_grid_label_that_is_not_a_string(self, tmp_path, capsys, label, argv):
        grid = write_grid(tmp_path / "g.json", 4, label, 4, 4)
        assert run_rejected(capsys, *argv, "--grid", grid, "--out", str(tmp_path / "o.json")) == 2
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("argv, code", [
        (["wigner", "--dim", "3", "--kernel", "symmetric", "--out", "o.json", "--state", "{}"], 2),
        (["verify", "--dim", "3", "--kernel", "file:{}"], 3),
        (["reconstruct", "--out", "o.json", "--grid", "{}"], 2),
        (["relate", "--direction", "even", "--out", "o.json", "--grid", "{}"], 2),
    ])
    def test_a_file_whose_top_level_is_not_an_object(self, tmp_path, capsys, monkeypatch, argv, code):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.json").write_text("[1, 2]")
        assert run_rejected(capsys, *argv[:-1], argv[-1].format("f.json")) == code
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("kernel", ["symmetric", "leonhardt"])
    def test_grid_file_with_fractional_dim(self, tmp_path, capsys, kernel):
        grid = write_grid(tmp_path / "g.json", 2.5, kernel, 2, 2)
        assert run_rejected(capsys, "reconstruct", "--grid", grid) == 2

    @pytest.mark.parametrize("kernel", ["wootters", "leonhardt"])
    def test_grid_file_with_nan_phi0(self, tmp_path, capsys, kernel):
        dim, size = (3, 3) if kernel == "wootters" else (2, 4)
        grid = write_grid(tmp_path / "g.json", dim, kernel, size, size, phi0=float("nan"))
        assert run_rejected(capsys, "reconstruct", "--grid", grid) == 2

    @pytest.mark.parametrize("kernel, dim, size", [("leonhardt", 2, 4), ("wootters", 3, 3)])
    def test_reconstruct_grid_of_huge_values(self, tmp_path, capsys, rng, kernel, dim, size):
        # the imaginary roundoff of the re-mapped table grows with its entries
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "dim": dim, "phi0": 0.0, "kernel": kernel,
            "values": (1e299 * rng.standard_normal((size, size))).tolist(),
        }))
        assert run_rejected(capsys, "reconstruct", "--grid", str(path), "--out", str(tmp_path / "s.json")) == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_phi0(self, tmp_path, capsys, value):
        out = str(tmp_path / "w.json")
        assert run_rejected(
            capsys, "wigner", "--dim", "3", "--kernel", "symmetric",
            f"--phi0={value}", "--state", "mixed", "--out", out,
        ) == 3
        assert run_rejected(capsys, "verify", "--dim", "3", "--kernel", "wootters", f"--phi0={value}") == 3
        assert run_rejected(
            capsys, "converge", "--kernel", "symmetric", "--state", "superposition01",
            "--n", "0", "--phi", "0", "--Ns", "5,10", f"--phi0={value}",
        ) == 5

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_state_file_with_non_finite_entry(self, tmp_path, capsys, bad):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"dim": 2, "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [bad, 0.0]]]}))
        code = run("wigner", "--dim", "2", "--kernel", "almost-symmetric",
                   "--state", str(path), "--out", str(tmp_path / "w.json"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ") and "non-finite entries" in err, err

    def test_converge_without_grid_sizes(self, capsys):
        assert run_rejected(
            capsys, "converge", "--kernel", "symmetric", "--state", "superposition01",
            "--n", "0", "--phi", "0", "--Ns=",
        ) == 5

    def test_kernel_file_of_wrong_json_type(self, tmp_path, capsys):
        kpath = tmp_path / "k.json"
        kpath.write_text("null")
        assert run_rejected(capsys, "verify", "--dim", "3", "--kernel", f"file:{kpath}") == 3

    def test_reconstruct_kernel_not_matching_grid_label(self, tmp_path, capsys):
        kpath = tmp_path / "k.json"
        gw.save_kernel(gw.symmetric_kernel(1), kpath)
        grid = write_grid(tmp_path / "g.json", 3, "custom", 3, 3)
        assert run_rejected(capsys, "reconstruct", "--grid", grid, "--kernel", f"file:{kpath}") == 3

    def test_reconstruct_kernel_not_matching_grid_epsilon(self, tmp_path, capsys):
        # the grid records a skew that its symmetric kernel does not have
        grid = tmp_path / "g.json"
        grid.write_text(json.dumps({"dim": 3, "kernel": "symmetric", "epsilon": 0.3, "values": np.full((3, 3), 1 / 9).tolist()}))
        assert run_rejected(capsys, "reconstruct", "--grid", str(grid)) == 3

    @pytest.mark.parametrize("extra", [
        ("--kernel", "wootters", "--dim", "5", "--phi0=1e10"),
        ("--kernel", "almost-symmetric", "--dim", "4", "--epsilon=1e300"),
    ])
    def test_verify_with_a_large_angle(self, capsys, extra):
        assert run("verify", *extra) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_non_finite_epsilon(self, capsys):
        assert run_rejected(
            capsys, "wigner", "--dim", "4", "--kernel", "almost-symmetric",
            "--epsilon", "nan", "--state", "mixed",
        ) == 3

    @pytest.mark.parametrize("kernel", ["symmetric", "wootters"])
    @pytest.mark.parametrize("command", ["wigner", "verify"])
    def test_an_odd_family_refuses_a_skew(self, tmp_path, capsys, command, kernel):
        # an odd family's kernel has no skew to take: refused, not dropped
        out = tmp_path / "w.json"
        extra = ["--state", "mixed", "--out", str(out)] if command == "wigner" else []
        assert run(command, "--dim", "5", "--kernel", kernel, "--epsilon", "0.3", *extra) == 3
        assert capsys.readouterr().err == f"error: kernel {kernel!r} takes no skew angle, got eps=0.3\n"
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["nan", "0.3"])
    def test_the_odd_relation_refuses_a_skew(self, tmp_path, capsys, eps):
        # relate --direction odd reads a wootters grid: its family takes no skew either
        grid, out = tmp_path / "woot.json", tmp_path / "rel.json"
        assert run("wigner", "--dim", "5", "--kernel", "wootters", "--state", "mixed", "--out", str(grid)) == 0
        capsys.readouterr()
        argv = ["relate", "--direction", "odd", "--grid", str(grid), "--epsilon", eps, "--state", "mixed", "--out", str(out)]
        assert run(*argv) == 3
        assert capsys.readouterr().err == f"error: kernel 'wootters' takes no skew angle, got eps={float(eps)!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec", [
        ["fock", "1", "junk"], ["mixed", "7"], ["phase", "0", "0"], ["superposition01", "x"], ["file", "extra"],
        ["qubit", "0", "0", "1", "1"],
    ])
    def test_tokens_after_a_complete_state_spec_exit_2(self, tmp_path, capsys, rng, spec):
        dim, kernel = ("2", "almost-symmetric") if spec[0] == "qubit" else ("3", "symmetric")
        if spec[0] == "file":
            spec = [str(tmp_path / "rho.json"), *spec[1:]]
            gw.save_density_json(gw.random_density(3, rng), spec[0])
        out = str(tmp_path / "w.json")
        assert run("wigner", "--dim", dim, "--kernel", kernel, "--state", *spec, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: bad state spec") and "unexpected" in err, err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("spec", [["fock", "1", "2"], ["superposition01", "0"], ["file", "0"]])
    def test_converge_refuses_tokens_after_its_state_spec(self, tmp_path, capsys, rng, spec):
        if spec[0] == "file":
            spec = [str(tmp_path / "rho.json"), *spec[1:]]
            gw.save_density_json(gw.random_density(2, rng), spec[0])
        assert run_rejected(
            capsys, "converge", "--kernel", "symmetric", "--state", *spec,
            "--n", "0", "--phi", "0", "--Ns", "5,10", "--out", str(tmp_path / "c.csv"),
        ) == 2

    def test_each_state_is_validated_once(self, tmp_path, monkeypatch, rng):
        import sys

        import gridwigner.cli
        import gridwigner.states

        wigner_module = sys.modules["gridwigner.wigner"]  # the package attribute is the function
        calls = []
        original = wigner_module.check_density

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (gridwigner.states, wigner_module):
            monkeypatch.setattr(module, "check_density", counted)
        assert not hasattr(gridwigner.cli, "check_density")
        state_file = tmp_path / "rho.json"
        gw.save_density_json(gw.random_density(3, rng), state_file)
        # a generated state is exact by construction (see test_core); a state file is checked on loading
        for spec, checks in ((["fock", "1"], 0), (["phase", "2"], 0), (["mixed"], 0), ([str(state_file)], 1)):
            calls.clear()
            assert run(
                "wigner", "--dim", "3", "--kernel", "symmetric", "--state", *spec,
                "--out", str(tmp_path / "w.json"),
            ) == 0
            assert len(calls) == checks, spec


@pytest.mark.parametrize("command", WRITING)
@pytest.mark.parametrize("target, reason", [("", "Is a directory"), ("missing/out", "No such file or directory")])
def test_unwritable_out_exits_6_with_one_error_line(tmp_path, capsys, command, target, reason):
    argv = writing_commands(tmp_path)[command]
    out = tmp_path / target
    assert run(*argv, "--out", str(out)) == cli.EXIT_WRITE
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
    assert not (tmp_path / "missing").exists()


def test_verify_validates_a_file_kernel_once(tmp_path, monkeypatch, capsys):
    calls = []
    original = cli.validate

    def counted(kernel, *args, **kwargs):
        calls.append(kernel.label)
        return original(kernel, *args, **kwargs)

    monkeypatch.setattr(cli, "validate", counted)
    path = tmp_path / "k.json"
    gw.save_kernel(gw.wootters_kernel(2), path)
    assert run("verify", "--dim", "5", "--kernel", f"file:{path}") == 0
    assert calls == ["file"]
    assert "kernel nonvanishing: PASS" in capsys.readouterr().out.splitlines()
    calls.clear()
    assert run("verify", "--dim", "5", "--kernel", "wootters") == 0
    assert calls == ["wootters"]
    bad = gw.wootters_kernel(2).values.copy()
    bad[0, 1] = 0.5
    gw.save_kernel(gw.Kernel(bad), path)
    calls.clear()
    capsys.readouterr()
    assert run("verify", "--dim", "5", "--kernel", f"file:{path}") == 3
    assert capsys.readouterr().err == "error: kernel file fails the validity conditions\n"
    assert calls == ["file"]


class TestStderrLines:
    """Standard error holds the ``error:`` line of a failure and ``warning:`` lines, nothing else."""

    def test_overflowing_half_grid_prints_no_numpy_warning(self, tmp_path, capsys):
        # a +-1e308 checkerboard overflows the transforms; numpy flags it, the exit code says it
        values = 1e308 * (-1.0) ** np.add.outer(np.arange(8), np.arange(8))
        grid_file = tmp_path / "half.json"
        grid_file.write_text(json.dumps({"dim": 4, "phi0": 0.0, "kernel": "leonhardt", "values": values.tolist()}))
        assert run_rejected(capsys, "reconstruct", "--grid", str(grid_file), "--out", str(tmp_path / "s.json")) == 4

    def test_ill_conditioned_kernel_is_one_warning_line(self, tmp_path, capsys):
        grid_file = tmp_path / "g.json"
        argv = ["--dim", "4", "--kernel", "almost-symmetric", "--epsilon", "0.785398", "--state", "mixed"]
        assert run("wigner", *argv, "--out", str(grid_file)) == 0
        capsys.readouterr()
        assert run("reconstruct", "--grid", str(grid_file), "--out", str(tmp_path / "s.json")) == 0
        assert capsys.readouterr().err == "warning: kernel inversion is ill-conditioned (min |K| = 2.311e-07)\n"

    def test_malformed_command_line_is_one_error_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("verify", "--dim", "x", "--kernel", "wootters")
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: argument --dim: invalid int value: 'x'\n"

    @pytest.mark.parametrize(
        "message, line",
        [("Unable to allocate 74.5 GiB", "error: Unable to allocate 74.5 GiB\n"), ("", "error: out of memory\n")],
    )
    @pytest.mark.parametrize(
        "argv, allocating",
        [
            ("verify --dim 100001 --kernel wootters", "wootters_kernel"),
            ("converge --kernel symmetric --state fock 40000 --n 0 --phi 0 --Ns 40001", "fock_state"),
        ],
    )
    def test_a_size_the_host_cannot_hold_is_one_error_line(self, monkeypatch, capsys, argv, allocating, message, line):
        # the refused allocation is planted: a real one may be granted and written on an overcommitting host
        def refuse(*args):
            raise MemoryError(message)

        monkeypatch.setattr(gw.kernels if allocating == "wootters_kernel" else cli, allocating, refuse)
        assert run(*argv.split()) == 3
        assert capsys.readouterr().err == line

    def test_a_fock_level_too_close_to_the_grid_sizes_is_refused_before_its_table(self, monkeypatch, capsys):
        # the support rule of the continuum study, applied before the (40001, 40001) table
        def refuse(*args):
            raise AssertionError("the number state was built")

        monkeypatch.setattr(cli, "fock_state", refuse)
        argv = "converge --kernel symmetric --state fock 40000 --n 0 --phi 0 --Ns 5"
        assert run(*argv.split()) == 5
        assert capsys.readouterr().err == "error: state support 40000 plus query level 0 too close to N=5\n"

    def test_a_fock_level_beyond_the_grid_is_refused_before_any_table(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "fock_state", lambda dim, n: built.append((dim, n)) or gw.fock_state(dim, n))
        assert run_rejected(capsys, *"wigner --dim 5 --kernel symmetric --state fock 40000".split()) == 2
        assert built == [(5, 40000)]


class TestNonNumberEntries:
    """File entries must be JSON numbers: strings and booleans exit with one error line."""

    @staticmethod
    def grid_of(tmp_path, rng, label, entry):
        rho = gw.random_density(4 if label == "leonhardt" else 3, rng)
        if label == "leonhardt":
            values = gw.leonhardt_wigner(2, 0.0, rho).values.tolist()
        else:
            values = oracles.wigner_wootters(gw.PhaseGrid(3), rho).values.tolist()
        values[0] = [entry(v) for v in values[0]]
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"dim": len(rho), "phi0": 0.0, "kernel": label, "values": values}))
        return str(path)

    @pytest.mark.parametrize("label", ["wootters", "leonhardt"])
    @pytest.mark.parametrize("entry", [str, lambda v: True])
    def test_reconstruct_rejects_grid_entries(self, tmp_path, capsys, rng, label, entry):
        grid = self.grid_of(tmp_path, rng, label, entry)
        assert run_rejected(capsys, "reconstruct", "--grid", grid, "--out", str(tmp_path / "s.json")) == 2

    @pytest.mark.parametrize("direction, label", [("odd", "wootters"), ("even", "leonhardt")])
    def test_relate_rejects_string_entries(self, tmp_path, capsys, rng, direction, label):
        grid = self.grid_of(tmp_path, rng, label, str)
        assert run_rejected(
            capsys, "relate", "--direction", direction, "--grid", grid, "--out", str(tmp_path / "r.json")
        ) == 2

    @pytest.mark.parametrize("entry", ["0.5", True])
    def test_wigner_rejects_state_entries(self, tmp_path, capsys, entry):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"dim": 2, "matrix": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [entry, 0.0]]]}))
        assert run_rejected(
            capsys, "wigner", "--dim", "2", "--kernel", "almost-symmetric",
            "--state", str(path), "--out", str(tmp_path / "w.json"),
        ) == 2

    def test_verify_rejects_string_kernel_entries(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        gw.save_kernel(gw.wootters_kernel(1), path)
        path.write_text(path.read_text().replace("1.0", '"1.0"', 1))
        assert run_rejected(capsys, "verify", "--dim", "3", "--kernel", f"file:{path}") == 3


@pytest.mark.parametrize("argv, label", [
    (["reconstruct"], "wootters"), (["reconstruct"], "leonhardt"),
    (["relate", "--direction", "odd"], "wootters"), (["relate", "--direction", "even"], "leonhardt"),
])
def test_grid_file_is_decoded_once(tmp_path, monkeypatch, rng, argv, label):
    grid = TestNonNumberEntries.grid_of(tmp_path, rng, label, float)
    decoded = []

    def counted(file, mode="r", *args, **kwargs):
        if "r" in mode:
            decoded.append(str(file))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(_jsonio, "open", counted, raising=False)
    assert run(*argv, "--grid", grid, "--out", str(tmp_path / "out.json")) == 0
    assert decoded == [grid]


def test_parser_is_built_once():
    from gridwigner.cli import build_parser

    assert build_parser() is build_parser()
