"""End-to-end tests of the command-line interface and its exit codes."""

import json

import numpy as np
import pytest

import gridwigner as gw
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
        oracle = gw.wigner_wootters(gw.PhaseGrid(5, 0.0), gw.fock_state(5, 2))
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
            w.values, gw.wigner_wootters(gw.PhaseGrid(3), rho).values, atol=1e-12
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
        oracle = gw.wigner_symmetric(gw.PhaseGrid(3), gw.fock_state(3, 0))
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
        w = gw.wigner_symmetric(gw.PhaseGrid(3), rho)
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

    def test_bad_embedding(self):
        assert run(
            "converge", "--kernel", "wootters", "--state", "fock", "5",
            "--n", "0", "--phi", "0", "--Ns", "3,5",
        ) == 5


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
        direct = gw.wigner_symmetric(gw.PhaseGrid(3), gw.fock_state(3, 0))
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

    def test_mixed_constant(self, tmp_path):
        grid_file = tmp_path / "woot.json"
        assert run(
            "wigner", "--dim", "3", "--kernel", "wootters",
            "--state", "mixed", "--out", str(grid_file),
        ) == 0
        out = tmp_path / "sym.json"
        assert run("relate", "--direction", "odd", "--grid", str(grid_file), "--out", str(out)) == 0
        np.testing.assert_allclose(gw.load_wigner(out).values, np.full((3, 3), 1 / 9), atol=1e-12)

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
        gw.wigner_to_json(gw.wigner_symmetric(gw.PhaseGrid(3, 0.2), rho), first)
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


class TestInputBoundary:
    def test_converge_fock_without_level(self, capsys):
        assert run_rejected(
            capsys, "converge", "--kernel", "symmetric", "--state", "fock",
            "--n", "0", "--phi", "0", "--Ns", "5,10",
        ) == 2

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

    @pytest.mark.parametrize("kernel", ["symmetric", "leonhardt"])
    def test_grid_file_with_fractional_dim(self, tmp_path, capsys, kernel):
        grid = write_grid(tmp_path / "g.json", 2.5, kernel, 2, 2)
        assert run_rejected(capsys, "reconstruct", "--grid", grid) == 2

    @pytest.mark.parametrize("kernel", ["wootters", "leonhardt"])
    def test_grid_file_with_nan_phi0(self, tmp_path, capsys, kernel):
        dim, size = (3, 3) if kernel == "wootters" else (2, 4)
        grid = write_grid(tmp_path / "g.json", dim, kernel, size, size, phi0=float("nan"))
        assert run_rejected(capsys, "reconstruct", "--grid", grid) == 2

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

        for module in (gridwigner.cli, gridwigner.states, wigner_module):
            monkeypatch.setattr(module, "check_density", counted)
        state_file = tmp_path / "rho.json"
        gw.save_density_json(gw.random_density(3, rng), state_file)
        for spec in (["fock", "1"], ["phase", "2"], ["mixed"], [str(state_file)]):
            calls.clear()
            assert run(
                "wigner", "--dim", "3", "--kernel", "symmetric", "--state", *spec,
                "--out", str(tmp_path / "w.json"),
            ) == 0
            assert len(calls) == 1, spec


class TestNonNumberEntries:
    """File entries must be JSON numbers: strings and booleans exit with one error line."""

    @staticmethod
    def grid_of(tmp_path, rng, label, entry):
        rho = gw.random_density(4 if label == "leonhardt" else 3, rng)
        if label == "leonhardt":
            values = gw.leonhardt_wigner(2, 0.0, rho).values.tolist()
        else:
            values = gw.wigner_wootters(gw.PhaseGrid(3), rho).values.tolist()
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
    original = json.load

    def counted(fh, *args, **kwargs):
        decoded.append(fh.name)
        return original(fh, *args, **kwargs)

    monkeypatch.setattr(json, "load", counted)
    assert run(*argv, "--grid", grid, "--out", str(tmp_path / "out.json")) == 0
    assert decoded == [grid]


def test_parser_is_built_once():
    from gridwigner.cli import build_parser

    assert build_parser() is build_parser()
