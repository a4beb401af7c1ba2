"""Byte-identity battery of the command line and the table writers: one tree against another.

Run from the root of a checkout:

    python tests/output_battery.py                          # this tree against itself
    python tests/output_battery.py --parent /path/to/tree   # against another checkout, e.g. from git archive
    python tests/output_battery.py --limit 3 --fuzz 0       # the first three cases only
    python tests/output_battery.py --parent TREE --expect tests/output_battery.expect

Each tree runs the same cases in a process of its own, in a scratch directory of its own:
the process imports ``gridwigner`` from the tree's ``src`` and calls ``gridwigner.cli.main``
in-process, with relative paths so that the messages of both trees read alike.  A case
records its exit code, stdout, stderr and the sha256 of every file it writes.  The battery
prints each case on which the trees differ, and exits 1 if there is one.  With ``--expect FILE``,
a list of case names (one a line) that a change means to alter, it exits 0 only if exactly the
listed cases differ, and names every listed case that does not.

The cases, in order:

- ``wigner`` of every family at every dimension of ``WIGNER_DIMS`` that the family takes,
  for a Fock, a phase, the maximally mixed and a random state (a state file), at phi0 0 and
  0.37, in JSON and CSV;
- ``reconstruct`` of random states' grids up to d = 257, and of half-integer grids;
- ``relate``, odd and even, with and without the direct check against a state file;
- ``verify`` of every family at every dimension of 2..31 that the family takes, at phi0 0
  and 0.37;
- ``converge`` of every family for ``superposition01``, a Fock state and a state file, off
  and on the grid through the target angle;
- ``file:`` kernels through ``wigner``, ``verify`` and ``reconstruct --kernel``: valid tables
  that no family builds, and one whose min |K| of about 1e-7 prints the conditioning warning;
- the family rule's refusals and their neighbours: ``wigner`` and ``verify`` of every family at
  ``--dim`` -1..5, ``verify`` of the odd families with ``--epsilon 0.3``, ``reconstruct`` of hand-written
  grid files whose label and ``dim`` may disagree in parity and of a symmetric grid with ``--epsilon
  0.3``, ``relate odd`` of hand-written sign-kernel grids at d = 1..4 and ``relate even`` at
  admitted and refused skews, each with and without ``--state``, and ``converge`` of every family
  at grid sizes from 2 to 99999;
- ``--fuzz`` tables (3000 by default) through the writers of ``gridwigner._jsonio``: real
  and ``[re, im]`` tables and CSV grids on both sides of ``VECTOR_MIN`` and of one block,
  with runs of equal rows, exactly Hermitian pairs, signed zeros, subnormals and, where a
  format writes them, nan and the infinities.

State files, half-integer grids and kernel files are written by this script (the grids and
kernels with the library's own maps and writer, their files compared as cases too), so both
trees read the same inputs.
This file needs only the standard library and numpy, and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TREE = Path(__file__).resolve().parents[1]
WIGNER_DIMS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 16, 17, 19, 20, 21, 23, 25, 27, 28, 29, 31,
               32, 33, 63, 64, 65, 96, 97, 127, 128, 129)
RECONSTRUCT_DIMS = (3, 4, 5, 9, 32, 33, 64, 65, 128, 129, 256, 257)
HALF_SIZES = (1, 2, 3, 4, 5, 6)


def families(d):
    """The kernel families the command line takes at dimension ``d``."""
    return ("symmetric", "wootters") if d % 2 and d >= 3 else () if d % 2 else ("almost-symmetric",)


def state_file(d, seed):
    """Write a random full-rank density matrix of dimension ``d`` as a state file; its name."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    name = f"state-{d}-{seed}.json"
    if not os.path.exists(name):
        with open(name, "w") as fh:
            json.dump({"dim": d, "matrix": np.stack([rho.real, rho.imag], axis=-1).tolist()}, fh)
    return name


def kernel_file(family, d, seed, eps=None):
    """Write a kernel file with ``gridwigner.save_kernel``; its name and the digest of the file.  With a
    ``seed``, the family's table times ``exp(a + i*b)`` on the interior, ``a`` even and ``b`` odd under
    ``(k, l) -> (d-k, d-l)``: the pairing, the unit edge lines and the corner hold, and no family builds it."""
    import gridwigner as gw

    kernel = {"symmetric": gw.symmetric_kernel, "almost-symmetric": gw.almost_symmetric_kernel}[family]
    values = (kernel(d // 2) if eps is None else kernel(d // 2, eps)).values.copy()
    if seed is not None:
        a, b = np.random.default_rng(seed).uniform(-0.5, 0.5, (2, d - 1, d - 1))
        values[1:, 1:] *= np.exp(a + a[::-1, ::-1] + 1j * (b - b[::-1, ::-1]))
    name = f"kernel-{family}-{d}-{seed}.json"
    gw.save_kernel(gw.Kernel(values), name)
    return name, digest(name)


def cases():
    """Yield ``(name, run)`` for every case; ``run()`` returns the files the case wrote."""
    for d in WIGNER_DIMS:
        for family in families(d):
            for state in (["fock", str(d // 3)], ["phase", "1"], ["mixed"], ["random"]):
                for phi0 in ("0", "0.37"):
                    for fmt in ("json", "csv"):
                        def run(d=d, family=family, state=state, phi0=phi0, fmt=fmt):
                            spec = [state_file(d, d)] if state == ["random"] else state
                            return cli(["wigner", "--dim", str(d), "--kernel", family, "--phi0", phi0, "--state", *spec,
                                        "--format", fmt, "--out", f"out.{fmt}"], f"out.{fmt}")
                        yield f"wigner {family} d={d} {' '.join(state)} phi0={phi0} {fmt}", run
    for d in RECONSTRUCT_DIMS:
        for family in families(d):
            def run(d=d, family=family):
                grid = f"grid-{family}-{d}.json"
                wigner = cli(["wigner", "--dim", str(d), "--kernel", family, "--phi0", "0.37", "--state", state_file(d, d + 1),
                              "--out", grid], grid)
                return {"wigner": wigner, "reconstruct": cli(["reconstruct", "--grid", grid, "--out", "state.json"], "state.json")}
            yield f"reconstruct {family} d={d}", run
            if family == "wootters":
                for direct in ([], ["--state", state_file(d, d + 1)]):
                    yield f"relate odd d={d}{' direct' if direct else ''}", lambda d=d, direct=direct: cli(
                        ["relate", "--direction", "odd", "--grid", f"grid-wootters-{d}.json", *direct, "--out", "rel.json"], "rel.json")
    for n in HALF_SIZES:
        def run(n=n):
            import gridwigner as gw

            half = f"half-{n}.json"
            gw.halfgrid_to_json(gw.leonhardt_wigner(n, 0.37, gw.load_density_json(state_file(2 * n, n))), half)
            return {half: digest(half), "reconstruct": cli(["reconstruct", "--grid", half, "--out", "state.json"], "state.json")}
        yield f"reconstruct half N={n}", run
        for direct in ([], ["--state", f"state-{2 * n}-{n}.json"]):
            yield f"relate even N={n}{' direct' if direct else ''}", lambda n=n, direct=direct: cli(
                ["relate", "--direction", "even", "--grid", f"half-{n}.json", *direct, "--out", "rel.json"], "rel.json")
    for d in range(2, 32):
        for family in families(d):
            for phi0 in ("0", "0.37"):
                yield f"verify {family} d={d} phi0={phi0}", lambda d=d, family=family, phi0=phi0: cli(
                    ["verify", "--dim", str(d), "--kernel", family, "--phi0", phi0], "none")
    for family in ("symmetric", "wootters", "almost-symmetric"):
        for state in (["superposition01"], ["fock", "2"], ["state-3-3.json"]):
            for phi0 in ([], ["--phi0", "0.7"]):
                def run(family=family, state=state, phi0=phi0):
                    state_file(3, 3)
                    return cli(["converge", "--kernel", family, "--state", *state, "--n", "1", "--phi", "0.7",
                                "--Ns", "5,10,20,40,80,1000", *phi0, "--out", "conv.csv"], "conv.csv")
                yield f"converge {family} {' '.join(state)}{' on grid' if phi0 else ''}", run
    for family, d, seed, eps in (("symmetric", 5, 1, None), ("symmetric", 9, 2, None), ("almost-symmetric", 6, 3, None),
                                 ("almost-symmetric", 4, None, 0.7853981)):
        def run(family=family, d=d, seed=seed, eps=eps):
            name, written = kernel_file(family, d, seed, eps)
            kernel, grid = ["--kernel", f"file:{name}"], f"grid-file-{d}.json"
            return {name: written,
                    "wigner": cli(["wigner", "--dim", str(d), *kernel, "--phi0", "0.37", "--state", state_file(d, d + 2),
                                   "--out", grid], grid),
                    "verify": cli(["verify", "--dim", str(d), *kernel, "--phi0", "0.37"], "none"),
                    "reconstruct": cli(["reconstruct", "--grid", grid, *kernel, "--out", "state.json"], "state.json")}
        yield f"file kernel {family} d={d} {'seed=' + str(seed) if eps is None else 'eps=' + str(eps)}", run
    for family in ("symmetric", "wootters", "almost-symmetric"):
        for d in (-1, 0, 1, 2, 3, 4, 5):
            yield f"wigner {family} --dim {d}", lambda family=family, d=d: cli(
                ["wigner", "--dim", str(d), "--kernel", family, "--state", "mixed", "--out", "out.json"], "out.json")
            yield f"verify {family} --dim {d}", lambda family=family, d=d: cli(
                ["verify", "--dim", str(d), "--kernel", family], "none")
        if family != "almost-symmetric":
            for d in (3, 5):
                yield f"verify {family} --dim {d} --epsilon 0.3", lambda family=family, d=d: cli(
                    ["verify", "--dim", str(d), "--kernel", family, "--epsilon", "0.3"], "none")
        for d in (4, 5):
            for eps in ("0.7853981633974483", "0.785398", "nan", "-inf"):
                yield f"wigner {family} --dim {d} --epsilon {eps}", lambda family=family, d=d, eps=eps: cli(
                    ["wigner", "--dim", str(d), "--kernel", family, f"--epsilon={eps}", "--state", "mixed", "--out", "out.json"],
                    "out.json")
        for d in (1, 2, 3, 4, 5):
            for eps in (None, 0.3):
                def run(family=family, d=d, eps=eps):
                    name = grid_file(family, d, eps)
                    return cli(["reconstruct", "--grid", name, "--out", "state.json"], "state.json")
                yield f"reconstruct hand-written {family} d={d} eps={eps}", run
    for d in (3, 5):
        def run(d=d):
            grid = f"grid-symmetric-{d}.json"
            wigner = cli(["wigner", "--dim", str(d), "--kernel", "symmetric", "--state", "mixed", "--out", grid], grid)
            return {"wigner": wigner, "reconstruct": cli(["reconstruct", "--grid", grid, "--epsilon", "0.3", "--out", "state.json"],
                                                         "state.json")}
        yield f"reconstruct symmetric d={d} --epsilon 0.3", run
    for d in (1, 2, 3, 4):
        for direct in ([], ["--state", "mixed"]):
            yield f"relate odd hand-written d={d}{' direct' if direct else ''}", lambda d=d, direct=direct: cli(
                ["relate", "--direction", "odd", "--grid", grid_file("wootters", d), *direct, "--out", "rel.json"], "rel.json")
    for n, eps in ((1, "0.3"), (2, "0.7853981633974483"), (2, "0.785398"), (2, "nan"), (3, "1.5707963267948966")):
        for direct in ([], ["--state", "mixed"]):
            def run(n=n, eps=eps, direct=direct):
                import gridwigner as gw

                half = f"half-{n}.json"
                gw.halfgrid_to_json(gw.leonhardt_wigner(n, 0.37, gw.load_density_json(state_file(2 * n, n))), half)
                return cli(["relate", "--direction", "even", "--grid", half, "--epsilon", eps, *direct, "--out", "rel.json"],
                           "rel.json")
            yield f"relate even N={n} eps={eps}{' direct' if direct else ''}", run
    for family in ("symmetric", "wootters", "almost-symmetric"):
        yield f"converge {family} Ns to 99999", lambda family=family: cli(
            ["converge", "--kernel", family, "--state", "superposition01", "--n", "0", "--phi", "2.1", "--phi0", "2.1",
             "--Ns", "2,3,7,160,4096,99999", "--out", "conv.csv"], "conv.csv")


def grid_file(label, d, eps=None):
    """Write a grid file by hand: a random table of side ``max(d, 1)`` under the kernel ``label`` and ``dim`` ``d``,
    which need not agree in parity, with an ``epsilon`` field if ``eps`` is given; its name."""
    table = np.random.default_rng(abs(d) + 7).standard_normal((max(d, 1), max(d, 1))) / max(d, 1) ** 2
    obj = {"dim": d, "phi0": 0.37, "kernel": label, "values": table.tolist(), **({} if eps is None else {"epsilon": eps})}
    name = f"hand-{label}-{d}-{eps}.json"
    with open(name, "w") as fh:
        json.dump(obj, fh)
    return name


def fuzz_cases(count):
    """Yield ``(name, run)`` for ``count`` random tables through the writers of ``gridwigner._jsonio``."""
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-4, 9.999999999999999e-05,
                      1e16, 1e17, -1e300, 0.1, 1.0, 123.0])
    for seed in range(count):
        def run(seed=seed):
            from gridwigner import _jsonio

            rng = np.random.default_rng(seed)
            kind = ("grid", "pairs", "csv")[seed % 3]
            d = int(rng.choice([1, 2, 5, 19, 20, 27, 28, 33, 46, 65, 66]))
            table = rng.standard_normal((d, d)) * 10.0 ** rng.integers(-20, 20, (d, d))
            if kind == "pairs":
                table = table + 1j * rng.standard_normal((d, d))
                if rng.integers(2):  # Hermitian bit for bit, as reconstruct returns a state
                    lower = np.tril_indices(d, -1)
                    table[lower] = table.T[lower].conj()
                    table.imag[np.diag_indices(d)] = 0.0
            plants = list(edges) + ([np.nan, -np.nan, np.inf, -np.inf] if kind == "csv" or rng.integers(8) == 0 else [])
            for _ in range(int(rng.integers(0, 6))):
                i, j = rng.integers(0, d, 2)
                table[i, j] = rng.choice(plants)
                if kind == "pairs" and rng.integers(2):
                    table[j, i] = np.conj(table[i, j])
            if d > 1 and rng.integers(2):  # runs of equal rows
                for _ in range(int(rng.integers(1, 4))):
                    i = int(rng.integers(0, d - 1))
                    table[i + 1:i + 1 + int(rng.integers(1, d))] = table[i]
            if kind == "csv":
                _jsonio.write_grid_csv("fuzz.csv", rng.uniform(-7, 7, d), table)
                return {"fuzz.csv": digest("fuzz.csv")}
            _jsonio.write_json("fuzz.json", {"dim": d, "values": table})
            return {"fuzz.json": digest("fuzz.json")}
        yield f"fuzz {seed}", run


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli(argv, out):
    """Run ``gridwigner.cli.main(argv)`` in-process; its exit code and texts, and the sha256 of ``out`` if it
    wrote one (a file left by an earlier case is removed first)."""
    from gridwigner import cli as command

    if os.path.exists(out):
        os.unlink(out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = command.main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    files = {out: digest(out)} if os.path.exists(out) else {}
    return {**files, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def work(src, limit, fuzz):
    """Run the cases with the package of ``src`` in the current directory; one JSON line per case."""
    sys.path.insert(0, src)
    battery = [*cases(), *fuzz_cases(fuzz)][:limit]
    for name, run in battery:
        try:
            record = run()
        except Exception as exc:  # a case that raises is a result to compare, not the end of the battery
            record = {"raised": f"{type(exc).__name__}: {exc}"}
        print(json.dumps({"case": name, **record}), flush=True)


def results(tree, limit, fuzz):
    """``{case: record}`` of every case run against the tree at ``tree``."""
    with tempfile.TemporaryDirectory() as scratch:
        argv = [sys.executable, __file__, "--work", str(Path(tree, "src").resolve()), "--fuzz", str(fuzz)]
        argv += [] if limit is None else ["--limit", str(limit)]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
        lines = subprocess.run(argv, cwd=scratch, env=env, capture_output=True, text=True, check=True).stdout.splitlines()
    return {r.pop("case"): r for r in map(json.loads, lines)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default=str(TREE), help="root of the tree to compare with (default: this tree)")
    parser.add_argument("--limit", type=int, default=None, help="run only the first LIMIT cases")
    parser.add_argument("--fuzz", type=int, default=3000, help="fuzzed tables (default 3000)")
    parser.add_argument("--expect", help="file of case names, one a line, that are meant to differ (default: none)")
    parser.add_argument("--work", help=argparse.SUPPRESS)  # a worker: run the cases with this src
    args = parser.parse_args(argv)
    if args.work:
        work(args.work, args.limit, args.fuzz)
        return 0
    mine, theirs = results(TREE, args.limit, args.fuzz), results(args.parent, args.limit, args.fuzz)
    differ = [name for name in mine if mine[name] != theirs.get(name)]
    for name in differ:
        keys = sorted(k for k in {*mine[name], *theirs.get(name, {})} if mine[name].get(k) != theirs.get(name, {}).get(k))
        print(f"DIFFER {name}: " + "; ".join(f"{k}: {mine[name].get(k)!r} here, {theirs.get(name, {}).get(k)!r} there" for k in keys))
    expected = [] if args.expect is None else [line for line in Path(args.expect).read_text().splitlines() if line.strip()]
    for name in expected:
        if name not in differ:
            print(f"ALIKE {name}: expected to differ")
    print(f"{len(mine)} cases ({sum(n.startswith('wigner') for n in mine)} wigner, {sum(n.startswith('fuzz') for n in mine)} fuzzed"
          f" tables), {len(differ)} differ" + ("" if args.expect is None else f", {len(expected)} expected to"))
    return 1 if sorted(differ) != sorted(expected) or len(mine) != len(theirs) else 0


if __name__ == "__main__":
    sys.exit(main())
