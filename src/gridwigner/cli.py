"""Command-line front end: Wigner grids, reconstruction, verification suites,
convergence tables and inter-kernel relation transforms.

Exit codes: 0 success, 1 unexpected identity failure, 2 invalid state or
malformed grid file, 3 kernel/dimension mismatch or invalid grid
parameters, 4 reconstruction residual too large, 5 invalid continuum
embedding.  Malformed input exits with its code and one ``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from ._jsonio import read_json
from .linalg import TOL, adjoint, frob_dist, min_diag_pivot
from .kernels import (
    Kernel,
    almost_symmetric_kernel,
    is_unimodular,
    load_kernel,
    symmetric_kernel,
    validate,
    wootters_kernel,
)
from .phasespace import PhaseGrid, phase_basis
from .quantizer import build_quantizer, ordering_check, verify_quantizer
from .states import (
    fock_state,
    load_density_json,
    maximally_mixed,
    phase_state,
    qubit_state,
    save_density_json,
    superposition01,
)
from .tomography import (
    EmbeddingError,
    _halfgrid_from_json,
    continuum_study,
    embed_state,
    family_projectors,
    leonhardt_reconstruct,
    leonhardt_wigner,
    relate_even,
    relate_odd,
)
from .wigner import (
    ReconstructionError,
    WignerGrid,
    _wigner_from_json,
    check_density,
    marginals,
    reconstruct,
    wigner_almost_symmetric,
    wigner_grid,
    wigner_symmetric,
    wigner_to_csv,
    wigner_to_json,
    wigner_wootters,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_STATE = 2
EXIT_KERNEL_MISMATCH = 3
EXIT_RESIDUAL = 4
EXIT_BAD_EMBEDDING = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fail(code: int, message: str) -> CliError:
    return CliError(code, message)


def _resolve_kernel(name: str, dim: int, epsilon: float | None) -> Kernel:
    """Build the kernel named on the command line, enforcing parity rules."""
    if name == "symmetric" or name == "wootters":
        if dim % 2 == 0 or dim < 3:
            raise _fail(
                EXIT_KERNEL_MISMATCH,
                f"kernel {name!r} requires an odd dimension >= 3, got {dim}",
            )
        n_half = (dim - 1) // 2
        return symmetric_kernel(n_half) if name == "symmetric" else wootters_kernel(n_half)
    if name == "almost-symmetric":
        if dim % 2 or dim < 2:
            raise _fail(
                EXIT_KERNEL_MISMATCH,
                f"kernel 'almost-symmetric' requires an even dimension >= 2, got {dim}",
            )
        try:
            return almost_symmetric_kernel(dim // 2, epsilon)
        except ValueError as exc:
            raise _fail(EXIT_KERNEL_MISMATCH, str(exc))
    if name.startswith("file:"):
        path = name[5:]
        try:
            kernel = load_kernel(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise _fail(EXIT_KERNEL_MISMATCH, f"cannot load kernel file: {exc}")
        if kernel.dim != dim:
            raise _fail(
                EXIT_KERNEL_MISMATCH,
                f"kernel file dimension {kernel.dim} does not match --dim {dim}",
            )
        if not validate(kernel).valid:
            raise _fail(EXIT_KERNEL_MISMATCH, "kernel file fails the validity conditions")
        return kernel
    raise _fail(EXIT_KERNEL_MISMATCH, f"unknown kernel {name!r}")


def _resolve_grid(dim: int, phi0: float) -> PhaseGrid:
    try:
        return PhaseGrid(dim, phi0)
    except ValueError as exc:
        raise _fail(EXIT_KERNEL_MISMATCH, f"invalid grid: {exc}")


def _load_state_file(path: str) -> np.ndarray:
    try:
        return load_density_json(path)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        raise _fail(EXIT_BAD_STATE, f"invalid state file: {exc}")


def _resolve_state(tokens: list[str], dim: int, phi0: float) -> np.ndarray:
    """Turn a state spec (named generator or JSON path) into a density matrix.

    Every returned state has passed :func:`check_density`.
    """
    if not tokens:
        raise _fail(EXIT_BAD_STATE, "empty state spec")
    name, args = tokens[0], tokens[1:]
    if name not in ("fock", "phase", "mixed", "qubit", "superposition01"):
        if not os.path.exists(name):
            raise _fail(EXIT_BAD_STATE, f"unknown state spec {name!r}")
        rho = _load_state_file(name)
        if rho.shape[0] != dim:
            raise _fail(
                EXIT_BAD_STATE,
                f"state file dimension {rho.shape[0]} does not match --dim {dim}",
            )
        return rho
    if name == "qubit" and dim != 2:
        raise _fail(EXIT_BAD_STATE, "qubit states require --dim 2")
    try:
        if name == "fock":
            rho = embed_state(fock_state(int(args[0]) + 1, int(args[0])), dim)
        elif name == "phase":
            rho = phase_state(dim, int(args[0]), phi0)
        elif name == "mixed":
            rho = maximally_mixed(dim)
        elif name == "qubit":
            rho = qubit_state(float(args[0]), float(args[1]), float(args[2]))
        else:
            rho = superposition01(dim)
        return check_density(rho)
    except (IndexError, ValueError) as exc:
        raise _fail(EXIT_BAD_STATE, f"bad state spec {' '.join(tokens)!r}: {exc}")


def cmd_wigner(args) -> int:
    kernel = _resolve_kernel(args.kernel, args.dim, args.epsilon)
    grid = _resolve_grid(args.dim, args.phi0)
    rho = _resolve_state(args.state, args.dim, args.phi0)
    w = wigner_grid(grid, kernel, rho, validate_state=False)

    phase_m, number_m = marginals(w)
    p = phase_basis(grid)
    phase_true = np.real((p.conj() * (rho @ p)).sum(0))
    number_true = np.real(np.diagonal(rho))
    print(f"normalization: sum = {w.values.sum():.12f}")
    print(f"phase marginal max deviation: {np.max(np.abs(phase_m - phase_true)):.3e}")
    print(f"number marginal max deviation: {np.max(np.abs(number_m - number_true)):.3e}")

    out = args.out or "wigner.json"
    if args.format == "csv":
        wigner_to_csv(w, out)
    else:
        wigner_to_json(w, out)
    print(f"wrote {out}")
    return EXIT_OK


def _grid_residual(w: WignerGrid, kernel: Kernel, rho: np.ndarray) -> float:
    if kernel.label == "symmetric":
        back = wigner_symmetric(w.grid, rho)
    elif kernel.label == "wootters":
        back = wigner_wootters(w.grid, rho)
    elif kernel.label == "almost-symmetric":
        back = wigner_almost_symmetric(w.grid, rho, kernel.eps)
    else:
        back = wigner_grid(w.grid, kernel, rho, validate_state=False)
    return float(np.max(np.abs(back.values - w.values)))


def _state_residual(rho: np.ndarray) -> float:
    """How far a reconstructed matrix is from a valid density operator."""
    herm = frob_dist(rho, adjoint(rho))
    tr = abs(np.trace(rho) - 1.0)
    pivot = min(min_diag_pivot((rho + rho.conj().T) / 2.0), 0.0)
    return float(max(herm, tr, -pivot))


def _grid_loader(label):
    return _halfgrid_from_json if label == "leonhardt" else _wigner_from_json


def _read_grid_file(path, loader_for=_grid_loader):
    """Decode a grid file once: its kernel label and the grid built by ``loader_for(label)``.

    The decoded file, several times the size of its table, is freed on return.
    """
    try:
        obj = read_json(path)
        label = obj.get("kernel")
        return label, loader_for(label)(obj)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise _fail(EXIT_BAD_STATE, f"invalid grid file: {exc}")


def cmd_reconstruct(args) -> int:
    label, w = _read_grid_file(args.grid)
    if label == "leonhardt":
        rho = leonhardt_reconstruct(w)
        hermitized = (rho + rho.conj().T) / 2.0
        back = leonhardt_wigner(w.n_half, w.phi0, hermitized, validate_state=False)
        residual = max(
            _state_residual(rho), float(np.max(np.abs(back.values - w.values)))
        )
    else:
        if label in ("symmetric", "wootters", "almost-symmetric"):
            kernel = _resolve_kernel(
                label, w.dim, w.epsilon if w.epsilon is not None else args.epsilon
            )
        elif args.kernel:
            kernel = _resolve_kernel(args.kernel, w.dim, args.epsilon)
        else:
            raise _fail(
                EXIT_KERNEL_MISMATCH,
                f"grid kernel {label!r} is not built in; pass --kernel file:<path>",
            )
        try:
            rho = reconstruct(w, kernel, validate_state=False)
        except ReconstructionError as exc:
            raise _fail(EXIT_RESIDUAL, f"reconstruction failed: {exc}")
        except ValueError as exc:  # the kernel does not match the grid's label
            raise _fail(EXIT_KERNEL_MISMATCH, str(exc))
        residual = max(_state_residual(rho), _grid_residual(w, kernel, rho))

    print(f"round-trip residual: {residual:.3e}")
    out = args.out or "state.json"
    save_density_json(rho, out)
    print(f"wrote {out}")
    if residual > 10 * TOL:
        raise _fail(EXIT_RESIDUAL, f"round-trip residual {residual:.3e} exceeds tolerance")
    return EXIT_OK


def _print_check(name: str, dev: float | None, expect_pass: bool = True, note: str = "") -> bool:
    """Print one verification line; returns False on an unexpected failure."""
    if dev is None:
        print(f"{name}: n/a ({note})")
        return True
    ok = dev <= TOL
    status = "PASS" if ok else "FAIL"
    print(f"{name}: {status} (max deviation {dev:.3e})")
    return ok == expect_pass


def cmd_verify(args) -> int:
    kernel = _resolve_kernel(args.kernel, args.dim, args.epsilon)
    # the identities depend on phi0 mod 2*pi only; reduced, a large angle keeps its precision
    grid = _resolve_grid(args.dim, args.phi0)
    grid = PhaseGrid(grid.dim, math.remainder(grid.phi0, 2 * math.pi))

    ok = True
    validity = validate(kernel)
    for cond, value in (
        ("kernel nonvanishing", validity.nonvanishing),
        ("kernel conjugation pairing", validity.hermitian_pairing),
        ("kernel edge-row pairing", validity.first_row_hermitian),
        ("kernel edge-column pairing", validity.first_col_hermitian),
        ("kernel corner real", validity.corner_real),
        ("kernel unit phase line", validity.first_col_unit),
        ("kernel unit number line", validity.first_row_unit),
    ):
        print(f"{cond}: {'PASS' if value else 'FAIL'}")
        ok = ok and value

    q = build_quantizer(grid, kernel)
    report = verify_quantizer(q)
    ok &= _print_check("phase-point Hermiticity", report.hermiticity_dev)
    ok &= _print_check("phase-point unit trace", report.trace_dev)
    ok &= _print_check("phase-axis sums give phase projectors", report.phase_sum_dev)
    ok &= _print_check("number-axis sums give number projectors", report.number_sum_dev)
    ok &= _print_check("completeness", report.completeness_dev)
    ok &= _print_check("overlap trace matches kernel sum", report.overlap_dev)
    if report.unimodular:
        ok &= _print_check("overlap orthogonality", report.orthogonality_dev)
    else:
        _print_check("overlap orthogonality", None, note="kernel not unimodular")

    rng = np.random.default_rng(0)
    if kernel.label in ("symmetric", "almost-symmetric"):
        f1 = rng.standard_normal(grid.dim) + 1j * rng.standard_normal(grid.dim)
        f2 = rng.standard_normal(grid.dim) + 1j * rng.standard_normal(grid.dim)
        rep = ordering_check(q, f1, f2)
        ok &= _print_check("operator ordering", rep.deviation)
    else:
        _print_check("operator ordering", None, note="kernel family has no ordering rule")

    if kernel.label == "wootters":
        d = grid.dim
        units = [c for c in range(1, d) if math.gcd(c, d) == 1]
        worst_p = 0.0
        worst_c = 0.0
        for n1 in range(d):
            for n2 in range(d):
                # (c*n1, c*n2), c a unit mod d, labels the same lines: check the smallest
                labels = [((c * n1) % d, (c * n2) % d) for c in units]
                if math.gcd(math.gcd(n1, n2), d) > 1 or min(labels) < (n1, n2):
                    continue
                projs = family_projectors(q, n1, n2)
                idem = np.linalg.norm(projs @ projs - projs, axis=(-2, -1))
                worst_p = max(worst_p, float(np.max(idem)))
                # line n3 under label c is line n3/c here: sum in each labelling, as per pair
                by_line = projs.transpose(1, 2, 0)
                for c in units:
                    total = np.take(by_line, np.arange(d) * pow(c, -1, d) % d, axis=-1).sum(-1)
                    worst_c = max(worst_c, frob_dist(total, np.eye(d)))
        ok &= _print_check("line projectivity", worst_p)
        ok &= _print_check("line completeness", worst_c)
    elif grid.dim % 2 == 0:
        _print_check("line projectivity", None, note="even dim")
    else:
        _print_check("line projectivity", None, note="projective lines need the wootters kernel")

    if not ok:
        print("verification failed", file=sys.stderr)
        return EXIT_FAIL
    print("all expected checks passed")
    return EXIT_OK


def cmd_converge(args) -> int:
    try:
        n_list = [int(tok) for tok in args.Ns.split(",") if tok]
    except ValueError:
        raise _fail(EXIT_BAD_EMBEDDING, f"bad --Ns list {args.Ns!r}")
    family = args.kernel
    if family not in ("symmetric", "wootters", "almost-symmetric"):
        raise _fail(EXIT_KERNEL_MISMATCH, f"unsupported kernel family {family!r}")
    if not (math.isfinite(args.phi) and math.isfinite(args.phi0)):
        raise _fail(EXIT_BAD_EMBEDDING, "--phi and --phi0 must be finite")

    tokens = args.state
    name = tokens[0]
    if name == "superposition01":
        rho = superposition01()
    elif name == "fock":
        try:
            level = int(tokens[1])
            rho = fock_state(level + 1, level)
        except (IndexError, ValueError) as exc:
            raise _fail(EXIT_BAD_STATE, f"bad state spec {' '.join(tokens)!r}: {exc}")
    elif os.path.exists(name):
        rho = _load_state_file(name)
    else:
        raise _fail(EXIT_BAD_STATE, f"state spec {name!r} not usable for a continuum study")

    try:
        report = continuum_study(rho, family, args.n, args.phi, n_list, phi0=args.phi0)
    except EmbeddingError as exc:
        raise _fail(EXIT_BAD_EMBEDDING, str(exc))

    for row in report.rows:
        print(
            f"N={row.N} dim={row.dim} phi_grid={row.phi_grid:.6f} "
            f"scaled={row.scaled_value:.10f} target={row.target:.10f} "
            f"err={row.abs_error:.3e}"
        )
    print(f"monotone error decrease: {'yes' if report.monotone() else 'no'}")
    out = args.out or "converge.csv"
    report.to_csv(out)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_relate(args) -> int:
    def loader_for(label):
        if args.direction == "odd" and label != "wootters":
            raise _fail(
                EXIT_KERNEL_MISMATCH,
                f"odd relation needs a wootters grid, got kernel {label!r}",
            )
        if args.direction == "even" and label != "leonhardt":
            raise _fail(
                EXIT_KERNEL_MISMATCH,
                f"even relation needs a leonhardt half grid, got kernel {label!r}",
            )
        return _grid_loader(label)

    _, w = _read_grid_file(args.grid, loader_for)
    if args.direction == "odd":
        try:
            out_grid = relate_odd(w)
        except ValueError as exc:
            raise _fail(EXIT_KERNEL_MISMATCH, str(exc))
        direct_fn = lambda rho: wigner_symmetric(out_grid.grid, rho)
    else:
        eps = args.epsilon if args.epsilon is not None else 1.0 / (2 * w.n_half)
        try:
            out_grid = relate_even(w, eps)
        except ValueError as exc:
            raise _fail(EXIT_KERNEL_MISMATCH, str(exc))
        direct_fn = lambda rho: wigner_almost_symmetric(out_grid.grid, rho, eps)

    if args.state:
        rho = _resolve_state(args.state, out_grid.dim, out_grid.grid.phi0)
        direct = direct_fn(rho)
        print(f"max deviation vs direct: {np.max(np.abs(out_grid.values - direct.values)):.3e}")

    out = args.out or "related.json"
    wigner_to_json(out_grid, out)
    print(f"wrote {out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="gridwigner",
        description="Discrete Wigner functions on finite number-phase grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--dim", type=int, required=True, help="grid dimension")
        p.add_argument("--phi0", type=float, default=0.0, help="reference angle (radians)")
        p.add_argument(
            "--kernel",
            required=True,
            help="symmetric | wootters | almost-symmetric | file:<path>",
        )
        p.add_argument("--epsilon", type=float, default=None, help="skew angle (radians)")

    p = sub.add_parser("wigner", help="compute a Wigner grid for a state")
    add_common(p)
    p.add_argument("--state", nargs="+", required=True, help="state spec or JSON path")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("reconstruct", help="recover a state from a Wigner grid file")
    p.add_argument("--grid", required=True, help="Wigner grid JSON file")
    p.add_argument("--kernel", default=None, help="needed for file:<path> kernels")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="run the identity suite for a kernel")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("converge", help="continuum-limit convergence table")
    p.add_argument("--kernel", required=True)
    p.add_argument("--state", nargs="+", required=True)
    p.add_argument("--n", type=int, required=True, help="number level to track")
    p.add_argument("--phi", type=float, required=True, help="target angle (radians)")
    p.add_argument("--Ns", required=True, help="comma-separated grid sizes")
    p.add_argument("--phi0", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("relate", help="transform between kernel Wigner grids")
    p.add_argument("--direction", choices=("odd", "even"), required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--state", nargs="+", default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_relate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
