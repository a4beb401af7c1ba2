"""Command-line front end: Wigner grids, reconstruction, verification suites,
convergence tables and inter-kernel relation transforms.

Exit codes: 0 success, 1 unexpected identity failure, 2 invalid state or
malformed grid file, 3 kernel/dimension mismatch, invalid grid parameters
or a table too large for memory, 4 reconstruction residual too large,
5 invalid continuum embedding, 6 output file cannot be written.  Malformed
input and an unwritable ``--out`` exit with their code and one ``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings

import numpy as np

from ._jsonio import read_json
from .linalg import _hermitian_average, is_positive_semidefinite, psd_deficit, within
from .kernels import FAMILIES, Kernel, KernelValidity, _family_kernel, default_epsilon, load_kernel, validate
from .phasespace import PhaseGrid, _angle_phases, _diagonals, _fft
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
    ConvergenceReport,
    EmbeddingError,
    _check_embedding,
    continuum_study,
    leonhardt_reconstruct,
    leonhardt_wigner,
    relate_even,
    relate_odd,
    verify_lines,
)
from .wigner import (
    HalfIntegerWignerGrid,
    ReconstructionError,
    _grid_from_json,
    marginals,
    reconstruct,
    wigner_grid,
    wigner_to_csv,
    wigner_to_json,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_STATE = 2
EXIT_KERNEL_MISMATCH = 3
EXIT_RESIDUAL = 4
EXIT_BAD_EMBEDDING = 5
EXIT_WRITE = 6


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _resolve_kernel(name: str, dim: int, epsilon: float | None) -> tuple[Kernel, KernelValidity | None]:
    """The kernel named on the command line and, for a ``file:`` kernel, the validity that admitted it
    (``None`` for a built-in family, whose parity and skew rules :func:`kernels._family_kernel` owns: a refusal exits 3)."""
    if name in FAMILIES:
        try:
            return _family_kernel(name, dim, epsilon), None
        except ValueError as exc:
            raise CliError(EXIT_KERNEL_MISMATCH, str(exc))
    if name.startswith("file:"):
        path = name[5:]
        try:
            kernel = load_kernel(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CliError(EXIT_KERNEL_MISMATCH, f"cannot load kernel file: {exc}")
        if kernel.dim != dim:
            raise CliError(
                EXIT_KERNEL_MISMATCH,
                f"kernel file dimension {kernel.dim} does not match --dim {dim}",
            )
        validity = validate(kernel)
        if not validity.valid:
            raise CliError(EXIT_KERNEL_MISMATCH, "kernel file fails the validity conditions")
        return kernel, validity
    raise CliError(EXIT_KERNEL_MISMATCH, f"unknown kernel {name!r}")


def _resolve_grid(dim: int, phi0: float) -> PhaseGrid:
    try:
        return PhaseGrid(dim, phi0)
    except ValueError as exc:
        raise CliError(EXIT_KERNEL_MISMATCH, f"invalid grid: {exc}")


def _load_state_file(path: str) -> np.ndarray:
    try:
        return load_density_json(path)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        raise CliError(EXIT_BAD_STATE, f"invalid state file: {exc}")


#: Arguments each named state takes; a state file takes none.
STATE_ARGS = {"fock": 1, "phase": 1, "mixed": 0, "qubit": 3, "superposition01": 0}


def _refuse_extra_tokens(tokens: list[str]) -> None:
    """Exit 2 on tokens after a complete state spec, which would be ignored otherwise."""
    extra = tokens[1 + STATE_ARGS.get(tokens[0], 0) :]
    if extra:
        raise CliError(EXIT_BAD_STATE, f"bad state spec {' '.join(tokens)!r}: unexpected {' '.join(extra)!r}")


def _resolve_state(tokens: list[str], dim: int, phi0: float) -> np.ndarray:
    """Turn a state spec (named generator or JSON path) into a density matrix.

    A state file is checked once, by :func:`load_density_json`; a generated
    state is a density matrix by construction and is returned as built.
    """
    if not tokens:
        raise CliError(EXIT_BAD_STATE, "empty state spec")
    name, args = tokens[0], tokens[1:]
    if name not in STATE_ARGS and not os.path.exists(name):
        raise CliError(EXIT_BAD_STATE, f"unknown state spec {name!r}")
    _refuse_extra_tokens(tokens)
    if name not in STATE_ARGS:
        rho = _load_state_file(name)
        if rho.shape[0] != dim:
            raise CliError(
                EXIT_BAD_STATE,
                f"state file dimension {rho.shape[0]} does not match --dim {dim}",
            )
        return rho
    if name == "qubit" and dim != 2:
        raise CliError(EXIT_BAD_STATE, "qubit states require --dim 2")
    try:
        if name == "fock":
            return fock_state(dim, int(args[0]))
        if name == "phase":
            return phase_state(dim, int(args[0]), phi0)
        if name == "mixed":
            return maximally_mixed(dim)
        if name == "qubit":
            return qubit_state(float(args[0]), float(args[1]), float(args[2]))
        return superposition01(dim)
    except (IndexError, ValueError) as exc:
        raise CliError(EXIT_BAD_STATE, f"bad state spec {' '.join(tokens)!r}: {exc}")


def cmd_wigner(args) -> int:
    kernel, _ = _resolve_kernel(args.kernel, args.dim, args.epsilon)
    grid = _resolve_grid(args.dim, args.phi0)
    rho = _resolve_state(args.state, args.dim, args.phi0)
    w = wigner_grid(grid, kernel, rho, validate_state=False)

    phase_m, number_m = marginals(w)
    phase_true = _phase_marginal(grid, rho)
    number_true = np.real(np.diagonal(rho))
    print(f"normalization: sum = {w.values.sum():.12f}")
    print(f"phase marginal max deviation: {np.max(np.abs(phase_m - phase_true)):.3e}")
    print(f"number marginal max deviation: {np.max(np.abs(number_m - number_true)):.3e}")

    out = args.out or "wigner.json"
    _write(wigner_to_csv if args.format == "csv" else wigner_to_json, w, out)
    print(f"wrote {out}")
    return EXIT_OK


def _phase_marginal(grid: PhaseGrid, rho: np.ndarray) -> np.ndarray:
    """``<phi_m|rho|phi_m>``: one FFT of the cyclic-diagonal sums of ``rho``, the
    ``l = 0`` column of ``characteristic``."""
    sums = _diagonals(grid, rho).sum(axis=1)
    return _fft(sums * _angle_phases(grid)[:, 0]).real / grid.dim


def _write(write, obj, path) -> None:
    """Write ``obj`` to ``path``; a file that cannot be written exits 6."""
    try:
        write(obj, path)
    except OSError as exc:
        raise CliError(EXIT_WRITE, f"cannot write {path}: {exc.strerror or exc}")


def _state_residual(rho: np.ndarray) -> float:
    """The larger of the trace deviation and the PSD deficit of ``rho`` (inf if not finite).

    A PSD deficit that passes the tolerance counts as zero, so only a matrix
    that fails the shifted Cholesky test pays for the eigenvalue.
    This state term alone decides exit 4 for a kernel grid: ``reconstruct``
    is the exact inverse of ``wigner_grid`` and returns an exactly Hermitian
    matrix, so neither a grid round trip nor a Hermiticity term can fail.
    """
    psd = 0.0 if is_positive_semidefinite(rho) else psd_deficit(rho)
    return float(max(psd, abs(np.trace(rho) - 1.0)))  # an inf deficit wins over a NaN trace


#: The kernel label of the grid file each ``relate`` direction reads, and the grid it names.
RELATION_INPUT = {"odd": ("wootters", "grid"), "even": (HalfIntegerWignerGrid.kernel_label, "half grid")}


def _read_grid_file(path, need=None):
    """Decode a grid file once into its grid, of the kind its kernel label names.  With ``need``, a
    ``relate`` direction, the label is checked before any grid is built: a file of another exits 3.
    The decoded file, several times the size of its table, is freed on return."""
    try:
        obj = read_json(path, "values", 2)
        label = obj.get("kernel")
        if need is not None and isinstance(label, str) and label != RELATION_INPUT[need][0]:
            wanted, noun = RELATION_INPUT[need]
            raise CliError(EXIT_KERNEL_MISMATCH, f"{need} relation needs a {wanted} {noun}, got kernel {label!r}")
        return _grid_from_json(obj)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CliError(EXIT_BAD_STATE, f"invalid grid file: {exc}")


def cmd_reconstruct(args) -> int:
    w = _read_grid_file(args.grid)
    if isinstance(w, HalfIntegerWignerGrid):
        raw = leonhardt_reconstruct(w)
        rho = _hermitian_average(raw, raw.conj().T)
        try:  # 16N**2 values onto a 4N**2-dimensional image: the round trip can fail
            back = leonhardt_wigner(w.n_half, w.phi0, rho, validate_state=False)
            trip = float(np.max(np.abs(back.values - w.values)))
        except ValueError:  # the forward map overflows: no finite real table comes back
            trip = math.inf
        residual = max(_state_residual(raw), trip)
    else:
        label = w.kernel_label
        if label in FAMILIES:
            kernel, _ = _resolve_kernel(label, w.dim, w.epsilon if w.epsilon is not None else args.epsilon)
        elif args.kernel:
            kernel, _ = _resolve_kernel(args.kernel, w.dim, args.epsilon)
        else:
            raise CliError(EXIT_KERNEL_MISMATCH, f"grid kernel {label!r} is not built in; pass --kernel file:<path>")
        try:
            rho = reconstruct(w, kernel, validate_state=False)
        except ReconstructionError as exc:
            raise CliError(EXIT_RESIDUAL, f"reconstruction failed: {exc}")
        except ValueError as exc:  # the kernel did not make the grid
            raise CliError(EXIT_KERNEL_MISMATCH, str(exc))
        residual = _state_residual(rho)

    print(f"round-trip residual: {residual:.3e}")
    out = args.out or "state.json"
    if np.isfinite(rho).all():  # no JSON reader accepts a NaN token
        _write(save_density_json, rho, out)
        print(f"wrote {out}")
    if not within(residual):
        raise CliError(EXIT_RESIDUAL, f"round-trip residual {residual:.3e} exceeds tolerance")
    return EXIT_OK


def _print_check(name: str, dev: float | None, scale: float = 1.0, note: str = "") -> bool:
    """Print one verification line, the deviation checked on ``scale``; False on a failure."""
    if dev is None:
        print(f"{name}: n/a ({note})")
        return True
    ok = within(dev, scale)
    status = "PASS" if ok else "FAIL"
    print(f"{name}: {status} (max deviation {dev:.3e})")
    return ok


def cmd_verify(args) -> int:
    kernel, validity = _resolve_kernel(args.kernel, args.dim, args.epsilon)
    grid = _resolve_grid(args.dim, args.phi0)

    ok = True
    if validity is None:
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
    q = build_quantizer(grid, kernel, check=False)  # the validity is printed above
    print(f"kernel conditioning: max|K| / min|K| = {kernel.moduli[1] / kernel.moduli[0]:.3e}")

    report = verify_quantizer(q)
    ok &= _print_check("phase-point Hermiticity", report.hermiticity_dev, report.scale)
    ok &= _print_check("phase-point unit trace", report.trace_dev, report.scale)
    ok &= _print_check("phase-axis sums give phase projectors", report.phase_sum_dev, report.scale)
    ok &= _print_check("number-axis sums give number projectors", report.number_sum_dev, report.scale)
    ok &= _print_check("completeness", report.completeness_dev, report.scale)
    ok &= _print_check("overlap trace matches kernel sum", report.overlap_dev, report.scale**2)
    if report.unimodular:
        ok &= _print_check("overlap orthogonality", report.orthogonality_dev, report.scale**2)
    else:
        _print_check("overlap orthogonality", None, note="kernel not unimodular")

    if kernel.label in ("symmetric", "almost-symmetric"):
        rng = np.random.default_rng(0)
        f1 = rng.standard_normal(grid.dim) + 1j * rng.standard_normal(grid.dim)
        f2 = rng.standard_normal(grid.dim) + 1j * rng.standard_normal(grid.dim)
        rep = ordering_check(q, f1, f2)
        ok &= _print_check("operator ordering", rep.deviation, rep.scale)
    else:
        _print_check("operator ordering", None, note="kernel family has no ordering rule")

    if kernel.label == "wootters":
        lines = verify_lines(q)
        ok &= _print_check("line projectivity", lines.projectivity_dev)
        ok &= _print_check("line completeness", lines.completeness_dev)
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
        raise CliError(EXIT_BAD_EMBEDDING, f"bad --Ns list {args.Ns!r}")
    family = args.kernel
    if family not in FAMILIES:
        raise CliError(EXIT_KERNEL_MISMATCH, f"unsupported kernel family {family!r}")
    if not (math.isfinite(args.phi) and math.isfinite(args.phi0)):
        raise CliError(EXIT_BAD_EMBEDDING, "--phi and --phi0 must be finite")

    tokens = args.state
    name = tokens[0]
    if name not in ("superposition01", "fock") and not os.path.exists(name):
        raise CliError(EXIT_BAD_STATE, f"state spec {name!r} not usable for a continuum study")
    _refuse_extra_tokens(tokens)
    if name == "superposition01":
        rho = superposition01()
    elif name == "fock":
        try:
            level = int(tokens[1])
            if level < 0:
                raise ValueError(f"number level {level} is negative")
            _check_embedding(level, args.n, n_list)  # before a table of the level's size is built
            rho = fock_state(level + 1, level)
        except EmbeddingError as exc:
            raise CliError(EXIT_BAD_EMBEDDING, str(exc))
        except (IndexError, ValueError) as exc:
            raise CliError(EXIT_BAD_STATE, f"bad state spec {' '.join(tokens)!r}: {exc}")
    else:
        rho = _load_state_file(name)

    try:
        report = continuum_study(rho, family, args.n, args.phi, n_list, phi0=args.phi0)
    except EmbeddingError as exc:
        raise CliError(EXIT_BAD_EMBEDDING, str(exc))

    for row in report.rows:
        print(
            f"N={row.N} dim={row.dim} phi_grid={row.phi_grid:.6f} "
            f"scaled={row.scaled_value:.10f} target={row.target:.10f} "
            f"err={row.abs_error:.3e}"
        )
    print(f"monotone error decrease: {'yes' if report.monotone() else 'no'}")
    slope = report.slope()
    print(f"fitted error slope: {'n/a' if slope is None else f'{slope:.3f}'}")
    out = args.out or "converge.csv"
    _write(ConvergenceReport.to_csv, report, out)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_relate(args) -> int:
    w = _read_grid_file(args.grid, need=args.direction)
    try:
        if args.direction == "odd":
            _resolve_kernel(w.kernel_label, w.dim, args.epsilon)  # the family rule refuses any skew
            out_grid = relate_odd(w)
        else:
            out_grid = relate_even(w, args.epsilon if args.epsilon is not None else default_epsilon(w.n_half))
    except ValueError as exc:
        raise CliError(EXIT_KERNEL_MISMATCH, str(exc))

    if args.state:
        rho = _resolve_state(args.state, out_grid.dim, out_grid.grid.phi0)
        kernel, _ = _resolve_kernel(out_grid.kernel_label, out_grid.dim, out_grid.epsilon)
        direct = wigner_grid(out_grid.grid, kernel, rho, validate_state=False)
        print(f"max deviation vs direct: {np.max(np.abs(out_grid.values - direct.values)):.3e}")

    out = args.out or "related.json"
    _write(wigner_to_json, out_grid, out)
    print(f"wrote {out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line: one error line, exit 2
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = _Parser(
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
    """Run one command; a closed stdout (``| head``) ends it quietly with exit 141, as SIGPIPE would.
    Each Python warning is one ``warning:`` line; numpy's floating-point flags are ignored,
    as every command maps a non-finite result to its exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            code = args.func(args)
        sys.stdout.flush()
        return code
    except (CliError, MemoryError) as exc:  # a table too large for the host is a refused grid size
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else EXIT_KERNEL_MISMATCH
    except BrokenPipeError:
        sys.stdout = None  # nothing more can reach the reader, also not at exit
        return 141


if __name__ == "__main__":
    sys.exit(main())
