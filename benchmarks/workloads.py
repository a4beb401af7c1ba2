"""The four seeded job streams of the gridwigner benchmark.

A workload writes its inputs in :meth:`Workload.setup` and then serves
rounds of jobs.  Every round holds the same fixed multiset of job
templates; the seed decides the inputs, the per-job choices (state,
output format, angles) and the order within a round.  Jobs go through
the public entry points: ``gridwigner.cli.main(argv)`` or the package's
library functions, looked up at call time so that the traced run sees
them through its wrappers.  Job preparation never calls the library.

Why each workload exists, and which layers it stresses, is documented
in ``README.md`` next to this file.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Any, Callable

import numpy as np

import gridwigner
import gridwigner.cli

import gate

SYM, WOOT, ALMOST = "symmetric", "wootters", "almost-symmetric"
STATE_KINDS = ("fock", "phase", "mixed", "random")


@dataclasses.dataclass
class Job:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


def _cli(kind: str, argv: list[str], check: Callable[[], str | None] | None = None) -> Job:
    """A CLI job: exit code 0, then the output check if there is one."""

    def gated(rc):
        if rc != 0:
            return f"exit code {rc}"
        return check() if check else None

    return Job(kind, lambda: gridwigner.cli.main(argv), gated)


def _kernel(d: int, family: str):
    if family == SYM:
        return gridwigner.symmetric_kernel((d - 1) // 2)
    if family == WOOT:
        return gridwigner.wootters_kernel((d - 1) // 2)
    return gridwigner.almost_symmetric_kernel(d // 2)


def _check_state(path: Path, rho: np.ndarray) -> str | None:
    return gate.check_close(gate.read_state(path), rho, "reconstructed state")


def _eps(d: int, family: str) -> float | None:
    """The CLI's default skew angle for even grids: ``1/dim``."""
    return 1.0 / d if family == ALMOST else None


class Workload:
    """Inputs in a work directory, plus the job templates of one round."""

    def __init__(self, workdir: Path, seed: int, params: dict):
        self.dir = Path(workdir)
        self.seed = seed
        self.params = params
        self._rounds_made = 0

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        self._setup(np.random.default_rng([self.seed, 0]))

    def round(self, rng: np.random.Generator) -> list[Job]:
        """The round's templates in seeded order.

        A template's variant (state kind, output format) rotates with the
        round number, so the cost mix of a round does not depend on the seed.
        """
        templates = self.params["round"]
        shift = self._rounds_made
        self._rounds_made += 1
        return [self.job(templates[i], rng, i + shift) for i in rng.permutation(len(templates))]

    def warmup(self, rng: np.random.Generator) -> list[Job]:
        return [self.job(t, rng, i) for i, t in enumerate(self.params["warmup"])]

    def cache_bytes(self) -> int:
        return 0

    def _templates(self):
        return list(self.params["round"]) + list(self.params["warmup"])

    def _setup(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def job(self, template, rng: np.random.Generator, variant: int) -> Job:
        raise NotImplementedError


class WignerForward(Workload):
    """CLI ``wigner`` jobs; output alternates between JSON and CSV."""

    def _setup(self, rng):
        self.states = {}
        for d in sorted({d for d, _ in self._templates()}):
            self.states[d] = gate.random_state(d, rng)
            gate.write_state(self.dir / f"state-{d}.json", self.states[d])

    def job(self, template, rng, variant):
        d, family = template
        phi0 = float(rng.uniform(0.0, 1.0))
        kind = STATE_KINDS[variant % len(STATE_KINDS)]
        if kind == "fock":
            n = int(rng.integers(d))
            spec, rho = ["fock", str(n)], gate.fock(d, n)
        elif kind == "phase":
            m = int(rng.integers(d))
            spec, rho = ["phase", str(m)], gate.phase_projector(d, phi0, m)
        elif kind == "mixed":
            spec, rho = ["mixed"], np.eye(d, dtype=complex) / d
        else:
            spec, rho = [str(self.dir / f"state-{d}.json")], self.states[d]
        fmt = ("json", "csv")[(variant + variant // len(STATE_KINDS)) % 2]
        out = self.dir / f"wigner.{fmt}"
        argv = ["wigner", "--dim", str(d), "--kernel", family, "--phi0", repr(phi0),
                "--state", *spec, "--out", str(out), "--format", fmt]

        def check():
            return gate.check_wigner(gate.read_grid(out)[1], rho, phi0, family, _eps(d, family))

        return _cli(f"wigner d={d} {family}", argv, check)


class ReconstructInverse(Workload):
    """CLI ``reconstruct`` jobs on integer-grid files of random full-rank states."""

    def _setup(self, rng):
        self.states = {}
        for d, family in sorted(set(self._templates())):
            rho = gate.random_state(d, rng)
            phi0 = float(rng.uniform(0.0, 1.0))
            eps = _eps(d, family)
            values = gate.wigner_values(family, rho, phi0, eps)
            gate.write_grid(self.dir / f"grid-{d}-{family}.json", family, phi0, values, d, eps)
            self.states[d, family] = rho

    def job(self, template, rng, variant):
        d, family = template
        out = self.dir / "state.json"
        argv = ["reconstruct", "--grid", str(self.dir / f"grid-{d}-{family}.json"), "--out", str(out)]
        rho = self.states[d, family]
        return _cli(f"reconstruct d={d} {family}", argv, lambda: _check_state(out, rho))


class TomographySuite(Workload):
    """Half-integer reconstruction, both relation transforms and continuum sweeps."""

    def _setup(self, rng):
        self.states = {}
        for what, size in sorted(set(self._templates())):
            if what in ("half", "relate-even") and ("half", size) not in self.states:
                rho = gate.random_state(2 * size, rng)
                phi0 = float(rng.uniform(0.0, 1.0))
                gate.write_grid(self.dir / f"half-{size}.json", "leonhardt", phi0,
                                gate.leonhardt_values(rho, phi0), 2 * size)
                gate.write_state(self.dir / f"half-state-{size}.json", rho)
                self.states["half", size] = (rho, phi0)
            elif what == "relate-odd" and ("odd", size) not in self.states:
                rho = gate.random_state(size, rng)
                phi0 = float(rng.uniform(0.0, 1.0))
                gate.write_grid(self.dir / f"odd-{size}.json", WOOT, phi0,
                                gate.wootters_values(rho, phi0), size)
                gate.write_state(self.dir / f"odd-state-{size}.json", rho)
                self.states["odd", size] = (rho, phi0)
        gate.write_state(self.dir / "converge-state.json", gate.random_state(3, rng))

    def job(self, template, rng, variant):
        what, size = template
        if what == "half":
            rho, _ = self.states["half", size]
            out = self.dir / "state.json"
            argv = ["reconstruct", "--grid", str(self.dir / f"half-{size}.json"), "--out", str(out)]
            return _cli(f"reconstruct half N={size}", argv, lambda: _check_state(out, rho))
        if what in ("relate-even", "relate-odd"):
            even = what == "relate-even"
            rho, phi0 = self.states["half" if even else "odd", size]
            stem = f"half-{size}" if even else f"odd-{size}"
            family, eps = (ALMOST, 1.0 / (2 * size)) if even else (SYM, None)
            out = self.dir / "related.json"
            argv = ["relate", "--direction", "even" if even else "odd",
                    "--grid", str(self.dir / f"{stem}.json"),
                    "--state", str(self.dir / f"{stem.replace('-', '-state-')}.json"), "--out", str(out)]

            def check():
                header, values = gate.read_grid(out)
                if even and header.get("epsilon") != eps:
                    return f"epsilon {header.get('epsilon')!r}, expected {eps!r}"
                return gate.check_close(values, gate.wigner_values(family, rho, phi0, eps), "related grid")

            return _cli(f"{what} {'N' if even else 'd'}={size}", argv, check)
        # converge: the state's support plus the tracked level stays below min(Ns)
        ns = self.params["converge_ns"]
        spec, support = [
            (["superposition01"], 2),
            (["fock", "1"], 2),
            ([str(self.dir / "converge-state.json")], 3),
        ][variant % 3]
        n = int(rng.integers(min(ns) - support + 1))
        phi = float(rng.uniform(-math.pi, math.pi))
        out = self.dir / "converge.csv"
        argv = ["converge", "--kernel", size, "--state", *spec, "--n", str(n), f"--phi={phi!r}",
                "--Ns", ",".join(map(str, ns)), "--out", str(out)]
        return _cli(f"converge {size}", argv, lambda: gate.check_table(out, len(ns)))


class QuantizerCache(Workload):
    """Cached quantizer queries through the library, plus a few CLI ``verify`` jobs."""

    def _setup(self, rng):
        self.caches = {}
        for d, family in self.params["caches"]:
            phi0 = float(rng.uniform(0.0, 1.0))
            q = gridwigner.build_quantizer(gridwigner.PhaseGrid(d, phi0), _kernel(d, family))
            self.caches[d, family] = (q, phi0)

    def cache_bytes(self) -> int:
        """Sum of ``nbytes`` over the ndarray fields of every cached Quantizer."""
        total = 0
        for q, _ in self.caches.values():
            for f in dataclasses.fields(q):
                value = getattr(q, f.name)
                if isinstance(value, np.ndarray):
                    total += value.nbytes
        return total

    def job(self, template, rng, variant):
        what, d, family = template
        if what == "verify":
            argv = ["verify", "--dim", str(d), "--kernel", family, "--phi0", repr(float(rng.uniform(0.0, 1.0)))]
            return _cli(f"verify d={d} {family}", argv)
        q, phi0 = self.caches[d, family]
        kind = f"{what} d={d} {family}"
        if what == "wigner":
            rho = gate.random_state(d, rng)
            return Job(kind, lambda: gridwigner.wigner(q, rho),
                       lambda w: gate.check_wigner(w.values, rho, phi0, family, _eps(d, family)))
        if what == "quantize":
            g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            p = gate.phase_basis(d, phi0)
            expected = (p * g) @ p.conj().T + np.diag(h)
            return Job(kind, lambda: gridwigner.quantize(q, g[:, None] + h[None, :]),
                       lambda op: gate.check_close(op, expected, "quantized operator"))
        if what == "symbol":
            f = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            return Job(kind, lambda: gridwigner.symbol(q, gridwigner.quantize(q, f)),
                       lambda back: gate.check_close(back, f, "symbol round trip"))
        if what == "ordering":
            f1 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            f2 = rng.standard_normal(d) + 1j * rng.standard_normal(d)

            def check(report):
                return None if report.deviation <= gate.TOL else f"ordering deviation {report.deviation:.3e}"

            return Job(kind, lambda: gridwigner.ordering_check(q, f1, f2), check)
        # line: any non-degenerate line for the sign kernel, axis lines otherwise
        n3 = int(rng.integers(d))
        if family == WOOT:
            while True:
                n1, n2 = (int(x) for x in rng.integers(d, size=2))
                if math.gcd(math.gcd(n1, n2), d) == 1:
                    break
            line = gridwigner.Line(n1, n2, n3, d)
            return Job(kind, lambda: gridwigner.line_projector(q, line), lambda op: gate.check_projector(op, 1))
        if variant % 2:
            line, expected = gridwigner.Line(1, 0, n3, d), gate.phase_projector(d, phi0, n3)
        else:
            line, expected = gridwigner.Line(0, 1, n3, d), gate.fock(d, n3)
        return Job(kind, lambda: gridwigner.line_projector(q, line),
                   lambda op: gate.check_close(op, expected, "axis line projector"))


def _query_round(caches, verify):
    """Every query that applies to each cache, plus the verify templates."""
    out = []
    for d, family in caches:
        out += [("wigner", d, family), ("quantize", d, family), ("symbol", d, family)]
        if family != WOOT:
            out.append(("ordering", d, family))
        if d % 2:
            out.append(("line", d, family))
    return out + [("verify", d, family) for d, family in verify]


_CACHES = [(9, SYM), (9, WOOT), (15, SYM), (15, WOOT), (21, SYM), (21, WOOT), (31, SYM), (31, WOOT),
           (8, ALMOST), (16, ALMOST), (30, ALMOST)]

#: One template per (job kind, d, kernel) or state size that the workload
#: covers, so no kind is weighted above another.  ``round_s`` is the time
#: budget of one round: a run of ``--seconds`` measures
#: ``round(seconds / round_s)`` whole rounds, at least one, so every run
#: ranks the same multiset of jobs whatever the host's speed.
SCALES = {
    "full": {
        "wigner-forward": {
            "round": [(33, SYM), (33, WOOT), (32, ALMOST), (65, SYM), (65, WOOT), (64, ALMOST),
                      (97, SYM), (97, WOOT), (96, ALMOST), (129, SYM), (129, WOOT), (128, ALMOST)],
            "warmup": [(33, SYM), (33, WOOT), (32, ALMOST)],
            "round_s": 6.0,
        },
        "reconstruct-inverse": {
            "round": [(65, SYM), (65, WOOT), (64, ALMOST), (129, SYM), (129, WOOT), (128, ALMOST),
                      (257, SYM), (257, WOOT), (256, ALMOST)],
            "warmup": [(65, SYM), (65, WOOT), (64, ALMOST)],
            "round_s": 6.0,
        },
        "quantizer-cache": {
            "caches": _CACHES,
            "round": _query_round(_CACHES, [(d, f) for d, f in _CACHES if d <= 21]),
            "warmup": _query_round([(9, SYM), (9, WOOT), (8, ALMOST)], [(9, WOOT), (8, ALMOST)]),
            "round_s": 3.0,
        },
        "tomography-suite": {
            "round": [("half", 3), ("half", 4), ("half", 5), ("half", 6),
                      ("relate-even", 3), ("relate-even", 4), ("relate-even", 5), ("relate-even", 6),
                      ("relate-odd", 33), ("relate-odd", 65),
                      ("converge", SYM), ("converge", WOOT), ("converge", ALMOST)],
            "warmup": [("half", 3), ("relate-even", 3), ("relate-odd", 33), ("converge", SYM),
                       ("converge", ALMOST)],
            "converge_ns": (5, 10, 20, 40, 80, 160),
            "round_s": 3.5,
        },
    },
    # Small enough for the benchmark's own tests; same job kinds.
    "tiny": {
        "wigner-forward": {
            "round": [(5, SYM), (5, WOOT), (4, ALMOST), (7, SYM)],
            "warmup": [(3, SYM)],
            "round_s": 0.1,
        },
        "reconstruct-inverse": {
            "round": [(5, SYM), (5, WOOT), (4, ALMOST)],
            "warmup": [(3, WOOT)],
            "round_s": 0.1,
        },
        "quantizer-cache": {
            "caches": [(5, SYM), (5, WOOT), (4, ALMOST)],
            "round": _query_round([(5, SYM), (5, WOOT), (4, ALMOST)], [(5, WOOT), (4, ALMOST)]),
            "warmup": [("wigner", 5, SYM)],
            "round_s": 0.1,
        },
        "tomography-suite": {
            "round": [("half", 2), ("relate-even", 2), ("relate-odd", 5), ("converge", SYM),
                      ("converge", WOOT), ("converge", ALMOST)],
            "warmup": [("half", 1)],
            "converge_ns": (5, 10),
            "round_s": 0.1,
        },
    },
}

WORKLOADS = {
    "wigner-forward": WignerForward,
    "reconstruct-inverse": ReconstructInverse,
    "quantizer-cache": QuantizerCache,
    "tomography-suite": TomographySuite,
}


def make(name: str, workdir: Path, seed: int, scale: str = "full") -> Workload:
    return WORKLOADS[name](workdir, seed, SCALES[scale][name])
