"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = run.run(workload, seed=7, seconds=0.2, trace=False, scale="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["details"]["fail_frac"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["details"]["environment"]["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run_reports_every_layer(workload):
    result = run.run(workload, seed=7, seconds=0.2, trace=True, scale="tiny")
    assert result["correct"] and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units("per_layer")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["cli.calls"] > 0
    assert 0.9 <= result["details"]["span_coverage"] <= 1.0
    if workload == "quantizer-cache":
        assert values["quantizer.cache_bytes"] > 0
        assert values["quantizer.build_quantizer.self_s"] > 0


def test_traced_run_leaves_no_wrappers():
    run.run("wigner-forward", seed=1, seconds=0.05, trace=True, scale="tiny")
    import gridwigner
    import gridwigner.cli

    wigner_module = sys.modules["gridwigner.wigner"]  # the package attribute is the function
    assert gridwigner.wigner_grid is wigner_module.wigner_grid is gridwigner.cli.wigner_grid
    assert not hasattr(gridwigner.cli.wigner_grid, "__wrapped__")


def test_perturbed_grid_value_counts_as_failure(monkeypatch):
    run.import_program()
    import gridwigner.cli

    original = gridwigner.cli.wigner_grid

    def perturbed(*args, **kwargs):
        w = original(*args, **kwargs)
        values = w.values.copy()
        values[0, 0] += 1e-6
        return dataclasses.replace(w, values=values)

    monkeypatch.setattr(gridwigner.cli, "wigner_grid", perturbed)
    result = run.run("wigner-forward", seed=3, seconds=0.1, trace=False, scale="tiny")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["details"]["fail_frac"] == 1.0


def test_perturbed_state_counts_as_failure(monkeypatch):
    run.import_program()
    import gridwigner.cli

    original = gridwigner.cli.save_density_json

    def perturbed(rho, path):
        rho = np.array(rho, copy=True)
        rho[0, 0] += 1e-6
        original(rho, path)

    monkeypatch.setattr(gridwigner.cli, "save_density_json", perturbed)
    result = run.run("reconstruct-inverse", seed=3, seconds=0.1, trace=False, scale="tiny")
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("kernel", ["symmetric", "wootters", "almost-symmetric"])
def test_wigner_gate_rejects_one_changed_value(kernel):
    rng = np.random.default_rng(0)
    d = 6 if kernel == "almost-symmetric" else 7
    eps = 1.0 / d if kernel == "almost-symmetric" else None
    rho = gate.random_state(d, rng)
    values = gate.wigner_values(kernel, rho, 0.3, eps)
    assert gate.check_wigner(values, rho, 0.3, kernel, eps) is None
    values[2, 3] += 1e-7
    assert gate.check_wigner(values, rho, 0.3, kernel, eps) is not None


def test_converge_gate_rejects_non_finite(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("N,n,phi_grid,scaled_value,target,abs_error\n5,0,0.1,0.2,0.2,nan\n")
    assert gate.check_table(path, 1) is not None
    assert gate.check_table(path, 2) is not None


def test_tail_has_ten_jobs_beyond_it():
    latencies = [float(i) for i in range(1, 43)]
    value, pct = run.tail(latencies)
    assert sum(x > value for x in latencies) >= 10
    assert pct == 76 and value == 32.0


def test_typical_latency_is_the_median_of_the_template():
    kinds = ["a", "b", "a", "b", "a"]
    assert run.typical_latencies(kinds, [1.0, 5.0, 3.0, 7.0, 2.0]) == [2.0, 6.0, 2.0, 6.0, 2.0]


def test_speed_factor_uses_the_passes_around_each_span():
    refs = [run.REF_S, run.REF_S, run.REF_S / 2, run.REF_S, run.REF_S]
    assert run.speed_factors(refs) == [1.0] * 4
    assert run.speed_factors([run.REF_S * 2] * 3) == [0.5, 0.5]


def test_probe_reports_every_cell():
    rows = probe.probe(budget=60.0, cells=(("build_quantizer", (5,)), ("reconstruct", (5,))))
    assert [r["function"] for r in rows] == ["build_quantizer", "reconstruct"]
    assert all(r["seconds"] > 0 and r["residual"] < 1e-9 for r in rows)


def test_probe_marks_cells_over_budget():
    rows = probe.probe(budget=0.01, cells=(("wigner_grid", (129, 257)),))
    assert [r.get("skipped") for r in rows] == ["budget", "budget"]
