"""Self-tests of the benchmark, on its reduced-size (smoke) mode.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench", "run.py")
sys.path.insert(0, os.path.join(ROOT, "src"))

from bench import run as bench_run  # noqa: E402
from bench import workloads  # noqa: E402
from bench.tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

# Layer metrics that must read non-zero on a workload, because the layer runs there.
CORE = {
    "evolution.evolve.calls", "evolution.steps", "evolution.step_loop_s", "evolution.eigh_s",
    "evolution.eigh_matrices", "evolution.eigh_unique_frac", "evolution.cell_populations.calls",
    "evolution.cell_populations.self_s", "model.build_hamiltonians.self_s", "model.hamiltonians",
    "protocols.sample_trajectory.calls", "protocols.sample_trajectory.self_s",
    "sweeps.run_sweep.self_s", "sweeps.rows", "config.canonical_json.self_s", "check.ref_err_seeded",
}
NONZERO = {
    "offset_plateau": CORE,
    "period_scan_n30": CORE | {"spectrum.predict_optimal_period.self_s", "spectrum.max_band_width.calls"},
    "cli_demo": {m["name"] for m in BENCHMARK["per_layer"]} - {
        "spectrum.predict_optimal_period.self_s", "spectrum.max_band_width.calls", "trace.overhead_s"},
}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300, check=False)


@pytest.fixture(scope="module")
def smoke_result():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = _run("--workload", workload, "--seed", "1", "--seconds", "0",
                        "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, proc.stderr
            cache[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        return cache[workload, trace]

    return get


def _check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_benchmark_json_matches_run_tables():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        [(name, unit) for name, _, unit in bench_run.PER_LAYER]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench_run.WORKLOADS)


def test_smoke_prints_every_end_to_end_metric(smoke_result):
    result = smoke_result("offset_plateau", 0)
    _check_result(result, BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_traced_smoke_covers_every_layer_that_runs(smoke_result, workload):
    result = smoke_result(workload, 1)
    _check_result(result, BENCHMARK["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    zero = sorted(name for name in NONZERO[workload] if metrics[name] == 0)
    assert not zero, f"layer metrics read zero on {workload}: {zero}"
    if workload == "cli_demo":
        assert metrics["sweeps.worker_cpu_s"] > 0
    else:
        assert metrics["sweeps.worker_cpu_s"] == 0
    if workload == "offset_plateau":
        assert metrics["evolution.eigh_unique_frac"] == pytest.approx(0.5, abs=0.01)


def test_tracer_rebinds_every_module_that_bound_a_name():
    from ricemele import cli, evolution, spectrum, sweeps  # noqa: F401  (load every module)

    originals = {
        "evolution.build_hamiltonians": evolution.build_hamiltonians,
        "evolution.sample_trajectory": evolution.sample_trajectory,
        "spectrum.sample_trajectory": spectrum.sample_trajectory,
        "sweeps.sample_trajectory": sweeps.sample_trajectory,
        "cli.sample_trajectory": cli.sample_trajectory,
        "sweeps.predict_optimal_period": sweeps.predict_optimal_period,
        "sweeps.max_band_width": sweeps.max_band_width,
    }
    eigh = np.linalg.eigh
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unpatched_bindings() == []
        modules = {"evolution": evolution, "spectrum": spectrum, "sweeps": sweeps, "cli": cli}
        for dotted, original in originals.items():
            mod, attr = dotted.split(".")
            assert getattr(modules[mod], attr) is not original, dotted
        assert np.linalg.eigh is not eigh
    finally:
        tracer.uninstall()
    assert np.linalg.eigh is eigh
    assert evolution.build_hamiltonians is originals["evolution.build_hamiltonians"]


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_seeded_inputs_repeat_and_differ(workload, tmp_path):
    def described(seed, sub):
        w = bench_run.make_workload(workload, seed, False, str(tmp_path / sub))
        return workloads.digest(w.describe(w.build()))

    assert described(3, "a") == described(3, "b")
    assert described(3, "a") != described(4, "c")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
                           "offset_plateau", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=str(tmp_path), capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
