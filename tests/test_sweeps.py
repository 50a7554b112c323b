"""Sweep drivers: grids, parallel dispatch, serialization, ripple analysis."""

import concurrent.futures
import json
import os
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ricemele
from ricemele import evolution, protocols, sweeps
from ricemele.config import config_hash
from ricemele.evolution import EvolutionConfig, evolve, initial_dimer_state, mean_position_and_spread
from ricemele.model import TWO_PI, ChainSpec
from ricemele.protocols import PumpProtocol, sample_trajectory
from ricemele.spectrum import efficiency_vs_period, find_optimal_period, max_band_width, transport_efficiency
from ricemele.sweeps import (
    KINDS,
    SweepResult,
    SweepSpec,
    build_sweep_spec,
    ripple_frequency,
    run_sweep,
    write_sweep_csv,
    write_sweep_json,
)

CHAIN = ChainSpec(5)
PROTO = PumpProtocol("experimental", TWO_PI * 2.5, TWO_PI * 4.0, 0.0, 0.5, 1)


def offset_spec(jobs=1, n_offsets=4):
    return SweepSpec(
        kind="offset",
        chain=CHAIN,
        protocol=PROTO,
        axes={
            "delta0": np.array([TWO_PI * 4.0]),
            "delta_offset": np.linspace(-TWO_PI * 2, TWO_PI * 2, n_offsets),
        },
        dt=PROTO.period / 512,
        jobs=jobs,
    )


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec("bogus", CHAIN, PROTO)
    with pytest.raises(ValueError):
        SweepSpec("offset", CHAIN, PROTO, axes={"delta0": np.array([])})
    with pytest.raises(ValueError):
        SweepSpec("offset", CHAIN, PROTO, axes={"delta0": np.array([1.0, 1.0, 2.0])})
    # strictly decreasing grids are allowed
    SweepSpec("offset", CHAIN, PROTO, axes={"delta0": np.array([3.0, 2.0, 1.0])})


def test_sweep_result_shape_validation():
    with pytest.raises(ValueError):
        SweepResult(
            kind="offset",
            axis_names=("a",),
            axes={"a": np.arange(3.0)},
            columns=("x",),
            values=np.zeros((2, 1)),
            metadata={},
        )


def test_config_hash_ignores_jobs():
    a, b = offset_spec(jobs=1), offset_spec(jobs=4)
    assert config_hash(a.to_dict()) == config_hash(b.to_dict())
    assert a.to_dict() == b.to_dict()


def mean_position_reference(chain, proto, start_cell, dt):
    psi0 = initial_dimer_state(chain, sample_trajectory(proto, 0.0), start_cell)
    final = evolve(chain, proto, psi0, EvolutionConfig(dt=dt, store_states=False)).final_state
    mean, spread = mean_position_and_spread(final, chain)
    return (mean - start_cell, spread)


def test_offset_sweep_rows_and_metadata():
    result = run_sweep(offset_spec())
    assert result.axis_names == ("delta0", "delta_offset")
    assert result.columns == ("efficiency",)
    assert result.values.shape == (4, 1)
    assert np.all((result.values >= 0.0) & (result.values <= 1.0))
    assert result.metadata["kind"] == "offset"
    assert result.metadata["provenance"] == f"ricemele {ricemele.__version__}"
    assert len(result.metadata["config_sha256"]) == 64


def compare_spec(jobs=1):
    protocol = PumpProtocol("experimental", TWO_PI * 1.5, TWO_PI * 7.0, 0.0, 1.0, 1)
    return SweepSpec("protocol_compare", CHAIN, protocol, {"period": np.array([0.4, 0.9, 1.6])},
                     dt=0.002, jobs=jobs)


def mean_position_spec(jobs=1):
    """Three periods at the default step: one schedule key for the whole grid."""
    protocol = PumpProtocol("experimental", TWO_PI * 1.5, TWO_PI * 7.0, 0.0, 1.0, 2)
    return SweepSpec("mean_position", ChainSpec(6), protocol, {"period": np.array([0.4, 0.6, 0.9])}, jobs=jobs)


def period_delta_spec(jobs=1):
    return SweepSpec("period_delta", CHAIN, PROTO, {"period": np.array([0.4, 0.6]),
                                                    "delta0": np.array([TWO_PI * 5.0, TWO_PI * 6.0])},
                     dt=0.01, jobs=jobs)


def topt_collapse_spec(jobs=1):
    return SweepSpec("topt_collapse", CHAIN, PROTO, {"j_max": np.array([TWO_PI * 1.5]),
                                                     "delta0": np.array([TWO_PI * 5.0, TWO_PI * 7.0])},
                     scan_grid=SCAN, jobs=jobs)


def size_spec(jobs=1):
    return SweepSpec("size", CHAIN, PROTO, {"n_sites": np.array([5, 7]), "period": np.array([0.4, 0.6])},
                     center_sizes=(7,), dt=0.01, jobs=jobs)


SPECS = {"offset": offset_spec, "period_delta": period_delta_spec, "protocol_compare": compare_spec,
         "topt_collapse": topt_collapse_spec, "mean_position": mean_position_spec, "size": size_spec}


@pytest.mark.parametrize("kind", KINDS)
def test_parallel_matches_serial_exactly(kind):
    serial = run_sweep(SPECS[kind](jobs=1))
    parallel = run_sweep(SPECS[kind](jobs=2))
    assert np.array_equal(serial.values, parallel.values)
    assert serial.metadata == parallel.metadata


class InlineExecutor:
    """Stand-in for ProcessPoolExecutor that records its worker count and
    start method, and runs each task in order; it starts no process."""

    workers = []

    def __init__(self, max_workers, mp_context):
        self.workers.append((max_workers, mp_context.get_start_method()))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


def power(base, exponent, records):
    """A row function of no runs, for the pool tests."""
    return base**exponent


@pytest.mark.parametrize("jobs, cores, workers", [
    (1, 64, None), (500, 64, 5), (500, 2, 2), (3, 64, 3), (2, None, 1)])
def test_pool_starts_no_more_workers_than_groups_or_cores(monkeypatch, jobs, cores, workers):
    monkeypatch.setattr(InlineExecutor, "workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    groups = [[(power, (g, k), []) for k in range(g + 1)] for g in range(5)]
    assert sweeps._run_groups(groups, jobs) == [[g**k for k in range(g + 1)] for g in range(5)]
    assert [n for n, _ in InlineExecutor.workers] == ([] if workers is None else [workers])


def test_pool_forks_only_where_no_other_thread_runs(monkeypatch):
    monkeypatch.setattr(InlineExecutor, "workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    groups = [[(power, (-1, 1), [])], [(power, (-2, 1), [])]]
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        sweeps._run_groups(groups, 2)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    alone = "fork" if sys.platform == "linux" else "spawn"
    sweeps._run_groups(groups, 2)
    monkeypatch.setattr(sys, "platform", "darwin")
    sweeps._run_groups(groups, 2)
    assert [method for _, method in InlineExecutor.workers] == ["spawn", alone, "spawn"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the pool forks only on Linux")
def test_pool_forks_a_process_of_one_thread():
    # The workers are forked after the BLAS has run threaded products; the
    # fork is safe only if the process has one thread when it forks, which
    # holds when the BLAS stops its threads at fork (OpenBLAS on pthreads).
    script = """
import os
import numpy as np
from ricemele import sweeps
def magnitude(x, records):
    return abs(x)
a = np.ones((600, 600))
a @ a
counts = []
os.register_at_fork(after_in_parent=lambda: counts.append(len(os.listdir("/proc/self/task"))))
assert sweeps._run_groups([[(magnitude, (-1,), [])], [(magnitude, (-2,), [])]], 2) == [[1], [2]]
print(counts)
"""
    src = os.path.dirname(os.path.dirname(ricemele.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [1, 1]


# kind -> (spec chain, axes, center_sizes, the (chain, protocol, start cell) of each
# of the two grid points in row-major order). The protocol template is PROTO.
SCAN = tuple(np.linspace(0.3, 1.8, 16))
POINTS = {
    "offset": (CHAIN, {"delta0": [TWO_PI * 4.0], "delta_offset": [-TWO_PI, TWO_PI]}, (), [
        (CHAIN, replace(PROTO, delta_offset=-TWO_PI), 1),
        (CHAIN, replace(PROTO, delta_offset=TWO_PI), 1)]),
    "period_delta": (CHAIN, {"period": [0.4], "delta0": [TWO_PI * 5.0, TWO_PI * 6.0]}, (), [
        (CHAIN, replace(PROTO, period=0.4, delta0=TWO_PI * 5.0), 1),
        (CHAIN, replace(PROTO, period=0.4, delta0=TWO_PI * 6.0), 1)]),
    "protocol_compare": (CHAIN, {"period": [0.4, 0.6]}, (), [
        (CHAIN, replace(PROTO, period=0.4), 1),
        (CHAIN, replace(PROTO, period=0.6), 1)]),
    "topt_collapse": (CHAIN, {"j_max": [TWO_PI * 1.5], "delta0": [TWO_PI * 5.0, TWO_PI * 7.0]}, (), [
        (CHAIN, replace(PROTO, j_max=TWO_PI * 1.5, delta0=TWO_PI * 5.0), 1),
        (CHAIN, replace(PROTO, j_max=TWO_PI * 1.5, delta0=TWO_PI * 7.0), 1)]),
    "mean_position": (ChainSpec(6), {"period": [0.4, 0.6]}, (), [
        (ChainSpec(6), replace(PROTO, period=0.4), 2),
        (ChainSpec(6), replace(PROTO, period=0.6), 2)]),
    "size": (CHAIN, {"n_sites": [5, 7], "period": [0.5]}, (7,), [
        (ChainSpec(5), PROTO, 1),
        (ChainSpec(7), PROTO, 2)]),
}


@pytest.mark.parametrize("kind", KINDS)
def test_run_sweep_matches_point_by_point_reference(kind):
    chain, axes, center_sizes, points = POINTS[kind]
    dt = 0.005
    spec = SweepSpec(kind, chain, PROTO, {k: np.asarray(v) for k, v in axes.items()},
                     scan_grid=SCAN if kind == "topt_collapse" else (), center_sizes=center_sizes, dt=dt)
    expected = []
    for point_chain, proto, start in points:
        if kind == "topt_collapse":
            row = (1.0 / max_band_width(proto), find_optimal_period(point_chain, proto, np.asarray(SCAN), None, start))
        elif kind == "mean_position":
            row = mean_position_reference(point_chain, proto, start, dt)
        elif kind == "protocol_compare":
            row = tuple(transport_efficiency(point_chain, replace(proto, kind=k), start, "lower", dt)
                        for k in ("experimental", "control_freak"))
        else:
            row = (transport_efficiency(point_chain, proto, start, "lower", dt),)
        expected.append(row)
    result = run_sweep(spec)
    assert result.values.shape == (2, len(result.columns))
    assert np.array_equal(result.values, np.array(expected))


# Values of each sweep axis for the jobs property test: small grids, cheap runs.
AXIS_VALUES = {
    "delta0": st.floats(TWO_PI * 3.0, TWO_PI * 8.0),
    "delta_offset": st.floats(-TWO_PI * 8.0, TWO_PI * 8.0),
    "period": st.floats(0.2, 1.0),
    "j_max": st.floats(TWO_PI * 1.0, TWO_PI * 2.5),
    "n_sites": st.integers(4, 8),
}


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_jobs_do_not_change_any_sweep_value(kind, data):
    """Serial and two-worker sweeps agree bit for bit on drawn grids of one
    or two values per axis, at one to three cycles; each example starts
    one pool."""
    axes = {name: np.array(sorted(data.draw(st.lists(AXIS_VALUES[name], min_size=1, max_size=2, unique=True),
                                            label=name)))
            for name in sweeps._KINDS[kind][1]}
    protocol = replace(PROTO, n_cycles=data.draw(st.integers(1, 3), label="n_cycles"))
    spec = SweepSpec(kind, ChainSpec(6), protocol, axes, scan_grid=SCAN if kind == "topt_collapse" else (), dt=0.02)
    assert np.array_equal(run_sweep(spec).values, run_sweep(replace(spec, jobs=2)).values)


def test_run_sweep_names_missing_and_unexpected_axes():
    spec = SweepSpec("offset", CHAIN, PROTO, axes={"delta0": np.array([TWO_PI * 4.0]), "period": np.array([0.5])})
    with pytest.raises(ValueError, match=r"missing \['delta_offset'\], unexpected \['period'\]"):
        run_sweep(spec)


def test_protocol_compare_pairs_columns():
    spec = compare_spec()
    result = run_sweep(spec)
    assert result.columns == ("experimental", "control_freak")
    assert result.values.shape == (3, 2)
    for i, period in enumerate(spec.axes["period"]):
        for j, kind in enumerate(result.columns):
            proto = PumpProtocol(kind, spec.protocol.j_max, spec.protocol.delta0,
                                 0.0, float(period), 1)
            expected = transport_efficiency(CHAIN, proto, 1, "lower", 0.002)
            assert result.values[i, j] == expected


def test_mean_position_uses_center_start():
    chain = ChainSpec(6)
    spec = SweepSpec(
        kind="mean_position",
        chain=chain,
        protocol=PumpProtocol("experimental", TWO_PI * 1.5, TWO_PI * 7.0, 0.0, 1.0, 1),
        axes={"period": np.array([0.5, 1.0])},
        dt=0.005,
    )
    result = run_sweep(spec)
    assert result.columns == ("shift", "sigma")
    assert result.values.shape == (2, 2)
    proto = PumpProtocol("experimental", TWO_PI * 1.5, TWO_PI * 7.0, 0.0, 0.5, 1)
    expected = mean_position_reference(chain, proto, 2, 0.005)
    assert tuple(result.values[0]) == expected
    assert np.all(result.values[:, 1] >= 0.0)


def test_size_sweep_centers_selected_sizes():
    spec = SweepSpec(
        kind="size",
        chain=ChainSpec(5),
        protocol=PumpProtocol("experimental", TWO_PI * 1.5, TWO_PI * 7.0, 0.0, 1.0, 1),
        axes={"n_sites": np.array([5, 7]), "period": np.array([0.5, 1.0])},
        center_sizes=(7,),
        dt=0.005,
    )
    result = run_sweep(spec)
    assert result.values.shape == (4, 1)
    proto = PumpProtocol("experimental", TWO_PI * 1.5, TWO_PI * 7.0, 0.0, 0.5, 1)
    # size 7 has 4 cells, so its start cell is the center cell 2
    expected = transport_efficiency(ChainSpec(7), proto, 2, "lower", 0.005)
    assert result.values[2, 0] == expected
    edge = transport_efficiency(ChainSpec(5), proto, 1, "lower", 0.005)
    assert result.values[0, 0] == edge


def test_topt_collapse_scan_grid_validation():
    spec = SweepSpec(
        kind="topt_collapse",
        chain=CHAIN,
        protocol=PROTO,
        axes={"j_max": np.array([TWO_PI]), "delta0": np.array([TWO_PI * 5])},
        scan_grid=tuple(np.linspace(0.5, 2.0, 8)),
    )
    with pytest.raises(ValueError):
        run_sweep(spec)


def test_topt_collapse_auto_grid_brackets_prediction():
    template = PumpProtocol("experimental", TWO_PI * 1.5, TWO_PI * 7.0, 0.0, 1.0, 2)
    spec = SweepSpec(
        kind="topt_collapse",
        chain=CHAIN,
        protocol=template,
        axes={"j_max": np.array([template.j_max]), "delta0": np.array([template.delta0])},
    )
    result = run_sweep(spec)
    assert result.columns == ("inv_band_width", "t_opt")
    inv_width, t_opt = result.values[0]
    width = max_band_width(template)
    assert inv_width == pytest.approx(1.0 / width)
    ratio = t_opt * width / TWO_PI
    assert 0.1 <= ratio <= 1.2


def test_build_sweep_spec_applies_file_units():
    section = {
        "j_max_mhz": [1.0, 2.0],
        "delta0_mhz": [5.0],
        "scan_grid_us": list(np.linspace(0.5, 4.0, 16)),
        "n_sites": 7,
    }
    spec = build_sweep_spec("topt_collapse", section, jobs=3, dt=0.05)
    assert spec.kind == "topt_collapse"
    assert spec.to_dict()["dt"] is None  # its period scans step period / 512 whatever dt is
    assert spec.chain.n_sites == 7
    np.testing.assert_allclose(spec.axes["j_max"], TWO_PI * np.array([1.0, 2.0]))
    np.testing.assert_allclose(spec.axes["delta0"], [TWO_PI * 5.0])
    assert len(spec.scan_grid) == 16
    assert spec.jobs == 3


def test_build_sweep_spec_mean_position_grid():
    spec = build_sweep_spec("mean_position", {"n_cells": 4, "span_factor": 2.0, "n_periods": 5})
    assert spec.chain.n_sites == 8
    assert spec.to_dict()["start_cell"] == 2  # every point starts in the center cell
    with pytest.raises(ValueError, match=r"unknown keys \['start_cell'\]"):
        build_sweep_spec("mean_position", {"n_cells": 4, "start_cell": 1})
    grid = spec.axes["period"]
    assert len(grid) == 5
    assert grid[-1] / grid[0] == pytest.approx(4.0)
    explicit = build_sweep_spec("mean_position", {"n_cells": 4, "period_us": [1.0, 2.0]})
    np.testing.assert_array_equal(explicit.axes["period"], [1.0, 2.0])


def test_build_sweep_spec_defaults_exist_for_every_kind():
    for kind in ("offset", "period_delta", "protocol_compare", "topt_collapse",
                 "mean_position", "size"):
        spec = build_sweep_spec(kind)
        assert spec.kind == kind
    with pytest.raises(ValueError):
        build_sweep_spec("bogus")


# one valid non-default value of every key some sweep section takes
SECTION_VALUES = {"branch": "upper", "center_sizes": [5], "delta0_mhz": 3.0, "delta_offset_mhz": 1.0,
                  "j_max_mhz": 1.0, "n_cells": 5, "n_cycles": 3, "n_periods": 3, "n_sites": 7, "period_us": 2.0,
                  "scan_grid_us": [0.5, 1.0], "sizes": 7, "span_factor": 1.5, "start_cell": 2}


@pytest.mark.parametrize("kind", KINDS)
def test_build_sweep_spec_takes_exactly_the_keys_it_reads(kind):
    with pytest.raises(ValueError, match=r"unknown keys \['kind', 'start_cel'\]; a " + kind + " sweep takes") as info:
        build_sweep_spec(kind, {"start_cel": 2, "kind": kind})
    keys = str(info.value).split(" takes ")[1].split(", ")
    default = build_sweep_spec(kind).to_dict()
    for key in keys:
        # every key the section takes moves the resolved spec
        assert build_sweep_spec(kind, {key: SECTION_VALUES[key]}).to_dict() != default, key


def test_write_sweep_csv_layout_and_round_trip(tmp_path):
    result = run_sweep(offset_spec())
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ricemele ")
    assert lines[1] == "# kind: offset"
    assert lines[2].startswith("# config_sha256: ")
    assert lines[3].startswith("# axis delta0: ")
    assert lines[4].startswith("# axis delta_offset: ")
    assert lines[5] == "# columns: delta0,delta_offset,efficiency"
    data = np.loadtxt(path, delimiter=",")
    assert data.shape == (4, 3)
    # row-major order: the first axis varies slowest
    np.testing.assert_array_equal(data[:, 0], np.full(4, TWO_PI * 4.0))
    np.testing.assert_array_equal(data[:, 1], offset_spec().axes["delta_offset"])
    np.testing.assert_array_equal(data[:, 2], result.values[:, 0])


def test_write_sweep_json_round_trip(tmp_path):
    result = run_sweep(offset_spec())
    path = tmp_path / "sweep.json"
    write_sweep_json(result, str(path))
    text = path.read_text()
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["kind"] == "offset"
    assert payload["axis_order"] == ["delta0", "delta_offset"]
    assert payload["columns"] == ["efficiency"]
    np.testing.assert_array_equal(np.array(payload["values"]), result.values)


def test_ripple_frequency_recovers_synthetic_tone():
    periods = np.linspace(0.0, 4.0, 257)
    effs = 0.5 + 0.3 * np.cos(2 * np.pi * 3.2 * periods)
    assert abs(ripple_frequency(periods, effs) - 3.2) < 0.3


def test_ripple_frequency_grid_validation():
    with pytest.raises(ValueError):
        ripple_frequency(np.array([0.0, 0.1, 0.3]), np.zeros(3))
    with pytest.raises(ValueError):
        ripple_frequency(np.array([0.0, 0.1, 0.2]), np.zeros(3))


def test_ripple_frequency_tracks_delta0_not_coupling():
    """The fast efficiency oscillation frequency follows the imbalance
    amplitude and is insensitive to the coupling strength."""
    chain = ChainSpec(5)
    periods = np.linspace(0.8, 4.0, 160)

    def ripple(j_max, delta0):
        template = PumpProtocol("experimental", j_max, delta0, 0.0, 1.0, 1)
        effs = efficiency_vs_period(chain, template, periods, dt_per_cycle=1024)
        return ripple_frequency(periods, effs)

    base = ripple(TWO_PI * 1.0, TWO_PI * 5.0)
    higher_delta = ripple(TWO_PI * 1.0, TWO_PI * 9.0)
    stronger_j = ripple(TWO_PI * 2.0, TWO_PI * 5.0)
    assert higher_delta / base == pytest.approx(1.8, rel=0.15)
    assert stronger_j / base == pytest.approx(1.0, rel=0.15)


@pytest.mark.parametrize("n_sites", [5, 12, 24, 30, 31])
def test_period_stacks_equal_point_by_point_evolve(propagate_stacks, eigh_matrices, n_sites):
    """A group's periods are stepped as one stack, in the step form of
    their chain length: the sweep rows, at --jobs 1 and 2, and the
    efficiency_vs_period values keep the bits of one evolve per period, and
    each decomposes one grid."""
    chain = ChainSpec(n_sites)
    spec = replace(mean_position_spec(), chain=chain)
    rows = run_sweep(spec).values
    assert eigh_matrices((n_sites + 1) // 2) == 1024 and propagate_stacks == [3]
    for row, period in zip(rows, spec.axes["period"]):
        proto = replace(spec.protocol, period=float(period))
        assert tuple(row) == mean_position_reference(chain, proto, spec.start_cell, None)
    assert np.array_equal(run_sweep(replace(spec, jobs=2)).values, rows)
    periods, start = np.array([0.5, 0.8, 1.2]), min(3, n_sites // 2)
    before = eigh_matrices((n_sites + 1) // 2)
    values = efficiency_vs_period(chain, spec.protocol, periods, start_cell=start)
    assert eigh_matrices((n_sites + 1) // 2) - before == 1024 and propagate_stacks[-1] == 3
    expected = [transport_efficiency(chain, replace(spec.protocol, period=float(p)), start, "lower", float(p) / 512)
                for p in periods]
    assert np.array_equal(values, expected)


def test_sweep_decomposes_one_run_for_all_its_periods(eigh_matrices):
    spec = mean_position_spec()
    result = run_sweep(spec)
    # one cycle of 512 CF4 steps, two exponents a step, once for both cycles of the 3 periods, not 6 times;
    # each exponent is decomposed through its odd-site block of 3 rows
    assert eigh_matrices(3) == 1024
    for row, period in zip(result.values, spec.axes["period"]):
        proto = replace(spec.protocol, period=float(period))
        assert tuple(row) == mean_position_reference(spec.chain, proto, spec.start_cell, None)


def test_each_sweep_decomposes_afresh(eigh_matrices):
    first = run_sweep(mean_position_spec())
    assert eigh_matrices(3) == 1024
    second = run_sweep(mean_position_spec())
    assert eigh_matrices(3) == 2 * 1024
    assert np.array_equal(first.values, second.values)


def test_lone_sweep_group_holds_no_decomposition(eigh_matrices):
    """A group of one run has nothing to share: a stack of one streams its
    exponents, one cycle's grid decomposed for each of its two cycles, as a
    direct evolve call does."""
    spec = replace(mean_position_spec(), axes={"period": np.array([0.6])})
    run_sweep(spec)
    assert eigh_matrices(3) == 2 * 1024


def test_grid_points_sharing_a_schedule_share_decompositions(eigh_matrices):
    """period_delta puts period first, so points sharing a delta0 are not
    adjacent in row order; they still share one decomposition, and every
    row is written back in place."""
    spec = SweepSpec("period_delta", CHAIN, PROTO,
                     {"period": np.array([0.4, 0.6]), "delta0": np.array([TWO_PI * 5.0, TWO_PI * 6.0])})
    result = run_sweep(spec)
    assert eigh_matrices(3) == 2 * 1024  # two delta0 values, 512 steps of two exponents each
    expected = [transport_efficiency(CHAIN, replace(PROTO, period=p, delta0=d))
                for p in (0.4, 0.6) for d in (TWO_PI * 5.0, TWO_PI * 6.0)]
    assert np.array_equal(result.values[:, 0], expected)


def test_protocol_compare_decomposes_each_kind_once(eigh_matrices):
    spec = replace(compare_spec(), dt=None)
    run_sweep(spec)
    assert eigh_matrices(3) == 2 * 1024  # one run per protocol kind, for all three periods


def test_efficiency_vs_period_decomposes_once_per_call(eigh_matrices):
    periods = np.array([0.4, 0.5, 0.7])
    first = efficiency_vs_period(CHAIN, PROTO, periods, dt_per_cycle=256)
    assert eigh_matrices(3) == 512  # 256 steps of two exponents each
    assert np.array_equal(efficiency_vs_period(CHAIN, PROTO, periods, dt_per_cycle=256), first)
    assert eigh_matrices(3) == 2 * 512


@pytest.mark.parametrize("n_cycles", [1, 2, 3])
@pytest.mark.parametrize("n_sites", [5, 12, 24, 30])
def test_offset_stacks_equal_point_by_point_evolve(propagate_stacks, n_sites, n_cycles):
    """An offset sweep's points share the chain, step count and cycle count
    but not their schedules: they step as one stack, and every row, at
    --jobs 1, 2 and 3, keeps the bits of one evolve per point."""
    chain, protocol = ChainSpec(n_sites), replace(PROTO, n_cycles=n_cycles)
    offsets = TWO_PI * np.array([-6.0, -2.5, 0.0, 1.0, 5.5])
    spec = SweepSpec("offset", chain, protocol, {"delta0": np.array([PROTO.delta0]), "delta_offset": offsets},
                     dt=PROTO.period / 24)
    rows = run_sweep(spec).values
    assert propagate_stacks == [len(offsets)]
    expected = [transport_efficiency(chain, replace(protocol, delta_offset=float(x)), 1, "lower", spec.dt)
                for x in offsets]
    assert np.array_equal(rows[:, 0], expected)
    for jobs in (2, 3):
        assert np.array_equal(run_sweep(replace(spec, jobs=jobs)).values, rows)


def test_protocol_compare_steps_its_kinds_and_periods_as_one_stack(propagate_stacks):
    """At 512 steps a period every kind and period of a comparison shares
    the step count: one stack of two schedules, each held by three periods.
    At a fixed dt each period takes its own step count, and its kinds step
    as a stack of their own."""
    spec = replace(compare_spec(), dt=None)
    rows = run_sweep(spec).values
    assert propagate_stacks == [len(protocols.KINDS) * len(spec.axes["period"])]
    expected = [[transport_efficiency(CHAIN, replace(spec.protocol, kind=kind, period=float(period)))
                 for kind in protocols.KINDS] for period in spec.axes["period"]]
    assert np.array_equal(rows, expected)
    propagate_stacks.clear()
    run_sweep(compare_spec())
    assert propagate_stacks == [len(protocols.KINDS)] * len(spec.axes["period"])


@pytest.mark.parametrize("kind, jobs, parts", [
    ("offset", 1, [4]), ("offset", 2, [2, 2]), ("offset", 3, [1, 1, 2]), ("offset", 9, [1, 1, 1, 1]),
    ("mean_position", 3, [3]), ("period_delta", 3, [2, 2]), ("size", 2, [1, 1, 1, 1])])
def test_jobs_split_only_points_that_share_no_schedule(monkeypatch, kind, jobs, parts):
    """--jobs N cuts a group of several schedules into at most N contiguous
    parts of whole schedules, and never cuts a group of one schedule: the
    three periods of mean_position share one grid, the two periods of each
    period_delta delta0 share one, and each size and period is a group of
    its own."""
    sizes = []
    run_groups = sweeps._run_groups
    monkeypatch.setattr(sweeps, "_run_groups", lambda groups, n: sizes.extend(map(len, groups)) or run_groups(groups, 1))
    spec = replace(SPECS[kind](), jobs=jobs)
    if kind == "period_delta":  # 512 steps a period: one stack key for both periods
        spec = replace(spec, dt=None)
    assert np.array_equal(run_sweep(spec).values, run_sweep(replace(spec, jobs=1)).values)
    assert sizes[:len(parts)] == parts
