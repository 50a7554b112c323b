"""Experiment drivers that map pump performance over parameter grids.

Each sweep kind is one entry of a table: its defaults, its axes, its
output columns, the runs of one grid point and the function that reduces
them to a row. One engine walks the grid, groups the points whose runs
can step as one stack (the same chain, step count, cycle count and
store_states), evaluates the groups (serially, or with jobs > 1 in a
process pool that takes one part of a group at a time), reduces into an
index-addressed matrix, and serializes to a self-describing CSV plus a
JSON mirror.
Identical sweep specs produce bit-identical outputs regardless of worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
import itertools
import os
import sys

import numpy as np

from . import __version__, defaults, evolution, protocols
from .config import (chain_to_dict, config_hash, float_rows, protocol_to_dict, pyify, read, refuse_unknown_keys,
                     write_json, write_lines)
from .model import TWO_PI, ChainSpec
from .protocols import PumpProtocol, sample_trajectory  # noqa: F401  (bench/tracing.py rebinds it here)
from .spectrum import find_optimal_period, max_band_width, predict_optimal_period, smooth_moving_average, target_cell


def _efficiency_row(spec, chain, protocol, start_cell, records):
    """The efficiency of each of the point's runs into the cell its pump targets."""
    target = target_cell(chain, start_cell, spec.branch, protocol.n_cycles)
    return tuple(evolution.transfer_efficiency(record, target) for record in records)


def _topt_row(spec, chain, protocol, start_cell, records):
    width = max_band_width(protocol)
    scan_grid = spec.scan_grid
    if len(scan_grid) == 0:
        # default scan window ends before the boundary-reflection revivals
        # that reappear at a few times the dispersion-predicted optimum
        scan_grid = np.linspace(0.1, 1.2, 24) * (TWO_PI / width)
    t_opt = find_optimal_period(chain, protocol, np.asarray(scan_grid), None, start_cell, spec.branch)
    return (1.0 / width, t_opt)


def _mean_position_row(spec, chain, protocol, start_cell, records):
    mean, spread = evolution.mean_position_and_spread(records[0].final_state, chain)
    return (mean - start_cell, spread)


# kind -> (defaults, axis names in row-major order, output columns, the
# protocol kinds of a point's evolve runs, None for the point's own, row
# function). A row function takes (spec, chain, protocol, start_cell,
# records), where chain and protocol already carry the grid point's axis
# values and records are its runs' EvolutionRecords, and returns one row.
_KINDS = {
    "offset": (defaults.OFFSET_SWEEP, ("delta0", "delta_offset"), ("efficiency",), (None,), _efficiency_row),
    "period_delta": (defaults.PERIOD_DELTA_SWEEP, ("period", "delta0"), ("efficiency",), (None,), _efficiency_row),
    "protocol_compare": (defaults.PROTOCOL_COMPARE_SWEEP, ("period",), protocols.KINDS, protocols.KINDS,
                         _efficiency_row),
    "topt_collapse": (defaults.TOPT_COLLAPSE_SWEEP, ("j_max", "delta0"), ("inv_band_width", "t_opt"), (),
                      _topt_row),
    "mean_position": (defaults.MEAN_POSITION_SWEEP, ("period",), ("shift", "sigma"), (None,), _mean_position_row),
    "size": (defaults.SIZE_SWEEP, ("n_sites", "period"), ("efficiency",), (None,), _efficiency_row),
}
KINDS = tuple(_KINDS)


def provenance() -> str:
    return f"ricemele {__version__}"


@dataclass(frozen=True)
class SweepSpec:
    kind: str
    chain: ChainSpec
    protocol: PumpProtocol
    axes: dict = field(default_factory=dict)  # axis name -> 1-D grid
    scan_grid: tuple = ()  # inner period grid for topt_collapse
    center_sizes: tuple = ()  # size sweep: sizes initialized in the center cell
    start_cell: int = 1
    branch: str = "lower"
    dt: float | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}, expected one of {KINDS}")
        evolution.EvolutionConfig(self.dt)  # rejects a dt that is not positive and finite
        # record what runs: mean_position starts in the center cell, and
        # topt_collapse's period scans always take 512 CF4 steps per period
        if self.kind == "mean_position":
            object.__setattr__(self, "start_cell", (self.chain.n_cells + 1) // 2)
        if self.kind == "topt_collapse":
            object.__setattr__(self, "dt", None)
        for name, grid in self.axes.items():
            grid = np.asarray(grid)
            if grid.size == 0:
                raise ValueError(f"axis {name!r} is empty")
            if grid.size > 1 and not (np.all(np.diff(grid) > 0) or np.all(np.diff(grid) < 0)):
                raise ValueError(f"axis {name!r} must be strictly monotone")

    def to_dict(self) -> dict:
        """Canonical content dict; jobs is excluded (must not affect results)."""
        return {
            "kind": self.kind,
            "chain": chain_to_dict(self.chain),
            "protocol": protocol_to_dict(self.protocol),
            "axes": {k: pyify(np.asarray(v)) for k, v in sorted(self.axes.items())},
            "scan_grid": pyify(self.scan_grid),
            "center_sizes": pyify(self.center_sizes),
            "start_cell": self.start_cell,
            "branch": self.branch,
            "dt": self.dt,
        }


@dataclass(frozen=True)
class SweepResult:
    kind: str
    axis_names: tuple
    axes: dict
    columns: tuple
    values: np.ndarray  # rows = product of axis lengths, row-major
    metadata: dict

    def __post_init__(self):
        rows = int(np.prod([len(self.axes[name]) for name in self.axis_names]))
        if self.values.shape != (rows, len(self.columns)):
            raise ValueError("values shape must be (product of axis lengths, n_columns)")


def _run_group(tasks):
    """Evaluate (row function, args, runs) tasks: each row from its args and
    the records of its runs, evolve's arguments. Every run is announced to
    one shared_decompositions block, so the runs of each stack key step as
    one stack at the first evolve of any of them."""
    with evolution.shared_decompositions([run for _, _, runs in tasks for run in runs]):
        return [row(*args, [evolution.evolve(*run) for run in runs]) for row, args, runs in tasks]


def _pool_context():
    """The start method of the sweep pool.

    Fork on Linux when no other Python thread runs, so each worker inherits
    the imported package instead of importing it again; spawn otherwise.
    Forking is safe only if the BLAS also stops its threads at fork, as
    OpenBLAS built with pthreads (numpy's wheels) does; a BLAS on GNU
    OpenMP does not, and a sweep under it should run with jobs = 1.
    """
    import multiprocessing
    import threading

    fork = sys.platform == "linux" and threading.active_count() == 1
    return multiprocessing.get_context("fork" if fork else "spawn")


def _run_groups(groups, jobs):
    """Evaluate each group of tasks, returning the results in group order.

    With jobs > 1, a pool of at most jobs workers, and no more than there
    are groups or cores, takes one group at a time (see _pool_context).
    """
    if jobs <= 1:
        return [_run_group(group) for group in groups]
    from concurrent.futures import ProcessPoolExecutor

    workers = min(jobs, len(groups), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context()) as pool:
        return list(pool.map(_run_group, groups))


def _parts(schedules, jobs):
    """The points of one stack key, given schedule by schedule, in at most
    jobs contiguous parts that each keep every point of a schedule: one
    part for points that share one schedule, which then share its grid."""
    n = min(jobs, len(schedules))
    bounds = [len(schedules) * i // n for i in range(n + 1)]
    return [[point for points in schedules[lo:hi] for point in points] for lo, hi in zip(bounds, bounds[1:])]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the kind's row function at every grid point, in row-major order.

    Each point is mapped onto the spec: an n_sites value replaces the chain's
    site count, every other axis value the protocol field of its name.
    The center_sizes chains start in the center cell, the others in
    spec.start_cell. Points with the same evolution.stack_key form one
    group, whose runs step as one stack (see _run_group). With jobs > 1 a
    group of several schedules is cut into at most jobs parts of whole
    schedules, which the pool takes one at a time; a group of one schedule
    is never cut, so its points share one decomposition.
    """
    _, axis_names, columns, kinds, row = _KINDS[spec.kind]
    missing = [name for name in axis_names if name not in spec.axes]
    unexpected = [name for name in spec.axes if name not in axis_names]
    if missing or unexpected:
        raise ValueError(f"{spec.kind} sweep takes axes {axis_names}: "
                         f"missing {missing}, unexpected {unexpected}")
    cfg = evolution.EvolutionConfig(dt=spec.dt, store_states=False)
    groups = {}  # stack key -> schedule key -> [(row index, task)], in order of first appearance
    for index, values in enumerate(itertools.product(*(spec.axes[name] for name in axis_names))):
        point = dict(zip(axis_names, values))
        chain = spec.chain
        if "n_sites" in point:
            chain = replace(chain, n_sites=int(point.pop("n_sites")))
        protocol = replace(spec.protocol, **{name: float(v) for name, v in point.items()})
        start_cell = (chain.n_cells + 1) // 2 if chain.n_sites in spec.center_sizes else spec.start_cell
        point_protocols = [protocol if kind is None else replace(protocol, kind=kind) for kind in kinds]
        runs = [(chain, p, evolution.start_state(chain, p, start_cell, spec.branch), cfg) for p in point_protocols]
        schedules = groups.setdefault(evolution.stack_key(chain, protocol, cfg), {})
        task = (row, (spec, chain, protocol, start_cell), runs)
        schedules.setdefault(evolution.schedule_key(chain, protocol, spec.dt), []).append((index, task))
    parts = [part for schedules in groups.values() for part in _parts(list(schedules.values()), spec.jobs)]
    rows = [None] * sum(map(len, parts))
    for part, part_rows in zip(parts, _run_groups([[task for _, task in part] for part in parts], spec.jobs)):
        for (index, _), values in zip(part, part_rows):
            rows[index] = values
    return SweepResult(
        kind=spec.kind,
        axis_names=axis_names,
        axes={name: np.asarray(spec.axes[name]) for name in axis_names},
        columns=columns,
        values=np.asarray(rows, dtype=float),
        metadata={
            "provenance": provenance(),
            "kind": spec.kind,
            "config_sha256": config_hash(spec.to_dict()),
        },
    )


# Sweep-section key of each grid field and the type of its values. A key
# with _mhz in its name is MHz, which config.read turns into rad/us.
_SECTION_KEYS = {
    "j_max": ("j_max_mhz", float),
    "delta0": ("delta0_mhz", float),
    "delta_offset": ("delta_offset_mhz", float),
    "period": ("period_us", float),
    "scan_grid": ("scan_grid_us", float),
    "n_sites": ("sizes", int),
}


def build_sweep_spec(kind: str, section: dict | None = None, jobs: int = 1,
                     dt: float | None = None) -> SweepSpec:
    """Construct a SweepSpec for a kind from defaults plus config overrides.

    Section keys use file units: *_mhz lists/scalars for frequencies,
    *_us for times. The protocol takes the first value of each axis, and
    a kind without a default period (topt_collapse, mean_position) keeps
    period 1.0. The section takes the keys of the kind's defaults and
    axes, plus branch and, except for mean_position, which starts in the
    center cell, start_cell; any other key, like an invalid value, raises
    TypeError or ValueError, which config.section turns into ConfigError.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown sweep kind {kind!r}")
    base, axis_names = _KINDS[kind][:2]
    section = dict(section or {})
    # a field is read under its _SECTION_KEYS key, except n_sites off the axes, read as "n_sites"
    keys = sorted({_SECTION_KEYS[name][0] if name in _SECTION_KEYS and (name in axis_names or name != "n_sites")
                   else name for name in (*base, *axis_names)} | {"branch"}
                  | ({"start_cell"} if kind != "mean_position" else set()))
    refuse_unknown_keys(section, keys, f"a {kind} sweep")

    def grid(name):
        key, dtype = _SECTION_KEYS[name]
        return read(section, key, base.get(name), partial(np.asarray, dtype=dtype))

    def first(name):
        return float(grids[name][0]) if name in grids else float(grid(name))

    def get(key, cast=int):
        return read(section, key, base[key], cast)

    # mean_position's default window sits around the predicted optimum
    window = kind == "mean_position" and "period_us" not in section
    grids = {} if window else {name: np.atleast_1d(grid(name)) for name in axis_names}
    if kind == "mean_position":
        n_sites = 2 * get("n_cells")
    else:
        n_sites = int(grids["n_sites"][0]) if "n_sites" in grids else get("n_sites")
    protocol = PumpProtocol("experimental", first("j_max"), first("delta0"),
                            period=first("period") if "period" in base else 1.0, n_cycles=get("n_cycles"))
    if window:
        t_pred = predict_optimal_period(protocol)
        span = get("span_factor", float)
        grids["period"] = np.geomspace(t_pred / span, t_pred * span, get("n_periods"))
    return SweepSpec(kind, ChainSpec(n_sites), protocol, grids,
                     scan_grid=tuple(float(x) for x in grid("scan_grid")) if "scan_grid" in base else (),
                     center_sizes=get("center_sizes", lambda v: tuple(map(int, v))) if "center_sizes" in base else (),
                     start_cell=read(section, "start_cell", defaults.START_CELL, int),
                     branch=read(section, "branch", defaults.BRANCH, str), dt=dt, jobs=jobs)


def _float_axes(result: SweepResult) -> list:
    return [np.asarray(result.axes[name], dtype=float) for name in result.axis_names]


def write_sweep_csv(result: SweepResult, path: str) -> None:
    lines = [f"# {result.metadata['provenance']}", f"# kind: {result.kind}",
             f"# config_sha256: {result.metadata['config_sha256']}"]
    axes = _float_axes(result)
    for name, axis in zip(result.axis_names, axes):
        lines.append(f"# axis {name}: " + ",".join(map(repr, axis.tolist())))
    lines.append("# columns: " + ",".join(result.axis_names + result.columns))
    points = (grid.ravel() for grid in np.meshgrid(*axes, indexing="ij"))  # row-major, the first axis slowest
    lines += float_rows(*points, result.values)
    write_lines(lines, path)


def write_sweep_json(result: SweepResult, path: str) -> None:
    write_json({
        "kind": result.kind,
        "metadata": result.metadata,
        "axes": {name: axis.tolist() for name, axis in zip(result.axis_names, _float_axes(result))},
        "axis_order": list(result.axis_names),
        "columns": list(result.columns),
        "values": np.asarray(result.values, dtype=float).tolist(),
    }, path)


def ripple_frequency(periods: np.ndarray, efficiencies: np.ndarray) -> float:
    """Dominant ripple frequency (cycles per us of period) of an
    efficiency-vs-period trace, from the DFT of the detrended trace."""
    periods = np.asarray(periods, dtype=float)
    efficiencies = np.asarray(efficiencies, dtype=float)
    steps = np.diff(periods)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("ripple analysis needs a uniform period grid")
    window = (periods[-1] - periods[0]) / 6.0
    detrended = efficiencies - smooth_moving_average(periods, efficiencies, window)
    tapered = detrended * np.hanning(len(detrended))
    spectrum = np.abs(np.fft.rfft(tapered))
    freqs = np.fft.rfftfreq(len(tapered), d=steps[0])
    if len(spectrum) < 3:
        raise ValueError("period grid too short for ripple analysis")
    return float(freqs[1 + int(np.argmax(spectrum[1:]))])
