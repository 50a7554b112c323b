"""Experiment drivers that map pump performance over parameter grids.

Each sweep kind is one entry of a table: its defaults, its axes, its
output columns and the function that evaluates one grid point. One
engine walks the grid, groups the points that share a Hamiltonian
schedule, evaluates the groups (serially, or with jobs > 1 in a process
pool that takes one group at a time), reduces into an index-addressed
matrix, and serializes to a self-describing CSV plus a JSON mirror.
Identical sweep specs produce bit-identical outputs regardless of worker
count.
"""

from __future__ import annotations

import contextlib
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
from .protocols import PumpProtocol, sample_trajectory
from .spectrum import (find_optimal_period, max_band_width, predict_optimal_period, smooth_moving_average,
                       transport_efficiency)


def _efficiency_row(spec, chain, protocol, start_cell):
    return (transport_efficiency(chain, protocol, start_cell, spec.branch, spec.dt),)


def _compare_row(spec, chain, protocol, start_cell):
    return tuple(transport_efficiency(chain, replace(protocol, kind=kind), start_cell, spec.branch, spec.dt)
                 for kind in protocols.KINDS)


def _topt_row(spec, chain, protocol, start_cell):
    width = max_band_width(protocol)
    scan_grid = spec.scan_grid
    if len(scan_grid) == 0:
        # default scan window ends before the boundary-reflection revivals
        # that reappear at a few times the dispersion-predicted optimum
        scan_grid = np.linspace(0.1, 1.2, 24) * (TWO_PI / width)
    t_opt = find_optimal_period(chain, protocol, np.asarray(scan_grid), None, start_cell, spec.branch)
    return (1.0 / width, t_opt)


def _mean_position_row(spec, chain, protocol, start_cell):
    psi0 = evolution.initial_dimer_state(chain, sample_trajectory(protocol, 0.0), start_cell, spec.branch)
    record = evolution.evolve(chain, protocol, psi0, evolution.EvolutionConfig(dt=spec.dt, store_states=False))
    mean, spread = evolution.mean_position_and_spread(record.final_state, chain)
    return (mean - start_cell, spread)


# kind -> (defaults, axis names in row-major order, output columns, row function).
# A row function takes (spec, chain, protocol, start_cell), where chain and
# protocol already carry the grid point's axis values, and returns one row.
_KINDS = {
    "offset": (defaults.OFFSET_SWEEP, ("delta0", "delta_offset"), ("efficiency",), _efficiency_row),
    "period_delta": (defaults.PERIOD_DELTA_SWEEP, ("period", "delta0"), ("efficiency",), _efficiency_row),
    "protocol_compare": (defaults.PROTOCOL_COMPARE_SWEEP, ("period",), protocols.KINDS, _compare_row),
    "topt_collapse": (defaults.TOPT_COLLAPSE_SWEEP, ("j_max", "delta0"), ("inv_band_width", "t_opt"), _topt_row),
    "mean_position": (defaults.MEAN_POSITION_SWEEP, ("period",), ("shift", "sigma"), _mean_position_row),
    "size": (defaults.SIZE_SWEEP, ("n_sites", "period"), ("efficiency",), _efficiency_row),
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
    """Evaluate (callable, args) pairs that share a Hamiltonian schedule,
    decomposing it once; the block is told the periods of the protocols
    among the tasks' arguments, so a long chain steps them as one stack. A
    lone task has nothing to share, so its runs stream their exponents as a
    direct evolve call does."""
    periods = [arg.period for _, args in tasks for arg in args if isinstance(arg, PumpProtocol)]
    with evolution.shared_decompositions(periods) if len(tasks) > 1 else contextlib.nullcontext():
        return [fn(*args) for fn, args in tasks]


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


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the kind's row function at every grid point, in row-major order.

    Each point is mapped onto the spec: an n_sites value replaces the chain's
    site count, every other axis value the protocol field of its name.
    The center_sizes chains start in the center cell, the others in
    spec.start_cell. Points with the same evolution.schedule_key run one
    after another and share its eigendecompositions, which are dropped
    once their group is done.
    """
    _, axis_names, columns, row = _KINDS[spec.kind]
    missing = [name for name in axis_names if name not in spec.axes]
    unexpected = [name for name in spec.axes if name not in axis_names]
    if missing or unexpected:
        raise ValueError(f"{spec.kind} sweep takes axes {axis_names}: "
                         f"missing {missing}, unexpected {unexpected}")
    groups = {}  # schedule key -> [(row index, task)], in order of first appearance
    for index, values in enumerate(itertools.product(*(spec.axes[name] for name in axis_names))):
        point = dict(zip(axis_names, values))
        chain = spec.chain
        if "n_sites" in point:
            chain = replace(chain, n_sites=int(point.pop("n_sites")))
        protocol = replace(spec.protocol, **{name: float(v) for name, v in point.items()})
        start_cell = (chain.n_cells + 1) // 2 if chain.n_sites in spec.center_sizes else spec.start_cell
        key = evolution.schedule_key(chain, protocol, spec.dt)
        groups.setdefault(key, []).append((index, (row, (spec, chain, protocol, start_cell))))
    rows = [None] * sum(map(len, groups.values()))
    results = _run_groups([[task for _, task in group] for group in groups.values()], spec.jobs)
    for group, group_rows in zip(groups.values(), results):
        for (index, _), values in zip(group, group_rows):
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
    base, axis_names, _, _ = _KINDS[kind]
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
