"""Time evolution under the driven chain, state preparation, and observables.

The propagator is the exact exponential of the midpoint Hamiltonian on
each step, computed by eigendecomposition, so every step is unitary to
floating-point accuracy regardless of step size.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np

from .model import ChainSpec, ParameterPoint, build_hamiltonians
from .protocols import PumpProtocol, sample_trajectory

DEFAULT_STEPS_PER_CYCLE = 4096
MAX_HALVINGS = 12
# Most steps one run may take. A larger run is refused before anything is
# allocated: its states or Hamiltonians would take gigabytes. No test,
# demo or benchmark run takes more than 262,145 steps.
MAX_STEPS = 2**21


@dataclass(frozen=True)
class EvolutionConfig:
    """Stepping control. dt=None resolves to period / 4096 at run time."""

    dt: float | None = None
    adaptive_halving: bool = False
    convergence_tol: float = 1e-6
    store_states: bool = True

    def __post_init__(self):
        if self.dt is not None and not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not 0 < self.convergence_tol < np.inf:
            raise ValueError(f"convergence_tol must be positive and finite, got {self.convergence_tol!r}")

    def resolve_dt(self, protocol: PumpProtocol) -> float:
        return self.dt if self.dt is not None else protocol.period / DEFAULT_STEPS_PER_CYCLE


@dataclass(frozen=True)
class EvolutionRecord:
    """Evolution output: stored states on a uniform grid plus the inputs."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), n_sites)
    spec: ChainSpec
    dt: float
    protocol: PumpProtocol | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def cell_population_table(self) -> np.ndarray:
        """Cell populations for every stored time, shape (M, n_cells)."""
        return cell_populations(self.states, self.spec)


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian coupling pulse J(t) = (peak_rabi / 2) * exp(-((t - center) / width)^2)."""

    peak_rabi: float
    center: float
    width: float
    bond: int = 1

    def __post_init__(self):
        if self.peak_rabi < 0:
            raise ValueError("peak_rabi must be non-negative")
        if self.width <= 0:
            raise ValueError("width must be positive")

    def envelope(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * self.peak_rabi * np.exp(-(((t - self.center) / self.width) ** 2))


def propagate_step(h: np.ndarray, dt: float, psi: np.ndarray) -> np.ndarray:
    """Apply exp(-i h dt) to psi via eigendecomposition of the symmetric h."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return _propagate(np.linalg.eigh(np.asarray(h)[None]), dt, psi, store=False)[0]


def _propagate(decomposition, dt, psi0, store):
    """Shared stepping core: apply exp(-i h[k] dt) for each Hamiltonian of
    the eigendecomposed stack (w, v) in turn."""
    w, v = decomposition
    phases = np.exp(-1j * w * dt)
    psi = np.asarray(psi0, dtype=complex)
    states = [psi] if store else None
    for vk, phase in zip(v, phases):
        psi = vk @ (phase * (vk.conj().T @ psi))
        if store:
            states.append(psi)
    return psi, states


def _step_count(duration: float, dt: float) -> int:
    """Steps of the grid nearest dt that tiles [0, duration], within MAX_STEPS."""
    n_steps = max(1, int(round(duration / dt)))
    if n_steps > MAX_STEPS:
        raise ValueError(f"{n_steps} steps exceed the step budget of {MAX_STEPS} per run")
    return n_steps


def schedule_key(spec: ChainSpec, protocol: PumpProtocol, dt: float | None = None) -> tuple:
    """What fixes the Hamiltonians evolve decomposes: the chain, the protocol
    at period 1 and the step count. Runs with equal keys, at any period,
    share one eigendecomposition inside shared_decompositions()."""
    n_steps = _step_count(protocol.duration, EvolutionConfig(dt).resolve_dt(protocol))
    return spec, replace(protocol, period=1.0), n_steps


_shared = ContextVar("shared_decompositions", default=None)


@contextmanager
def shared_decompositions():
    """Inside the block, evolve decomposes each schedule key once and reuses
    it; every decomposition is dropped when the block ends."""
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def _decomposition(key):
    """(w, v) of the midpoint Hamiltonians on the phase grid of a schedule key.

    Step j sits at cycle phase x_j = (j + 1/2) n_cycles / n_steps, the
    midpoint time over the period, so the grid is the same at every period.
    """
    shared = _shared.get()
    if shared is not None and key in shared:
        return shared[key]
    spec, unit, n_steps = key
    phase = (np.arange(n_steps) + 0.5) * unit.n_cycles / n_steps
    decomposition = np.linalg.eigh(build_hamiltonians(spec, *sample_trajectory(unit, phase)))
    if shared is not None:
        shared[key] = decomposition
    return decomposition


def evolve(
    spec: ChainSpec,
    protocol: PumpProtocol,
    psi0: np.ndarray,
    cfg: EvolutionConfig = EvolutionConfig(),
) -> EvolutionRecord:
    """Evolve psi0 through n_cycles of the protocol with midpoint stepping.

    The Hamiltonian schedule is a function of the cycle phase, so runs at
    different periods with the same steps per cycle share one
    eigendecomposition inside shared_decompositions(). With
    adaptive_halving the step is halved (up to 12 times) until the final
    cell populations move by less than convergence_tol.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (spec.n_sites,):
        raise ValueError("psi0 length must match n_sites")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalized")

    record = _evolve_fixed(spec, protocol, psi0, cfg.resolve_dt(protocol), cfg.store_states)
    if not cfg.adaptive_halving:
        return record

    pops = cell_populations(record.final_state, spec)
    for _ in range(MAX_HALVINGS):
        finer = _evolve_fixed(spec, protocol, psi0, record.dt / 2.0, cfg.store_states)
        finer_pops = cell_populations(finer.final_state, spec)
        if np.max(np.abs(finer_pops - pops)) < cfg.convergence_tol:
            return finer
        record, pops = finer, finer_pops
    raise RuntimeError(
        f"no convergence after {MAX_HALVINGS} halvings "
        f"(last dt={record.dt:.3e} us, last delta={np.max(np.abs(finer_pops - pops)):.3e})"
    )


def _evolve_fixed(spec, protocol, psi0, dt, store):
    """Midpoint stepping over the protocol's run on the phase grid nearest dt."""
    decomposition = _decomposition(schedule_key(spec, protocol, dt))
    return _record(spec, decomposition, protocol.duration, psi0, store, protocol)


def _record(spec, decomposition, duration, psi0, store, protocol=None):
    """Step psi0 through [0, duration], one equal step per decomposed Hamiltonian."""
    n_steps = len(decomposition.eigenvalues)
    dt = duration / n_steps
    psi, states = _propagate(decomposition, dt, psi0, store)
    if store:
        times, states = np.linspace(0.0, duration, n_steps + 1), np.stack(states)
    else:
        times, states = np.array([0.0, duration]), np.stack([psi0, psi])
    return EvolutionRecord(times=times, states=states, spec=spec, dt=dt, protocol=protocol)


def initial_dimer_state(
    spec: ChainSpec,
    point: ParameterPoint,
    cell_index: int = 1,
    branch: str = "lower",
) -> np.ndarray:
    """Eigenstate of one isolated 2-site cell, embedded in the chain.

    Requires the point to be dimerized for that cell (J2 = 0) and the
    intra-cell coupling to be nonzero so the doublet is resolved.
    """
    if branch not in ("lower", "upper"):
        raise ValueError("branch must be 'lower' or 'upper'")
    if not 1 <= cell_index <= spec.n_cells:
        raise ValueError("cell_index out of range")
    cell = spec.cells[cell_index - 1]
    if len(cell) != 2:
        raise ValueError("chosen cell must have 2 sites")
    if point.j2 != 0.0:
        raise ValueError("point must be dimerized (J2 = 0) for cell preparation")
    if point.j1 == 0.0:
        raise ValueError("degenerate dimer: J1 = 0 leaves the doublet unresolved")
    signs = spec.site_signs()
    a, b = cell
    block = np.array(
        [
            [point.delta * signs[a - 1], -point.j1],
            [-point.j1, point.delta * signs[b - 1]],
        ]
    )
    w, v = np.linalg.eigh(block)
    vec = v[:, 0] if branch == "lower" else v[:, 1]
    # fix the sign gauge so the first-site amplitude is non-negative
    if vec[0] < 0:
        vec = -vec
    psi = np.zeros(spec.n_sites, dtype=complex)
    psi[a - 1], psi[b - 1] = vec
    return psi


def cell_populations(psi: np.ndarray, spec: ChainSpec) -> np.ndarray:
    """Population of each cell, for a state or a stack of states (..., n_sites).

    Cells hold at most two sites, so the site-to-cell indicator product
    adds the same terms, bit for bit, as summing each cell's sites.
    """
    owner = np.repeat(np.arange(spec.n_cells), [len(cell) for cell in spec.cells])
    return np.abs(np.asarray(psi)) ** 2 @ np.eye(spec.n_cells)[owner]


def transfer_efficiency(record: EvolutionRecord, destination_cell: int | None = None) -> float:
    """Population of a destination cell (default: the last) at the final time over total population."""
    spec = record.spec
    cell = spec.n_cells if destination_cell is None else destination_cell
    if not 1 <= cell <= spec.n_cells:
        raise ValueError("destination_cell out of range")
    pops = cell_populations(record.final_state, spec)
    return float(pops[cell - 1] / pops.sum())


def mean_position_and_spread(psi: np.ndarray, spec: ChainSpec) -> tuple[float, float]:
    """Mean cell index and its standard deviation for a state."""
    pops = cell_populations(psi, spec)
    pops = pops / pops.sum()
    idx = np.arange(1, spec.n_cells + 1, dtype=float)
    mean = float(np.dot(idx, pops))
    var = float(np.dot(idx * idx, pops) - mean * mean)
    return mean, np.sqrt(max(var, 0.0))


def stirap_sequence(
    pump: PulseSpec,
    stokes: PulseSpec,
    duration: float,
    cfg: EvolutionConfig = EvolutionConfig(),
    psi0: np.ndarray | None = None,
) -> EvolutionRecord:
    """Three-site two-bond transfer driven by Gaussian coupling pulses.

    The pump pulse drives bond (1,2) and the Stokes pulse bond (2,3) by
    default; counter-intuitive ordering (Stokes first) moves population
    from site 1 to site 3 through the dark state.
    """
    spec = ChainSpec(3)
    if psi0 is None:
        psi0 = np.zeros(3, dtype=complex)
        psi0[0] = 1.0

    def couplings(t_mid):
        envs = {1: np.zeros(len(t_mid)), 2: np.zeros(len(t_mid))}
        for pulse in (pump, stokes):
            if pulse.bond not in envs:
                raise ValueError("bond index must be 1 or 2 on a three-site chain")
            envs[pulse.bond] = envs[pulse.bond] + pulse.envelope(t_mid)
        return envs[1], envs[2], np.zeros(len(t_mid))

    dt = cfg.dt if cfg.dt is not None else duration / DEFAULT_STEPS_PER_CYCLE
    n_steps = _step_count(duration, dt)
    t_mid = (np.arange(n_steps) + 0.5) * (duration / n_steps)
    decomposition = np.linalg.eigh(build_hamiltonians(spec, *couplings(t_mid)))
    return _record(spec, decomposition, duration, psi0, store=True)
