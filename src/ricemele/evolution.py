"""Time evolution under the driven chain, state preparation, and observables.

Each step of length dt is the fourth-order commutator-free exponential
integrator CF4 (Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011),
CFET4:2; Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006)). With H-
and H+ the Hamiltonian at the step's two Gauss nodes, it applies

    exp(-i dt M2) exp(-i dt M1),  M1 = a1 H- + a2 H+,  M2 = a2 H- + a1 H+,
    a1 = 1/4 + sqrt(3)/6,  a2 = 1/4 - sqrt(3)/6,

M1 first. Both exponents are real symmetric, and each exponential is
exact by eigendecomposition, so every step is unitary to floating-point
accuracy regardless of step size. The default is 512 steps per cycle.
The state is carried in each exponent's eigenbasis: one exponential
multiplies its coefficients by the overlap of consecutive eigenbases
times the exponent's phases, one small complex matrix-vector product.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .model import ChainSpec, ParameterPoint, build_hamiltonians
from .protocols import PumpProtocol, sample_trajectory

DEFAULT_STEPS_PER_CYCLE = 512
# Most steps one run may take. A run of K steps on N sites holds the
# eigenvectors of its 2K exponents, 8 * 2K * N**2 bytes, plus one chunk of
# _CHUNK_BYTES; a larger run is refused before anything is allocated, as at
# 2**21 exponents those eigenvectors alone would take gigabytes. No test,
# demo or benchmark run takes more than 262,145 steps.
MAX_STEPS = 2**20
# CF4's Gauss nodes as offsets from a step's midpoint, in steps, and its
# exponent weights a1, a2 (see the module docstring).
_NODES = np.array([-np.sqrt(3.0) / 6.0, np.sqrt(3.0) / 6.0])
_A1, _A2 = 0.25 + np.sqrt(3.0) / 6.0, 0.25 - np.sqrt(3.0) / 6.0
# Bytes of matrices built at a time: Hamiltonians and eigenvectors in
# _cf4_decomposition, step matrices in _propagate. A bound on the memory a
# run takes beyond its eigenvectors, large enough that the stacked eigh and
# matmul calls amortise their call cost.
_CHUNK_BYTES = 2**20


@dataclass(frozen=True)
class EvolutionConfig:
    """Stepping control. dt is the length of one CF4 step, two exponentials;
    dt=None resolves at run time to period / 512 for evolve and to
    duration / 512 for stirap_sequence."""

    dt: float | None = None
    store_states: bool = True

    def __post_init__(self):
        if self.dt is not None and not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")


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
        if not 0 <= self.peak_rabi < np.inf:
            raise ValueError(f"peak_rabi must be non-negative and finite, got {self.peak_rabi!r}")
        if not 0 < self.width < np.inf:
            raise ValueError(f"width must be positive and finite, got {self.width!r}")
        if not np.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center!r}")
        if self.bond not in (1, 2):
            raise ValueError(f"bond must be 1 or 2 on a three-site chain, got {self.bond!r}")

    def envelope(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * self.peak_rabi * np.exp(-(((t - self.center) / self.width) ** 2))


def _propagate(decomposition, dt, psi0, store):
    """Shared stepping core: apply exp(-i h[k] dt) for each matrix of the
    eigendecomposed stack (w, v) in turn.

    The state is stepped as its coefficients c_k in matrix k's eigenbasis:

        c_0 = p_0 * (v_0^H psi0),  c_k = A_k c_(k-1),  psi_k = v_k c_k,
        A_k = p_k[:, None] * (v_k^H v_(k-1)),  p_k = exp(-i w_k dt),

    so each exponential is one complex matrix-vector product. The A_k,
    phases included, are built a chunk at a time within _CHUNK_BYTES, with
    stacked matmuls.
    Returns the final state psi_(K-1) and, with store, psi0 followed by
    every second psi_k (psi_1, psi_3, ...): the states after whole CF4
    steps, K // 2 + 1 states.
    """
    w, v = decomposition
    n_steps, n = w.shape
    chunk = max(1, _CHUNK_BYTES // (16 * n * n))
    c = np.exp(-1j * w[0] * dt) * (v[0].conj().T @ psi0)
    coeffs = np.empty((n_steps // 2, n), dtype=complex) if store else None
    for start in range(1, n_steps, chunk):
        stop = min(start + chunk, n_steps)
        phases = np.exp(-1j * w[start:stop, :, None] * dt)
        steps = phases * (v[start:stop].conj().swapaxes(1, 2) @ v[start - 1:stop - 1])
        for k, a in enumerate(steps, start):
            c = a.dot(c)  # the bits of a @ c, with less overhead per call
            if store and k % 2:
                coeffs[k // 2] = c
    psi = v[-1] @ c
    if not store:
        return psi, None
    v = v[1::2]
    states = np.empty((len(coeffs) + 1, n), dtype=complex)
    states[0] = psi0
    for start in range(0, len(coeffs), chunk):
        states[start + 1:start + chunk + 1] = (v[start:start + chunk] @ coeffs[start:start + chunk, :, None])[..., 0]
    states[-1] = psi  # the no-store expression, so the final state does not depend on store
    return psi, states


def _step_count(duration: float, dt: float | None, cycle: float) -> int:
    """Steps of the grid nearest dt (None: cycle / DEFAULT_STEPS_PER_CYCLE)
    that tiles [0, duration], within MAX_STEPS."""
    if dt is None:
        dt = cycle / DEFAULT_STEPS_PER_CYCLE
    n_steps = max(1, int(round(duration / dt)))
    if n_steps > MAX_STEPS:
        raise ValueError(f"{n_steps} steps exceed the step budget of {MAX_STEPS} per run")
    return n_steps


def schedule_key(spec: ChainSpec, protocol: PumpProtocol, dt: float | None = None) -> tuple:
    """What fixes the Hamiltonians evolve decomposes: the chain, the protocol
    at period 1 and the step count. Runs with equal keys, at any period,
    share one eigendecomposition inside shared_decompositions(). dt is
    checked by its callers, through EvolutionConfig or SweepSpec."""
    n_steps = _step_count(protocol.duration, dt, protocol.period)
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


def _cf4_decomposition(spec, couplings, n_steps, span):
    """(w, v) of the CF4 exponents of n_steps equal steps over [0, span],
    interleaved M1, M2 step by step: 2 n_steps real symmetric matrices.

    couplings maps an array of times to (J1, J2, delta) arrays of its
    shape. H is linear in them, so each exponent is the Hamiltonian of the
    weighted couplings at the step's two Gauss nodes. The Hamiltonians are
    built and decomposed a chunk of _CHUNK_BYTES at a time into the output,
    so no full stack of them exists; eigh decomposes each matrix on its
    own, so the chunking does not change a bit.
    """
    nodes = (np.arange(n_steps)[:, None] + 0.5 + _NODES) * (span / n_steps)
    weighted = [np.stack([_A1 * c[:, 0] + _A2 * c[:, 1], _A2 * c[:, 0] + _A1 * c[:, 1]], axis=1).ravel()
                for c in couplings(nodes)]
    n = spec.n_sites
    w, v = np.empty((2 * n_steps, n)), np.empty((2 * n_steps, n, n))
    chunk = max(1, _CHUNK_BYTES // (8 * n * n))
    for start in range(0, 2 * n_steps, chunk):
        part = slice(start, start + chunk)
        w[part], v[part] = np.linalg.eigh(build_hamiltonians(spec, *(x[part] for x in weighted)))
    return w, v


def _checked_state(psi0, n_sites: int) -> np.ndarray:
    """psi0 as a complex array; refuses a length other than n_sites or a norm off 1."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (n_sites,):
        raise ValueError("psi0 length must match n_sites")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalized")
    return psi0


def evolve(
    spec: ChainSpec,
    protocol: PumpProtocol,
    psi0: np.ndarray,
    cfg: EvolutionConfig = EvolutionConfig(),
) -> EvolutionRecord:
    """Evolve psi0 through n_cycles of the protocol with CF4 steps.

    The Gauss nodes of step j sit at cycle phases (j + 1/2 -+ sqrt(3)/6)
    n_cycles / n_steps, times the period, so runs at different periods with
    the same step count decompose the same matrices, once per schedule key
    inside shared_decompositions().
    """
    psi0 = _checked_state(psi0, spec.n_sites)
    key = schedule_key(spec, protocol, cfg.dt)
    shared = _shared.get()
    if shared is None:  # outside shared_decompositions(): this run's alone
        shared = {}
    if key not in shared:
        _, unit, n_steps = key
        shared[key] = _cf4_decomposition(spec, partial(sample_trajectory, unit), n_steps, unit.n_cycles)
    return _record(spec, shared[key], protocol.duration, psi0, cfg.store_states, protocol)


def _record(spec, decomposition, duration, psi0, store, protocol=None):
    """Step psi0 through [0, duration], one equal CF4 step per pair of
    decomposed exponents; stores the states after whole steps."""
    n_steps = len(decomposition[0]) // 2
    dt = duration / n_steps
    psi, states = _propagate(decomposition, dt, psi0, store)
    if store:
        times = np.linspace(0.0, duration, n_steps + 1)
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
    a, b = 2 * cell_index - 1, 2 * cell_index  # the cell's sites
    if b > spec.n_sites:
        raise ValueError("chosen cell must have 2 sites")
    if point.j2 != 0.0:
        raise ValueError("point must be dimerized (J2 = 0) for cell preparation")
    if point.j1 == 0.0:
        raise ValueError("degenerate dimer: J1 = 0 leaves the doublet unresolved")
    signs = spec.site_signs()
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
    owner = np.arange(spec.n_sites) // 2
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
    psi0 = _checked_state([1.0, 0.0, 0.0] if psi0 is None else psi0, spec.n_sites)

    def couplings(t):
        envs = {1: np.zeros(np.shape(t)), 2: np.zeros(np.shape(t))}
        for pulse in (pump, stokes):
            envs[pulse.bond] = envs[pulse.bond] + pulse.envelope(t)
        return envs[1], envs[2], np.zeros(np.shape(t))

    decomposition = _cf4_decomposition(spec, couplings, _step_count(duration, cfg.dt, duration), duration)
    return _record(spec, decomposition, duration, psi0, cfg.store_states)
