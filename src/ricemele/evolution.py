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

Every exponent is a chain Hamiltonian: +d on the odd sites, -d on the
even ones, and bonds that join an odd site to an even one only (Rice &
Mele, PRL 49, 1455 (1982)). So H^2 is block-diagonal on the two
sublattices, and _chain_eigh builds every eigenpair of H from one eigh of
the odd-site block of (N + 1) // 2 rows and a QR of the bonds mapped onto
it, in place of an eigh of all N rows. Generic Hermitian stacks, as in the
tests, map np.linalg.eigh instead; both give _eigen_chunks (w, v) stacks.

The pump is periodic in the cycle phase (Thouless, PRB 27, 6083 (1983)),
so the steps of a run repeat every G = n_steps // gcd(n_steps, n_cycles)
steps, one cycle where the steps tile a cycle: evolve decomposes the
exponents of one grid of G steps and walks it gcd(n_steps, n_cycles)
times. The overlaps depend on the exponents alone, so they are computed
as the exponents are decomposed. Runs that share a decomposition, the
periods of a scan inside shared_decompositions(), hold the eigenvalues
and overlaps of one grid and step through them at each period's dt, once
per pass. A run that no other run shares steps each chunk of exponents
as soon as it is decomposed, and decomposes the grid again for each
pass, so it holds one chunk at a time; both give the same bits.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import partial
import itertools
import math

import numpy as np

from .model import ChainSpec, ParameterPoint, build_hamiltonians
from .protocols import PumpProtocol, sample_trajectory

DEFAULT_STEPS_PER_CYCLE = 512
# Most steps one run may take. A shared run on N sites holds the eigenvalues
# and the overlaps of the 2G exponents of its grid of G steps (see evolve),
# 8 * 2G * N**2 bytes (and its G odd eigenbases, half as much again, if it
# stores states); a run that nothing shares holds one chunk of _CHUNK_BYTES
# at a time besides its output. A larger run is refused before anything is
# allocated, as at 2**21 exponents a shared decomposition alone would take
# gigabytes. No test, demo or benchmark run takes more than 262,145 steps.
MAX_STEPS = 2**20
# CF4's Gauss nodes as offsets from a step's midpoint, in steps, and its
# exponent weights a1, a2 (see the module docstring).
_NODES = np.array([-np.sqrt(3.0) / 6.0, np.sqrt(3.0) / 6.0])
_A1, _A2 = 0.25 + np.sqrt(3.0) / 6.0, 0.25 - np.sqrt(3.0) / 6.0
# Bytes of matrices built at a time: the Hamiltonians, eigenvectors and
# overlaps of a chunk in _eigen_chunks (its odd-site blocks and their QR
# factors take a quarter as much each), half its step matrices in
# _propagate. A bound on the memory a run takes beyond what it holds, large
# enough that the stacked eigh, QR and matmul calls amortise their call
# cost.
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


def _propagate(chunks, count, dt, psi0, store):
    """Shared stepping core: apply exp(-i h[k] dt) for each of the count
    Hermitian matrices whose decompositions _eigen_chunks holds, in turn.

    The state is stepped as its coefficients c_k in matrix k's eigenbasis:

        c_0 = p_0 * (v_0^H psi0),  c_k = A_k c_(k-1),  psi_k = v_k c_k,
        A_k = p_k[:, None] * (v_k^H v_(k-1)),  p_k = exp(-i w_k dt),

    so each exponential is one complex matrix-vector product. The chunks
    carry the overlaps v_k^H v_(k-1); each chunk's phases are multiplied
    into them in one reused buffer. chunks may be a list, shared by runs at
    any dt, or a generator, decomposed as it is stepped.
    chunks may also walk one grid of matrices several times, as evolve
    walks the grid of a cycle: each pass starts with a chunk whose first
    is set, and the state re-enters the grid through the site basis,
    c <- p_0 * (v_0^H (v_last c)), from the last eigenbasis of the pass
    before, which its last chunk keeps (its index is odd).
    Returns the final state psi_(count-1) and, with store, psi0 followed by
    every second psi_k (psi_1, psi_3, ...): the states after whole CF4
    steps, count // 2 + 1 states. store needs an even count, as CF4 gives.
    """
    states = np.empty((count // 2 + 1, len(psi0)), dtype=complex) if store else None
    # the index of the next matrix and of the next stored state, the coefficients, the last basis left through
    k, row, c, final = 0, 1, None, None
    for w, overlaps, first, bases in chunks:
        if first is not None:  # matrix 0 of a grid, entered from the site basis
            if c is None:
                psi = psi0
                steps = np.empty((len(w),) + first.shape, dtype=complex)  # the A_k of every chunk in turn
            else:  # a later pass: leave the eigenbasis the last pass ended in
                psi = final @ c
            c = np.exp(-1j * w[0] * dt) * (first.conj().T @ psi)
            w, k = w[1:], k + 1
        products = np.multiply(np.exp(-1j * w[:, :, None] * dt), overlaps, out=steps[:len(w)])
        if store:
            for j, a in enumerate(products, k):
                c = a.dot(c)  # the bits of a @ c, with less overhead per call
                if j % 2:
                    states[j // 2 + 1] = c
        else:  # the same products without the store bookkeeping, which sweep points never need
            for a in products:
                c = a.dot(c)
        k += len(w)
        if store:  # leave the eigenbasis at this chunk's odd matrices
            done = slice(row, row + len(bases))
            states[done] = (bases @ states[done, :, None])[..., 0]
            row = done.stop
        final = bases[-1] if len(bases) else final
    psi = final @ c
    if store:
        states[0] = psi0
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
    """Inside the block, evolve decomposes the grid of steps of each
    (schedule key, store_states), one cycle where the steps tile a cycle,
    once, and walks it for every pass of every run of that key; every
    decomposition is dropped when the block ends. Runs of one key that
    differ in store_states decompose its matrices once each, since they
    keep different eigenbases."""
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def _chain_eigh(h):
    """Eigenvalues and eigenvectors (w, v) of a stack of chain Hamiltonians
    as build_hamiltonians makes them, shape (M, N, N), through the odd-site
    block of H^2; w is not sorted.

    On the odd sites 1, 3, ... H is d = h[:, 0, 0], on the even sites -d,
    and every bond joins an odd site to an even one, through Q =
    h[:, 0::2, 1::2]. So H^2 is block-diagonal: d^2 + Q Q^T on the odd
    sites, d^2 + Q^T Q on the even ones. One eigh of the odd block, with
    its columns u_i in descending order, and a QR of Q^T u_i = R_ii v_i
    over its first N // 2 columns give pairs (u_i, v_i) on which H is the
    2x2 block [[d, R_ii], [R_ii, -d]]: eigenvalues -+hypot(d, R_ii),
    eigenvectors from the half-angle atan2(R_ii, d) / 2. An odd-site
    column left over (odd N) is an eigenvector of eigenvalue d.

    The odd block carries d^2, so where |d| far exceeds both couplings the
    backward error grows like eps |H|^2 / sigma, sigma the second-smallest
    singular value of Q: at N = 10, J1 = J2 = 0.0017 and d = -13.1 it
    reached 1,100 eps |H|, against 9.4 eps |H| for np.linalg.eigh. On the
    pump stacks of the shipped protocols it stays at or below 18 eps |H|.
    """
    m, n = h.shape[:2]
    pairs = n // 2
    d, q = h[:, 0, 0].copy(), h[:, 0::2, 1::2].copy()
    del h  # frees the stack where the caller holds no other reference, as in _cf4_decomposition
    block = q @ q.swapaxes(1, 2)
    block.reshape(m, -1)[:, ::block.shape[1] + 1] += (d * d)[:, None]  # d^2 on the diagonal
    u = np.linalg.eigh(block)[1][:, :, ::-1]  # descending, so the QR meets the largest R_ii first
    del block
    even, r = np.linalg.qr(q.swapaxes(1, 2) @ u[:, :, :pairs])
    del q
    r = np.diagonal(r, axis1=1, axis2=2)
    half = 0.5 * np.arctan2(r, d[:, None])
    cos, sin = np.cos(half)[:, None, :], np.sin(half)[:, None, :]
    v = np.zeros((m, n, n))
    np.multiply(u[:, :, :pairs], -sin, out=v[:, 0::2, :pairs])
    np.multiply(even, cos, out=v[:, 1::2, :pairs])
    np.multiply(u[:, :, :pairs], cos, out=v[:, 0::2, pairs:2 * pairs])
    np.multiply(even, sin, out=v[:, 1::2, pairs:2 * pairs])
    v[:, 0::2, 2 * pairs:] = u[:, :, pairs:]
    radius = np.hypot(d[:, None], r)
    w = np.concatenate([-radius, radius, np.repeat(d[:, None], n - 2 * pairs, axis=1)], axis=1)
    return w, v


def _eigen_chunks(decompositions, count, store):
    """Turn the eigendecompositions (w, v) of count Hermitian matrices,
    given as consecutive stacks, into what _propagate steps with: per
    stack, (w, overlaps, first, bases). The CF4 exponents come from
    _chain_eigh, in no order of eigenvalue; a generic stack from
    np.linalg.eigh. The overlaps absorb the order.

    w holds the stack's eigenvalues and overlaps the v_k^H v_(k-1) of its
    matrices k > 0, the first of a later stack taken against the last
    eigenbasis of the one before. first is v_0 in the first stack and None
    after. bases are the eigenbases _propagate leaves the eigenbasis
    through: the odd-numbered ones with store, else the last one, in the
    last stack. Each is a copy, so a held chunk keeps no stack of
    eigenvectors alive. No stack may be longer than the first.
    """
    start, previous = 0, None
    for w, v in decompositions:  # each stack is dropped once its chunk is made
        vh = (v.conj() if np.iscomplexobj(v) else v).swapaxes(1, 2)
        if previous is None:
            overlaps, first = vh[1:] @ v[:-1], v[0].copy()
        else:
            overlaps, first = np.empty_like(v), None
            overlaps[0] = vh[0] @ previous
            np.matmul(vh[1:], v[:-1], out=overlaps[1:])
        if store:
            bases = v[(start + 1) % 2::2].copy()
        else:
            bases = v[-1:].copy() if start + len(v) == count else v[:0].copy()
        start, previous = start + len(v), v[-1].copy()
        del v, vh  # so that the next stack is decomposed without these eigenvectors
        yield w, overlaps, first, bases


def _cf4_decomposition(spec, couplings, n_steps, span, store):
    """_eigen_chunks of the CF4 exponents of n_steps equal steps over
    [0, span], interleaved M1, M2 step by step: 2 n_steps real symmetric
    matrices, a generator.

    couplings maps an array of times to (J1, J2, delta) arrays of its
    shape. H is linear in them, so each exponent is the Hamiltonian of the
    weighted couplings at the step's two Gauss nodes, and a chain
    Hamiltonian, which _chain_eigh decomposes through its odd-site block
    of H^2. The Hamiltonians are built and decomposed a chunk of
    _CHUNK_BYTES at a time, so no full stack of them exists; every eigh,
    QR and product in _chain_eigh works on each matrix on its own, so the
    chunking does not change a bit.
    """
    nodes = (np.arange(n_steps)[:, None] + 0.5 + _NODES) * (span / n_steps)
    c = np.asarray(couplings(nodes))  # (J1, J2, delta) at both nodes of every step
    weighted = np.stack([_A1 * c[..., 0] + _A2 * c[..., 1], _A2 * c[..., 0] + _A1 * c[..., 1]], axis=-1).reshape(3, -1)
    n = spec.n_sites
    chunk = max(1, _CHUNK_BYTES // (8 * n * n))
    decompositions = (_chain_eigh(build_hamiltonians(spec, *(x[start:start + chunk] for x in weighted)))
                      for start in range(0, 2 * n_steps, chunk))
    return _eigen_chunks(decompositions, 2 * n_steps, store)


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
    inside shared_decompositions(). The pump repeats every cycle, so the
    nodes repeat every G = n_steps // gcd(n_steps, n_cycles) steps: the
    exponents of the first G steps are decomposed and walked
    gcd(n_steps, n_cycles) times. A later pass thus takes the first pass's
    node phases, not those plus whole cycles, which differ in the last bits.
    """
    psi0 = _checked_state(psi0, spec.n_sites)
    key = schedule_key(spec, protocol, cfg.dt)
    _, unit, n_steps = key
    passes = math.gcd(n_steps, unit.n_cycles)  # the steps repeat every n_steps // passes
    decompose = partial(_cf4_decomposition, spec, partial(sample_trajectory, unit), n_steps // passes,
                        unit.n_cycles // passes, cfg.store_states)
    shared = _shared.get()
    if shared is None:  # outside shared_decompositions(): each pass stepped as it is decomposed
        chunks = itertools.chain.from_iterable(decompose() for _ in range(passes))
    else:  # one grid held for every run of its key, and of its store_states, in the block
        held = (key, cfg.store_states)
        if held not in shared:
            shared[held] = list(decompose())
        chunks = itertools.chain.from_iterable(itertools.repeat(shared[held], passes))
    return _record(spec, chunks, n_steps, protocol.duration, psi0, cfg.store_states, protocol)


def _record(spec, chunks, n_steps, duration, psi0, store, protocol=None):
    """Step psi0 through [0, duration], one equal CF4 step per pair of
    decomposed exponents; stores the states after whole steps."""
    dt = duration / n_steps
    psi, states = _propagate(chunks, 2 * n_steps, dt, psi0, store)
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
    _, v = _chain_eigh(block[None])  # a two-site chain: eigenvalues -r, then +r
    vec = v[0, :, 0] if branch == "lower" else v[0, :, 1]
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
    """Population of a destination cell at the final time over total population.

    The default is the last cell, whichever way the pump moves; pass
    spectrum.target_cell to score the cell the pump moves the state to.
    """
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
    if not 0 < duration < np.inf:
        raise ValueError(f"duration must be positive and finite, got {duration!r}")
    spec = ChainSpec(3)
    psi0 = _checked_state([1.0, 0.0, 0.0] if psi0 is None else psi0, spec.n_sites)

    def couplings(t):
        envs = {1: np.zeros(np.shape(t)), 2: np.zeros(np.shape(t))}
        for pulse in (pump, stokes):
            envs[pulse.bond] = envs[pulse.bond] + pulse.envelope(t)
        return envs[1], envs[2], np.zeros(np.shape(t))

    n_steps = _step_count(duration, cfg.dt, duration)
    chunks = _cf4_decomposition(spec, couplings, n_steps, duration, cfg.store_states)
    return _record(spec, chunks, n_steps, duration, psi0, cfg.store_states)
