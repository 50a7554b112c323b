"""Propagator accuracy, state preparation, observables, and STIRAP."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from ricemele import evolution
from ricemele.evolution import (
    MAX_STEPS,
    EvolutionConfig,
    EvolutionRecord,
    PulseSpec,
    cell_populations,
    evolve,
    initial_dimer_state,
    mean_position_and_spread,
    stirap_sequence,
    transfer_efficiency,
)
from ricemele.model import TWO_PI, ChainSpec, ParameterPoint, build_hamiltonian, build_hamiltonians
from ricemele.protocols import KINDS, PumpProtocol, sample_trajectory

CHAIN = ChainSpec(5)
PROTO = PumpProtocol("experimental", TWO_PI * 1.5, TWO_PI * 7.0, 0.0, 1.0, 2)


def start_state(chain=CHAIN, proto=PROTO, cell=1, branch="lower"):
    return initial_dimer_state(chain, sample_trajectory(proto, 0.0), cell, branch)


def propagate(hs, dt, psi, store=False):
    """exp(-i h dt) for each Hermitian h of the stack hs in turn, applied to
    psi by the stepping core: the final state and, with store, the states."""
    chunks = evolution._eigen_chunks(map(np.linalg.eigh, [hs[:, None]]), len(hs), store)  # one schedule
    out = evolution._propagate(chunks, len(hs), [dt], [psi], store)[0]
    return out if store else out[0]


def test_propagate_matches_two_site_rabi_formula():
    # H = [[0, -J], [-J, 0]] transfers with probability sin^2(J t)
    j = 1.7
    h = np.array([[0.0, -j], [-j, 0.0]])
    psi = np.array([1.0, 0.0], dtype=complex)
    for t in (0.1, 0.5, 2.3):
        out = propagate(h[None], t, psi)
        assert abs(out[1]) ** 2 == pytest.approx(np.sin(j * t) ** 2, abs=1e-12)


def test_propagate_is_unitary():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(5, 5))
    h = (h + h.T) / 2
    psi = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi /= np.linalg.norm(psi)
    out = propagate(h[None], 0.37, psi)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-14)


def test_propagate_matches_expm_for_complex_hermitian_h():
    rng = np.random.default_rng(3)
    for n in (2, 5, 12):
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (h + h.conj().T) / 2
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        for dt in (0.01, 0.37, 2.0):
            np.testing.assert_allclose(propagate(h[None], dt, psi), expm(-1j * dt * h) @ psi, rtol=0, atol=1e-12)
    # the core's overlaps v_k^H v_(k-1) between steps of a complex stack
    hs = rng.normal(size=(4, 6, 6)) + 1j * rng.normal(size=(4, 6, 6))
    hs = (hs + hs.conj().swapaxes(1, 2)) / 2
    expected = psi = np.ones(6, dtype=complex) / np.sqrt(6)
    for h in hs:
        expected = expm(-0.3j * h) @ expected
    psi, states = propagate(hs, 0.3, psi, store=True)
    np.testing.assert_allclose(psi, expected, rtol=0, atol=1e-12)
    assert np.array_equal(states[-1], psi)


def cf4_exponents(chain, couplings, n_steps, span):
    """CF4's exponents M1, M2 of every step, interleaved, as weighted sums of
    the Hamiltonians at the step's two Gauss nodes."""
    root = np.sqrt(3.0) / 6.0
    a1, a2 = 0.25 + root, 0.25 - root
    mid = (np.arange(n_steps) + 0.5) * (span / n_steps)
    early = build_hamiltonians(chain, *couplings(mid - root * span / n_steps))
    late = build_hamiltonians(chain, *couplings(mid + root * span / n_steps))
    return np.stack([a1 * early + a2 * late, a2 * early + a1 * late], axis=1).reshape(-1, *early.shape[1:])


def site_basis_states(exponents, dt, psi0):
    """psi0 and the state after every whole CF4 step, stepped in the site
    basis: exp(-i M dt) = v diag(exp(-i w dt)) v^H for M1, then M2."""
    w, v = np.linalg.eigh(exponents)
    psi, states = np.asarray(psi0, dtype=complex), [psi0]
    for k, (vk, phase) in enumerate(zip(v, np.exp(-1j * w * dt))):
        psi = vk @ (phase * (vk.conj().T @ psi))
        if k % 2:
            states.append(psi)
    return np.array(states)


@pytest.mark.parametrize("n_sites", [5, 30])
def test_eigenbasis_stepping_matches_site_basis_loop(n_sites):
    chain = ChainSpec(n_sites)
    psi0 = start_state(chain, PROTO, 2)
    record = evolve(chain, PROTO, psi0)
    assert len(record.states) == 2 * 512 + 1
    exponents = cf4_exponents(chain, lambda t: sample_trajectory(PROTO, t), 2 * 512, PROTO.duration)
    np.testing.assert_allclose(record.states, site_basis_states(exponents, record.dt, psi0), rtol=0, atol=1e-13)


def test_stirap_eigenbasis_stepping_matches_site_basis_loop():
    pump, stokes = PulseSpec(TWO_PI * 8.5, 3.6, 1.0, bond=1), PulseSpec(TWO_PI * 8.5, 2.4, 1.0, bond=2)
    record = stirap_sequence(pump, stokes, 6.0)
    exponents = cf4_exponents(ChainSpec(3), lambda t: (pump.envelope(t), stokes.envelope(t), np.zeros(len(t))),
                              512, 6.0)
    expected = site_basis_states(exponents, 6.0 / 512, np.array([1.0, 0.0, 0.0], dtype=complex))
    np.testing.assert_allclose(record.states, expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n_sites", [1, 2])
def test_shortest_chains_match_site_basis_loop(n_sites):
    """N = 1 has no even site, so its decomposition is the odd-site block
    alone and its QR has no column; N = 2 is a single pair."""
    chain, proto = ChainSpec(n_sites), replace(PROTO, delta_offset=TWO_PI * 2.0)
    psi0 = np.eye(n_sites, dtype=complex)[0]
    record = evolve(chain, proto, psi0)
    exponents = cf4_exponents(chain, lambda t: sample_trajectory(proto, t), 2 * 512, proto.duration)
    np.testing.assert_allclose(record.states, site_basis_states(exponents, record.dt, psi0), rtol=0, atol=1e-13)
    if n_sites == 1:  # the sin term of delta sums to zero over whole cycles at the mirrored Gauss nodes
        assert record.final_state[0] == pytest.approx(np.exp(-1j * proto.delta_offset * proto.duration), abs=1e-12)


coupling_values = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


@settings(max_examples=300, deadline=None)
@given(n_sites=st.integers(1, 12), parity=st.sampled_from([1, -1]),
       points=st.lists(st.tuples(coupling_values, coupling_values, st.booleans(), st.floats(0.0, 1e4)),
                       min_size=1, max_size=6))
@example(n_sites=10, parity=-1, points=[(0.0017, 0.0017, True, 13.1 / 0.0017)])
def test_chain_eigh_matches_eigh(n_sites, parity, points):
    """The odd-site-block decomposition of a chain stack against LAPACK's
    eigh: J1, J2 with exact zeros and J1 = J2 among the draws, and delta up
    to 10^4 times the larger coupling, where a d^2 shift in the odd block
    would cost thousands of eps (the example: J1 = J2 = 0.0017, d = -13.1)."""
    j1, j2, equal, ratio = (np.array(x) for x in zip(*points))
    j2 = np.where(equal, j1, j2)
    h = build_hamiltonians(ChainSpec(n_sites, parity), j1, j2, ratio * np.maximum(j1, j2))
    w, v = evolution._chain_eigh(h.copy())
    # a small multiple of eps |H|: np.linalg.eigh itself reaches 26 eps |H| on N = 30 pump exponents
    bound = 32 * np.finfo(float).eps * np.linalg.norm(h, 2, axis=(1, 2))[:, None, None]
    assert np.all(np.abs(v @ (w[:, :, None] * v.swapaxes(1, 2)) - h) <= bound)
    assert np.abs(v.swapaxes(1, 2) @ v - np.eye(n_sites)).max() <= 1e-14
    assert np.all(np.abs(np.sort(w, axis=1) - np.linalg.eigvalsh(h)) <= bound[:, :, 0])


@pytest.mark.parametrize("chunk_bytes", [1, 16 * 25 * 7])
def test_chunk_size_does_not_change_any_state(monkeypatch, chunk_bytes):
    cfgs = [EvolutionConfig(dt=PROTO.period / 1000, store_states=store) for store in (True, False)]
    before = [evolve(CHAIN, PROTO, start_state(), cfg).states for cfg in cfgs]
    # 1 or 7 step matrices and 1 or 14 exponents per chunk
    monkeypatch.setattr(evolution, "_CHUNK_BYTES", chunk_bytes)
    for cfg, states in zip(cfgs, before):
        assert np.array_equal(evolve(CHAIN, PROTO, start_state(), cfg).states, states)


def whole_stack_decomposition(chain, couplings, n_steps, span):
    """_chain_eigh of every CF4 exponent built at once, one build_hamiltonians
    call on the weighted couplings at the Gauss nodes."""
    root = np.sqrt(3.0) / 6.0
    a1, a2 = 0.25 + root, 0.25 - root
    nodes = (np.arange(n_steps)[:, None] + 0.5 + np.array([-root, root])) * (span / n_steps)
    weighted = (np.stack([a1 * c[:, 0] + a2 * c[:, 1], a2 * c[:, 0] + a1 * c[:, 1]], axis=1).ravel()
                for c in couplings(nodes))
    return evolution._chain_eigh(build_hamiltonians(chain, *weighted))


@pytest.mark.parametrize("n_sites", [5, 30])
def test_chunked_decomposition_equals_whole_stack_eigh(monkeypatch, n_sites):
    chain, couplings = ChainSpec(n_sites), lambda t: sample_trajectory(PROTO, t)
    expected, v = whole_stack_decomposition(chain, couplings, 100, PROTO.duration)
    # 3 exponents per chunk: chunks split steps' M1, M2 pairs, and 200 = 66 * 3 + 2 ends short
    monkeypatch.setattr(evolution, "_CHUNK_BYTES", 3 * 8 * n_sites**2)
    for store in (True, False):
        w, overlaps, first, bases = zip(*evolution._cf4_decomposition(chain, [couplings], 100, PROTO.duration, store))
        assert np.array_equal(np.concatenate(w)[:, 0], expected) and np.array_equal(first[0][0], v[0])
        assert all(f is None for f in first[1:])
        assert np.array_equal(np.concatenate(overlaps)[:, 0], v[1:].conj().swapaxes(1, 2) @ v[:-1])
        assert np.array_equal(np.concatenate(bases)[:, 0], v[1::2] if store else v[-1:])


def held_bytes(chunks):
    return sum(a.nbytes for chunk in chunks for a in chunk if a is not None)


def test_decomposition_holds_its_output_and_a_few_chunks():
    chain = ChainSpec(30)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        chunks = list(evolution._cf4_decomposition(chain, [lambda t: sample_trajectory(PROTO, t)], 512,
                                                   PROTO.duration, False))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the output is 7.6 MB; a whole stack of Hamiltonians would add as much again
    assert peak <= held_bytes(chunks) + 3 * evolution._CHUNK_BYTES


@pytest.mark.parametrize("store", [True, False])
def test_unshared_run_holds_its_output_and_a_few_chunks(store):
    """A run outside shared_decompositions() steps each chunk as it is
    decomposed: its 8,192 eigenvectors, 59 MB, never exist at once."""
    chain, cfg = ChainSpec(30), EvolutionConfig(dt=PROTO.duration / 4096, store_states=store)
    psi0 = start_state(chain, PROTO, 2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        record = evolve(chain, PROTO, psi0, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(record.states) == (4097 if store else 2)
    # the complex step buffer (2 chunks), the chunk being stepped (2) and the one being decomposed (3)
    assert peak <= record.times.nbytes + record.states.nbytes + 7 * evolution._CHUNK_BYTES


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), n_matrices=st.integers(1, 40), dt=st.floats(0.0, 2.0, exclude_min=True),
       complex_h=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_step_reversal_recovers_state(n, n_matrices, dt, complex_h, seed):
    """Stepping through a Hermitian stack and then through the reversed
    stack of -H returns the state."""
    rng = np.random.default_rng(seed)
    hs = rng.normal(size=(n_matrices, n, n)) + (1j * rng.normal(size=(n_matrices, n, n)) if complex_h else 0)
    hs = (hs + hs.conj().swapaxes(1, 2)) / 2
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    back = propagate(-hs[::-1], dt, propagate(hs, dt, psi))
    np.testing.assert_allclose(back, psi, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n_sites=st.integers(2, 12), steps=st.integers(1, 300), periods=st.lists(st.floats(0.2, 5.0), min_size=2,
       max_size=2), n_cycles=st.integers(1, 4), store=st.booleans(), chunk_matrices=st.integers(1, 40))
def test_shared_and_streamed_runs_agree_bit_for_bit(n_sites, steps, periods, n_cycles, store, chunk_matrices):
    """Runs at T1 and T2 announced to shared_decompositions() step as one
    stack through one held grid of steps, walked once per pass; the run at
    T2 equals a run at T2 that nothing shares, stepped as it is decomposed
    and decomposed again each pass, also where the step count does not
    divide into the cycles."""
    chain = ChainSpec(n_sites)
    first, second = (replace(PROTO, period=period, n_cycles=n_cycles) for period in periods)
    psi0 = start_state(chain, PROTO)
    cfgs = [EvolutionConfig(dt=proto.duration / steps, store_states=store) for proto in (first, second)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evolution, "_CHUNK_BYTES", chunk_matrices * 8 * n_sites**2)
        with evolution.shared_decompositions([(chain, first, psi0, cfgs[0]), (chain, second, psi0, cfgs[1])]):
            evolve(chain, first, psi0, cfgs[0])
            shared = evolve(chain, second, psi0, cfgs[1])
        alone = evolve(chain, second, psi0, cfgs[1])
    assert np.array_equal(shared.states, alone.states) and np.array_equal(shared.times, alone.times)


@pytest.mark.parametrize("n_cycles, n_steps", [(1, 12), (2, 12), (3, 12), (4, 12), (2, 7), (3, 10), (4, 6)])
def test_shared_runs_decompose_one_grid_of_steps(eigh_matrices, n_cycles, n_steps):
    """The steps of a k-cycle run repeat every n_steps / gcd(n_steps, k)
    steps, so the announced runs of one schedule key inside
    shared_decompositions() decompose that grid's exponents once,
    2 n_steps / gcd(n_steps, k) of them."""
    runs = [(CHAIN, proto, start_state(), EvolutionConfig(dt=proto.duration / n_steps, store_states=False))
            for proto in (replace(PROTO, period=period, n_cycles=n_cycles) for period in (0.5, 0.8))]
    with evolution.shared_decompositions(runs):
        for run in runs:
            evolve(*run)
    assert eigh_matrices(3) == 2 * n_steps // math.gcd(n_steps, n_cycles)


def same_records(a, b):
    return np.array_equal(a.states, b.states) and np.array_equal(a.times, b.times) and a.dt == b.dt


@pytest.mark.parametrize("store", [True, False])
@pytest.mark.parametrize("n_sites", [5, 12, 24, 30, 31])
def test_period_stack_equals_lone_runs_bit_for_bit(propagate_stacks, eigh_matrices, n_sites, store):
    """Inside shared_decompositions(runs) the announced periods and start
    states of one schedule step as one stack, in the step form of their
    chain length, at the first evolve of any of them, through one grid.
    Each run keeps the bits of the same run outside the block, and so do
    the runs that step alone: a period, a store_states and a dt that were
    not announced, and an announced run evolved again."""
    chain, size, cfg = ChainSpec(n_sites), (n_sites + 1) // 2, EvolutionConfig(store_states=store)
    psi0, other = start_state(chain, PROTO, (chain.n_cells + 1) // 2), start_state(chain, PROTO, 1)
    announced = [(psi0, 0.4, cfg), (psi0, 1.3, cfg), (other, 1.3, cfg), (psi0, 0.7, cfg)]
    unannounced = [(psi0, 0.9, cfg), (psi0, 0.4, replace(cfg, store_states=not store)),
                   (psi0, 0.4, replace(cfg, dt=0.4 / 256)), (psi0, 0.4, cfg)]
    runs = [(chain, replace(PROTO, period=p), psi, c) for psi, p, c in announced + unannounced]
    alone = [evolve(*run) for run in runs[:len(announced)]]
    before = eigh_matrices(size)
    alone += [evolve(*run) for run in runs[len(announced):]]
    lone = eigh_matrices(size) - before
    propagate_stacks.clear()
    before = eigh_matrices(size)
    with evolution.shared_decompositions(runs[:len(announced)]):
        shared = [evolve(*run) for run in runs]
    # one cycle's grid of 512 steps, two exponents a step, for the whole stack
    assert eigh_matrices(size) - before == 2 * 512 + lone
    assert propagate_stacks == [len(announced)] + [1] * len(unannounced)
    assert all(same_records(a, b) for a, b in zip(alone, shared))


def test_listed_periods_of_other_step_counts_keep_their_bits():
    """At a fixed dt the announced periods take 100, 104 and 180 steps,
    three stack keys: a stack stepped at one key's count is never returned
    to a run of another, and every run keeps its lone bits."""
    chain, periods = ChainSpec(24), [0.5, 0.52, 0.9]
    psi0, cfg = start_state(chain, PROTO, 5), EvolutionConfig(dt=0.01, store_states=True)
    runs = [(chain, replace(PROTO, period=p), psi0, cfg) for p in periods]
    with evolution.shared_decompositions(runs):
        shared = [evolve(*run) for run in runs]
    alone = [evolve(*run) for run in runs]
    assert [len(r.times) for r in shared] == [101, 105, 181]
    assert all(same_records(a, b) for a, b in zip(alone, shared))


@pytest.mark.parametrize("store", [True, False])
def test_stack_chunking_does_not_change_any_state(monkeypatch, store):
    """A stack casts its overlaps and builds its (steps, B, N) phases a
    block of steps at a time: blocks of 1 to 90 steps, in chunks of 1 to
    209 exponents, give the same bits."""
    chain, periods = ChainSpec(25), [0.3, 0.8, 1.1, 2.0]
    psi0, cfg = start_state(chain, PROTO, 6), EvolutionConfig(dt=None, store_states=store)
    runs = [(chain, replace(PROTO, n_cycles=3, period=p), psi0, cfg) for p in periods]

    def stacked():
        with evolution.shared_decompositions(runs):
            return [evolve(*run).states for run in runs]

    expected = stacked()
    # blocks of 1, 5 and 1 steps in chunks of 1, 12 and 3 exponents; the default is 90 and 209
    for chunk_bytes in (1, 5 * 16 * 25 * 29 + 4000, 3 * 8 * 25**2):
        monkeypatch.setattr(evolution, "_CHUNK_BYTES", chunk_bytes)
        assert all(np.array_equal(a, b) for a, b in zip(stacked(), expected))


def test_period_stack_holds_its_grid_its_output_and_a_few_chunks():
    """A 200-period stack on N = 30 builds its phases a few steps at a time:
    all of them at once would take 197 MB, a chunk's 14 MB."""
    chain, cfg = ChainSpec(30), EvolutionConfig(store_states=False)
    psi0 = start_state(chain, PROTO, 7)
    runs = [(chain, replace(PROTO, period=float(p)), psi0, cfg) for p in np.geomspace(0.5, 5.0, 200)]
    # the one grid the stack holds: a cycle of 512 steps, as evolve decomposes it
    grid = held_bytes(list(evolution._cf4_decomposition(
        chain, [lambda t: sample_trajectory(replace(PROTO, period=1.0), t)], 512, 1, False)))
    records = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with evolution.shared_decompositions(runs):
            records.extend(evolve(*run) for run in runs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    outputs = sum(r.times.nbytes + r.states.nbytes for r in records)
    # the stack's final states (B, N), a block's complex overlaps and phases (a chunk together) and working rows
    assert peak <= grid + outputs + len(runs) * 30 * 16 + 4 * evolution._CHUNK_BYTES


@pytest.mark.parametrize("store", [True, False])
@pytest.mark.parametrize("n_cycles", [1, 2, 3])
@pytest.mark.parametrize("n_sites", [5, 12, 24, 30])
def test_offset_stack_equals_point_by_point_evolve(monkeypatch, propagate_stacks, eigh_matrices, n_sites, n_cycles,
                                                  store):
    """Offsets share the chain, step count and cycle count but not their
    Hamiltonians: announced, they step as one stack whose exponents are
    decomposed together. Their bonds are equal bit for bit, so the stack
    takes the bond part of its grid of 48 exponents once, for all five
    offsets and all gcd(n_steps, n_cycles) passes, where the runs one at a
    time decompose 48 a pass each. Every run equals one evolve of its own,
    bit for bit, also where chunk boundaries fall inside a grid."""
    chain, size = ChainSpec(n_sites), (n_sites + 1) // 2
    protocols = [replace(PROTO, n_cycles=n_cycles, delta_offset=TWO_PI * x) for x in (-3.0, -0.5, 0.0, 1.5, 4.0)]
    # 24 steps a cycle, so gcd(n_steps, n_cycles) = n_cycles passes through a grid of one cycle
    runs = [(chain, p, start_state(chain, p, (chain.n_cells + 1) // 2), EvolutionConfig(p.period / 24, store))
            for p in protocols]
    before = eigh_matrices(size)
    alone = [evolve(*run) for run in runs]
    lone = eigh_matrices(size) - before
    assert lone == len(runs) * 2 * 24 * n_cycles
    # 7 exponents of 5 schedules a chunk: chunk boundaries inside a grid of 48 exponents
    monkeypatch.setattr(evolution, "_CHUNK_BYTES", 7 * 5 * 8 * n_sites**2)
    propagate_stacks.clear()
    before = eigh_matrices(size)
    with evolution.shared_decompositions(runs):
        shared = [evolve(*run) for run in runs]
    assert eigh_matrices(size) - before == 2 * 24 and propagate_stacks == [len(runs)]
    assert all(same_records(a, b) for a, b in zip(alone, shared))


def nudged_at_one_node(couplings, step, node):
    """couplings with J1 one ulp larger at one Gauss node of one step."""
    def nudged(t):
        j1, j2, delta = couplings(t)
        j1 = j1.copy()
        j1[step, node] = np.nextafter(j1[step, node], np.inf)
        return j1, j2, delta
    return nudged


@pytest.mark.parametrize("store", [True, False])
def test_bonds_a_last_bit_apart_are_not_shared(eigh_matrices, store):
    """Schedules share a bond part only where their weighted J1 and J2 are
    equal bit for bit over the whole grid: a J1 one ulp larger at one node
    makes a second bond group, a shifted delta does not. Each run of the
    stack equals its lone run bit for bit."""
    chain, n_steps, passes = ChainSpec(7), 24, 2
    base = lambda t: sample_trajectory(PROTO, t)  # noqa: E731
    shifted = lambda t: sample_trajectory(replace(PROTO, delta_offset=3.0), t)  # noqa: E731
    couplings = [base, nudged_at_one_node(base, 5, 0), shifted]
    psi0s = [start_state(chain, PROTO, 2), start_state(chain, PROTO, 1), start_state(chain, PROTO, 3)]
    dts = [0.01, 0.02, 0.015]

    def step(schedules, indices):
        chunks = evolution._cf4_decomposition(chain, schedules, n_steps, PROTO.period, store, passes)
        return evolution._propagate(chunks, 2 * n_steps * passes, [dts[i] for i in indices],
                                    [psi0s[i] for i in indices], store, range(len(indices)))

    stacked = step(couplings, [0, 1, 2])
    # two bond groups, each grid of 48 exponents decomposed once for both passes
    assert eigh_matrices(4) == 2 * 2 * n_steps
    for i, schedule in enumerate(couplings):
        (final, states), = step([schedule], [i])
        assert np.array_equal(final, stacked[i][0])
        assert states is None or np.array_equal(states, stacked[i][1])


@pytest.mark.parametrize("store", [True, False])
@pytest.mark.parametrize("n_sites", [5, 12])
def test_stack_of_mixed_bond_groups_equals_lone_runs(propagate_stacks, eigh_matrices, n_sites, store):
    """Offsets of one J0 share their bonds and other J0 do not: a stack of
    five schedules in three bond groups, their members not adjacent,
    decomposes one bond grid per group, held for both passes, and every run
    equals one evolve of its own, bit for bit."""
    chain, size = ChainSpec(n_sites), (n_sites + 1) // 2
    points = [(1.5, -1.0), (2.0, 0.5), (1.5, 2.0), (1.0, 0.0), (2.0, -0.5)]
    protocols = [replace(PROTO, j_max=TWO_PI * j, delta_offset=TWO_PI * x) for j, x in points]
    runs = [(chain, p, start_state(chain, p, 2), EvolutionConfig(p.period / 24, store)) for p in protocols]
    alone = [evolve(*run) for run in runs]
    propagate_stacks.clear()
    before = eigh_matrices(size)
    with evolution.shared_decompositions(runs):
        shared = [evolve(*run) for run in runs]
    assert eigh_matrices(size) - before == 3 * 2 * 24 and propagate_stacks == [len(runs)]
    assert all(same_records(a, b) for a, b in zip(alone, shared))


# eigh_matrices counts from the start of the test; each example reads a difference of its counts
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_sites=st.integers(2, 12), n_cycles=st.integers(1, 3), n_steps=st.integers(1, 60),
       points=st.lists(st.tuples(st.sampled_from([1.5, 2.0]), st.floats(-5.0, 5.0)), min_size=2, max_size=6,
                       unique_by=lambda point: point[1]),
       store=st.booleans())
def test_stack_equals_lone_runs_and_decomposes_a_grid_per_bond_group(eigh_matrices, n_sites, n_cycles, n_steps,
                                                                      points, store):
    """Any stack of distinct offsets at one or two J0 equals its lone runs
    bit for bit and decomposes the 2G exponents of its grid of G = n_steps //
    gcd(n_steps, n_cycles) steps once per bond group, however many passes
    it takes."""
    chain, size = ChainSpec(n_sites), (n_sites + 1) // 2
    protocols = [replace(PROTO, j_max=TWO_PI * j, delta_offset=TWO_PI * x, n_cycles=n_cycles) for j, x in points]
    runs = [(chain, p, start_state(chain, p), EvolutionConfig(p.duration / n_steps, store)) for p in protocols]
    alone = [evolve(*run) for run in runs]
    before = eigh_matrices(size)
    with evolution.shared_decompositions(runs):
        shared = [evolve(*run) for run in runs]
    groups = len({j for j, _ in points})
    assert eigh_matrices(size) - before == groups * 2 * (n_steps // math.gcd(n_steps, n_cycles))
    assert all(same_records(a, b) for a, b in zip(alone, shared))


def test_offset_stack_holds_its_outputs_and_a_few_chunks():
    """A stack of 61 offsets on N = 5 streams its exponents: a chunk at a
    time, as many matrices as one offset's grid, and the couplings of one
    grid of every offset; holding the whole grid of all of them would take
    about 15 MB."""
    chain, cfg = ChainSpec(5), EvolutionConfig(store_states=False)
    protocols = [replace(PROTO, delta_offset=float(x)) for x in np.linspace(-3.0, 3.0, 61) * PROTO.delta0]
    runs = [(chain, p, start_state(chain, p), cfg) for p in protocols]
    records = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with evolution.shared_decompositions(runs):
            records.extend(evolve(*run) for run in runs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    outputs = sum(r.times.nbytes + r.states.nbytes for r in records)
    assert peak <= outputs + 3 * evolution._CHUNK_BYTES


def test_evolve_norm_drift_stays_tiny():
    cfg = EvolutionConfig(dt=PROTO.duration / 10_000, store_states=False)
    record = evolve(CHAIN, PROTO, start_state(), cfg)
    assert abs(np.linalg.norm(record.final_state) - 1.0) < 1e-9


@settings(max_examples=60, deadline=None)
@given(n_sites=st.integers(2, 8), parity=st.sampled_from([1, -1]), kind=st.sampled_from(KINDS),
       j_max=st.floats(0.1, 40.0), delta0=st.floats(0.0, 80.0), offset=st.floats(-80.0, 80.0),
       period=st.floats(0.05, 5.0), n_cycles=st.integers(1, 3), steps=st.integers(1, 200),
       seed=st.integers(0, 2**32 - 1))
def test_norm_and_population_sum_are_conserved(n_sites, parity, kind, j_max, delta0, offset, period, n_cycles,
                                               steps, seed):
    chain = ChainSpec(n_sites, parity)
    proto = PumpProtocol(kind, j_max, delta0, offset, period, n_cycles)
    rng = np.random.default_rng(seed)
    psi0 = rng.normal(size=n_sites) + 1j * rng.normal(size=n_sites)
    psi0 /= np.linalg.norm(psi0)
    record = evolve(chain, proto, psi0, EvolutionConfig(dt=proto.duration / steps))
    assert len(record.states) == steps + 1
    assert np.abs(np.linalg.norm(record.states, axis=1) - 1.0).max() < 1e-12
    assert np.abs(cell_populations(record.states, chain).sum(axis=1) - 1.0).max() < 1e-12


@pytest.mark.parametrize("run, n_sites", [
    (lambda psi0: evolve(CHAIN, PROTO, psi0, EvolutionConfig(dt=0.01)), 5),
    (lambda psi0: stirap_sequence(PulseSpec(1.0, 1.0, 1.0), PulseSpec(1.0, 2.0, 1.0, bond=2), 4.0, psi0=psi0), 3),
], ids=["evolve", "stirap_sequence"])
def test_evolve_requires_normalized_matching_state(eigh_matrices, run, n_sites):
    unnormalized = np.zeros(n_sites, dtype=complex)
    unnormalized[0] = 2.0
    with pytest.raises(ValueError, match="psi0 must be normalized"):
        run(unnormalized)
    with pytest.raises(ValueError, match="psi0 length must match n_sites"):
        run(np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="psi0 length must match n_sites"):
        run(np.ones(n_sites + 1, dtype=complex) / np.sqrt(n_sites + 1))
    # refused before anything is decomposed, through odd-site blocks of (N + 1) // 2 rows
    assert eigh_matrices((n_sites + 1) // 2) == 0


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["dt"])
def test_evolution_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=name):
        EvolutionConfig(**{name: value})


def test_dt_halving_moves_populations_below_tolerance():
    coarse = evolve(CHAIN, PROTO, start_state(), EvolutionConfig(dt=PROTO.period / 4096, store_states=False))
    fine = evolve(CHAIN, PROTO, start_state(), EvolutionConfig(dt=PROTO.period / 8192, store_states=False))
    diff = np.abs(cell_populations(coarse.final_state, CHAIN)
                  - cell_populations(fine.final_state, CHAIN))
    assert diff.max() < 1e-4


def acceptance_7_instances():
    """Acceptance 7's three seeded N = 5 pumps: (protocol, psi0, DOP853 final state)."""
    rng = np.random.default_rng(42)
    for _ in range(3):
        proto = PumpProtocol(
            "experimental",
            TWO_PI * rng.uniform(1.0, 2.0),
            TWO_PI * rng.uniform(4.0, 8.0),
            TWO_PI * rng.uniform(-2.0, 2.0),
            float(rng.uniform(0.8, 1.2)),
            1,
        )
        psi0 = start_state(CHAIN, proto)

        def rhs(t, y, _p=proto):
            point = sample_trajectory(_p, min(t, _p.duration))
            return -1j * (build_hamiltonian(CHAIN, point) @ y)

        ref = solve_ivp(rhs, (0.0, proto.duration), psi0, method="DOP853",
                        rtol=1e-12, atol=1e-14).y[:, -1]
        yield proto, psi0, ref


def test_final_state_agrees_with_high_order_reference():
    for proto, psi0, ref in acceptance_7_instances():
        mine = evolve(CHAIN, proto, psi0,
                      EvolutionConfig(dt=proto.period / 65536, store_states=False)).final_state
        assert np.linalg.norm(mine - ref) < 1e-8


def test_error_falls_as_the_fourth_power_of_the_step():
    """Each halving of the step, 128 -> 256 -> 512 per cycle, cuts the
    distance to DOP853 by at least 10x (fourth order gives 16x)."""
    for proto, psi0, ref in acceptance_7_instances():
        errors = [np.linalg.norm(evolve(CHAIN, proto, psi0, EvolutionConfig(dt=proto.period / k, store_states=False))
                                 .final_state - ref) for k in (128, 256, 512)]
        assert errors[0] > 10 * errors[1] > 100 * errors[2], errors


def test_phase_grid_matches_reference_when_steps_do_not_tile_a_cycle():
    """Gauss nodes sampled by cycle phase, at an odd step count over two
    cycles, meet acceptance 7's bound against DOP853."""
    psi0 = start_state()

    def rhs(t, y):
        return -1j * (build_hamiltonian(CHAIN, sample_trajectory(PROTO, min(t, PROTO.duration))) @ y)

    ref = solve_ivp(rhs, (0.0, PROTO.duration), psi0, method="DOP853", rtol=1e-12, atol=1e-14).y[:, -1]
    cfg = EvolutionConfig(dt=PROTO.duration / (2 * 131072 + 1), store_states=False)
    assert np.linalg.norm(evolve(CHAIN, PROTO, psi0, cfg).final_state - ref) < 1e-8


def test_step_budget_refuses_oversized_runs():
    tiny = PROTO.duration / (MAX_STEPS + 2)
    with pytest.raises(ValueError, match=f"{MAX_STEPS + 2} steps exceed the step budget of {MAX_STEPS}"):
        evolve(CHAIN, PROTO, start_state(), EvolutionConfig(dt=tiny))
    with pytest.raises(ValueError, match=f"exceed the step budget of {MAX_STEPS}"):
        stirap_sequence(PulseSpec(1.0, 1.0, 1.0), PulseSpec(1.0, 2.0, 1.0, bond=2), 4.0,
                        EvolutionConfig(dt=1e-9))


def test_store_states_toggle_changes_record_shape_not_result():
    full = evolve(CHAIN, PROTO, start_state(), EvolutionConfig(dt=PROTO.period / 512))
    slim = evolve(CHAIN, PROTO, start_state(), EvolutionConfig(dt=PROTO.period / 512, store_states=False))
    assert full.states.shape == (1025, 5)
    assert slim.states.shape == (2, 5)
    assert np.array_equal(full.final_state, slim.final_state)
    assert full.cell_population_table().shape == (1025, CHAIN.n_cells)
    pulses = (PulseSpec(TWO_PI * 8.5, 3.6, 1.0, bond=1), PulseSpec(TWO_PI * 8.5, 2.4, 1.0, bond=2), 6.0)
    full = stirap_sequence(*pulses, EvolutionConfig(dt=6.0 / 512))
    slim = stirap_sequence(*pulses, EvolutionConfig(dt=6.0 / 512, store_states=False))
    assert full.states.shape == (513, 3)
    assert slim.states.shape == (2, 3)
    assert np.array_equal(slim.times, [0.0, 6.0])
    assert np.array_equal(full.final_state, slim.final_state)


def test_evolution_is_deterministic():
    a = evolve(CHAIN, PROTO, start_state(), EvolutionConfig(dt=PROTO.period / 1024, store_states=False))
    b = evolve(CHAIN, PROTO, start_state(), EvolutionConfig(dt=PROTO.period / 1024, store_states=False))
    assert np.array_equal(a.final_state, b.final_state)


def test_initial_dimer_state_is_block_eigenstate():
    point = sample_trajectory(PROTO, 0.0)
    for branch, index in (("lower", 0), ("upper", 1)):
        psi = initial_dimer_state(CHAIN, point, 2, branch)
        h = build_hamiltonian(CHAIN, ParameterPoint(point.j1, 0.0, point.delta))
        energies = np.linalg.eigvalsh(h[2:4, 2:4])
        hpsi = h @ psi
        np.testing.assert_allclose(hpsi, energies[index] * psi, atol=1e-12)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
        assert np.all(psi[[0, 1, 4]] == 0.0)


def test_initial_dimer_state_validation():
    point = sample_trajectory(PROTO, 0.0)
    with pytest.raises(ValueError):
        initial_dimer_state(CHAIN, point, 1, "middle")
    with pytest.raises(ValueError):
        initial_dimer_state(CHAIN, point, 9)
    # the trailing singleton of an odd chain cannot host a dimer
    with pytest.raises(ValueError):
        initial_dimer_state(CHAIN, point, 3)
    with pytest.raises(ValueError):
        initial_dimer_state(CHAIN, ParameterPoint(1.0, 0.5, 0.0), 1)
    with pytest.raises(ValueError):
        initial_dimer_state(CHAIN, ParameterPoint(0.0, 0.0, 1.0), 1)


def test_branch_mirror_under_parity_flip():
    """Sublattice exchange maps the lower branch of one parity onto the
    upper branch of the other, leaving transfer efficiency unchanged."""
    cfg = EvolutionConfig(dt=PROTO.period / 2048, store_states=False)
    for off in (0.0, TWO_PI * 1.3, -TWO_PI * 3.1):
        proto = PumpProtocol("experimental", TWO_PI * 1.5, TWO_PI * 7.0, off, 1.0, 2)
        effs = {}
        for parity, branch in (((+1), "lower"), ((-1), "upper")):
            chain = ChainSpec(5, delta_parity=parity)
            psi0 = initial_dimer_state(chain, sample_trajectory(proto, 0.0), 1, branch)
            record = evolve(chain, proto, psi0, cfg)
            effs[parity] = transfer_efficiency(record)
        assert effs[+1] == pytest.approx(effs[-1], abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(offset=st.floats(-TWO_PI * 10.0, TWO_PI * 10.0), period=st.floats(0.2, 3.0), n_sites=st.integers(2, 9),
       cell=st.integers(1, 4))
def test_branch_mirror_under_parity_flip_holds_everywhere(offset, period, n_sites, cell):
    """The sublattice exchange of test_branch_mirror_under_parity_flip, at
    any offset and period, on odd and even chains, from any full cell: the
    lower branch at parity +1 and the upper branch at -1 end with the same
    cell populations."""
    proto = PumpProtocol("experimental", TWO_PI * 1.5, TWO_PI * 7.0, offset, period, 2)
    cell = min(cell, n_sites // 2)
    cfg = EvolutionConfig(dt=period / 256, store_states=False)
    pops = []
    for parity, branch in ((+1, "lower"), (-1, "upper")):
        chain = ChainSpec(n_sites, delta_parity=parity)
        psi0 = initial_dimer_state(chain, sample_trajectory(proto, 0.0), cell, branch)
        pops.append(cell_populations(evolve(chain, proto, psi0, cfg).final_state, chain))
    np.testing.assert_allclose(pops[0], pops[1], rtol=0, atol=1e-12)


def test_cell_populations_group_site_weights():
    psi = np.sqrt(np.array([0.1, 0.2, 0.3, 0.25, 0.15], dtype=complex))
    pops = cell_populations(psi, CHAIN)
    np.testing.assert_allclose(pops, [0.3, 0.55, 0.15], atol=1e-12)
    assert pops.sum() == pytest.approx(1.0)


def test_mean_position_and_spread_closed_form():
    # equal split between cells 1 and 3 of a 3-cell chain
    psi = np.zeros(5, dtype=complex)
    psi[0] = psi[4] = np.sqrt(0.5)
    mean, sigma = mean_position_and_spread(psi, CHAIN)
    assert mean == pytest.approx(2.0)
    assert sigma == pytest.approx(1.0)


def test_transfer_efficiency_reads_last_cell():
    psi = np.zeros(5, dtype=complex)
    psi[4] = 1.0
    record = EvolutionRecord(np.array([0.0]), psi[None, :], CHAIN, 0.1)
    assert transfer_efficiency(record) == pytest.approx(1.0)
    half = np.zeros(5, dtype=complex)
    half[0] = half[4] = np.sqrt(0.5)
    record = EvolutionRecord(np.array([0.0]), half[None, :], CHAIN, 0.1)
    assert transfer_efficiency(record) == pytest.approx(0.5)


def test_pulse_envelope_shape_and_validation():
    pulse = PulseSpec(TWO_PI * 8.5, 2.0, 0.7, bond=1)
    assert pulse.envelope(2.0) == pytest.approx(TWO_PI * 8.5 / 2)
    assert pulse.envelope(2.0 + 0.7) == pytest.approx(TWO_PI * 8.5 / 2 * np.exp(-1.0))
    with pytest.raises(ValueError):
        PulseSpec(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        PulseSpec(1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="center must be finite, got nan"):
        PulseSpec(1.0, np.nan, 1.0)


def test_stirap_counterintuitive_order_transfers_through_dark_state():
    peak = TWO_PI * 8.5
    pump = PulseSpec(peak, 3.6, 1.0, bond=1)
    stokes = PulseSpec(peak, 2.4, 1.0, bond=2)
    record = stirap_sequence(pump, stokes, 6.0, EvolutionConfig(dt=6.0 / 4096))
    pops = np.abs(record.states) ** 2
    assert pops[-1, 2] > 0.95
    # dark-state transfer keeps the middle site nearly empty throughout
    assert pops[:, 1].max() < 0.05


def test_stirap_intuitive_order_fails_to_transfer_cleanly():
    peak = TWO_PI * 8.5
    pump = PulseSpec(peak, 2.4, 1.0, bond=1)
    stokes = PulseSpec(peak, 3.6, 1.0, bond=2)
    record = stirap_sequence(pump, stokes, 6.0, EvolutionConfig(dt=6.0 / 4096))
    pops = np.abs(record.states) ** 2
    assert pops[:, 1].max() > 0.2


@pytest.mark.parametrize("duration", [0.0, -6.0, np.nan, np.inf])
def test_stirap_refuses_a_duration_that_is_not_positive_and_finite(eigh_matrices, duration):
    with pytest.raises(ValueError, match=f"duration must be positive and finite, got {duration!r}"):
        stirap_sequence(PulseSpec(1.0, 1.0, 1.0), PulseSpec(1.0, 2.0, 1.0, bond=2), duration)
    assert eigh_matrices(2) == 0  # the odd-site block of the three-site chain


def test_stirap_rejects_bad_bond():
    for bond in (0, 3):
        with pytest.raises(ValueError, match=f"bond must be 1 or 2 on a three-site chain, got {bond}"):
            PulseSpec(1.0, 1.0, 1.0, bond=bond)
