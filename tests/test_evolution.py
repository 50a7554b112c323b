"""Propagator accuracy, state preparation, observables, and STIRAP."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ricemele.evolution import (
    MAX_STEPS,
    EvolutionConfig,
    EvolutionRecord,
    PulseSpec,
    cell_populations,
    evolve,
    initial_dimer_state,
    mean_position_and_spread,
    propagate_step,
    stirap_sequence,
    transfer_efficiency,
)
from ricemele.model import TWO_PI, ChainSpec, ParameterPoint, build_hamiltonian
from ricemele.protocols import PumpProtocol, sample_trajectory

CHAIN = ChainSpec(5)
PROTO = PumpProtocol("experimental", TWO_PI * 1.5, TWO_PI * 7.0, 0.0, 1.0, 2)


def start_state(chain=CHAIN, proto=PROTO, cell=1, branch="lower"):
    return initial_dimer_state(chain, sample_trajectory(proto, 0.0), cell, branch)


def test_propagate_step_matches_two_site_rabi_formula():
    # H = [[0, -J], [-J, 0]] transfers with probability sin^2(J t)
    j = 1.7
    h = np.array([[0.0, -j], [-j, 0.0]])
    psi = np.array([1.0, 0.0], dtype=complex)
    for t in (0.1, 0.5, 2.3):
        out = propagate_step(h, t, psi)
        assert abs(out[1]) ** 2 == pytest.approx(np.sin(j * t) ** 2, abs=1e-12)


def test_propagate_step_is_unitary_and_rejects_bad_dt():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(5, 5))
    h = (h + h.T) / 2
    psi = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi /= np.linalg.norm(psi)
    out = propagate_step(h, 0.37, psi)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        propagate_step(h, 0.0, psi)


def test_step_reversal_recovers_state():
    h = build_hamiltonian(CHAIN, ParameterPoint(1.0, 0.5, 2.0))
    psi = start_state()
    back = propagate_step(-h, 0.2, propagate_step(h, 0.2, psi))
    np.testing.assert_allclose(back, psi, atol=1e-13)


def test_evolve_norm_drift_stays_tiny():
    cfg = EvolutionConfig(dt=PROTO.duration / 10_000, store_states=False)
    record = evolve(CHAIN, PROTO, start_state(), cfg)
    assert abs(np.linalg.norm(record.final_state) - 1.0) < 1e-9


def test_evolve_requires_normalized_matching_state():
    with pytest.raises(ValueError):
        evolve(CHAIN, PROTO, np.ones(5, dtype=complex), EvolutionConfig(dt=0.01))
    with pytest.raises(ValueError):
        evolve(CHAIN, PROTO, np.array([1.0, 0.0, 0.0], dtype=complex), EvolutionConfig(dt=0.01))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["dt", "convergence_tol"])
def test_evolution_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=name):
        EvolutionConfig(**{name: value})


def test_dt_halving_moves_populations_below_tolerance():
    coarse = evolve(CHAIN, PROTO, start_state(), EvolutionConfig(dt=PROTO.period / 4096, store_states=False))
    fine = evolve(CHAIN, PROTO, start_state(), EvolutionConfig(dt=PROTO.period / 8192, store_states=False))
    diff = np.abs(cell_populations(coarse.final_state, CHAIN)
                  - cell_populations(fine.final_state, CHAIN))
    assert diff.max() < 1e-4


def test_final_state_agrees_with_high_order_reference():
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
        mine = evolve(CHAIN, proto, psi0,
                      EvolutionConfig(dt=proto.period / 65536, store_states=False)).final_state
        assert np.linalg.norm(mine - ref) < 1e-8


def test_phase_grid_matches_reference_when_steps_do_not_tile_a_cycle():
    """Midpoints sampled by cycle phase, at an odd step count over two
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


def test_adaptive_halving_converges_and_reports_failure():
    cfg = EvolutionConfig(dt=PROTO.period / 64, adaptive_halving=True, convergence_tol=1e-6,
                          store_states=False)
    record = evolve(CHAIN, PROTO, start_state(), cfg)
    assert record.dt < PROTO.period / 64
    impossible = EvolutionConfig(dt=PROTO.period / 2, adaptive_halving=True,
                                 convergence_tol=1e-300, store_states=False)
    with pytest.raises(RuntimeError):
        evolve(CHAIN, PROTO, start_state(), impossible)


def test_store_states_toggle_changes_record_shape_not_result():
    full = evolve(CHAIN, PROTO, start_state(), EvolutionConfig(dt=PROTO.period / 512))
    slim = evolve(CHAIN, PROTO, start_state(), EvolutionConfig(dt=PROTO.period / 512, store_states=False))
    assert full.states.shape == (1025, 5)
    assert slim.states.shape == (2, 5)
    assert np.array_equal(full.final_state, slim.final_state)
    assert full.cell_population_table().shape == (1025, CHAIN.n_cells)


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


def test_stirap_rejects_bad_bond():
    with pytest.raises(ValueError):
        stirap_sequence(PulseSpec(1.0, 1.0, 1.0, bond=3), PulseSpec(1.0, 2.0, 1.0, bond=2), 4.0)
