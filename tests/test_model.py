"""Chain geometry, Hamiltonian assembly, and Bloch band width."""

import numpy as np
import pytest

from ricemele.evolution import cell_populations, initial_dimer_state
from ricemele.model import (
    ChainSpec,
    ParameterPoint,
    bloch_band_width,
    build_hamiltonian,
    build_hamiltonians,
)


def test_default_cells_odd_chain_ends_in_singleton():
    assert ChainSpec(5).cells == ((1, 2), (3, 4), (5,))
    assert ChainSpec(6).cells == ((1, 2), (3, 4), (5, 6))
    assert ChainSpec(1).cells == ((1,),)


def test_chain_spec_counts_cells_and_maps_sites():
    spec = ChainSpec(7)
    assert spec.n_cells == 4
    assert spec.cells[0] == (1, 2)
    assert 6 in spec.cells[2]
    assert spec.cells[3] == (7,)


def test_chain_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        ChainSpec(0)
    with pytest.raises(ValueError):
        ChainSpec(4, delta_parity=2)
    # the cells follow from n_sites and are not an input
    with pytest.raises(TypeError):
        ChainSpec(4, cells=((1, 2), (3, 4)))


def test_intra_bonds_alternate_starting_intra():
    spec = ChainSpec(6)
    assert spec.intra_bonds().tolist() == [True, False, True, False, True]
    # the dangling site contributes one inter-cell bond at the end
    assert ChainSpec(5).intra_bonds().tolist() == [True, False, True, False]


@pytest.mark.parametrize("parity", [1, -1])
@pytest.mark.parametrize("n_sites", range(1, 65))
def test_derived_cells_agree_with_default_cells(n_sites, parity):
    spec = ChainSpec(n_sites, delta_parity=parity)
    cells = spec.cells
    # dimers from site 1, ordered and covering 1..N; only the last cell may be a single site
    assert [s for c in cells for s in c] == list(range(1, n_sites + 1))
    assert [len(c) for c in cells[:-1]] == [2] * (len(cells) - 1) and len(cells[-1]) in (1, 2)
    owner = {s: i for i, c in enumerate(cells, start=1) for s in c}
    assert [owner[s] for s in range(1, n_sites + 1)] == [(s + 1) // 2 for s in range(1, n_sites + 1)]
    assert spec.n_cells == len(cells)
    assert spec.intra_bonds().tolist() == [owner[b] == owner[b + 1] for b in range(1, n_sites)]
    psi = np.random.default_rng(n_sites).normal(size=(3, n_sites)) + 0j
    expected = [[sum(w[s - 1] for s in c) for c in cells] for w in np.abs(psi) ** 2]
    np.testing.assert_array_equal(cell_populations(psi, spec), expected)
    point = ParameterPoint(1.0, 0.0, 0.5)
    for i, c in enumerate(cells, start=1):
        if len(c) == 1:
            with pytest.raises(ValueError, match="2 sites"):
                initial_dimer_state(spec, point, i)
        else:
            assert np.flatnonzero(initial_dimer_state(spec, point, i)).tolist() == [c[0] - 1, c[1] - 1]


def test_site_signs_follow_parity():
    assert ChainSpec(4).site_signs().tolist() == [1.0, -1.0, 1.0, -1.0]
    assert ChainSpec(4, delta_parity=-1).site_signs().tolist() == [-1.0, 1.0, -1.0, 1.0]


def test_build_hamiltonian_matches_hand_matrix():
    spec = ChainSpec(5)
    j1, j2, d = 1.3, 0.4, 2.2
    h = build_hamiltonian(spec, ParameterPoint(j1, j2, d))
    expected = np.array(
        [
            [d, -j1, 0.0, 0.0, 0.0],
            [-j1, -d, -j2, 0.0, 0.0],
            [0.0, -j2, d, -j1, 0.0],
            [0.0, 0.0, -j1, -d, -j2],
            [0.0, 0.0, 0.0, -j2, d],
        ]
    )
    np.testing.assert_allclose(h, expected, atol=0.0)
    np.testing.assert_allclose(h, h.T, atol=0.0)


def test_parity_flip_negates_diagonal_only():
    point = ParameterPoint(0.7, 1.1, 1.9)
    h_plus = build_hamiltonian(ChainSpec(6), point)
    h_minus = build_hamiltonian(ChainSpec(6, delta_parity=-1), point)
    np.testing.assert_allclose(np.diag(h_minus), -np.diag(h_plus), atol=0.0)
    off = ~np.eye(6, dtype=bool)
    np.testing.assert_allclose(h_minus[off], h_plus[off], atol=0.0)


def test_batched_hamiltonians_match_loop():
    spec = ChainSpec(5)
    rng = np.random.default_rng(11)
    j1 = rng.uniform(0.0, 3.0, 8)
    j2 = rng.uniform(0.0, 3.0, 8)
    delta = rng.uniform(-5.0, 5.0, 8)
    stack = build_hamiltonians(spec, j1, j2, delta)
    assert stack.shape == (8, 5, 5)
    for k in range(8):
        single = build_hamiltonian(spec, ParameterPoint(j1[k], j2[k], delta[k]))
        np.testing.assert_allclose(stack[k], single, atol=0.0)


def test_batched_hamiltonians_broadcast_scalars():
    spec = ChainSpec(4)
    stack = build_hamiltonians(spec, 1.0, np.array([0.5, 0.6]), 0.0)
    assert stack.shape == (2, 4, 4)
    assert stack[0, 1, 2] == -0.5 and stack[1, 1, 2] == -0.6


def test_parameter_point_rejects_negative_couplings():
    with pytest.raises(ValueError):
        ParameterPoint(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        ParameterPoint(0.0, -0.1, 0.0)


def test_bloch_band_width_against_dense_momentum_grid():
    rng = np.random.default_rng(5)
    ks = np.linspace(-np.pi, np.pi, 20001)
    for _ in range(20):
        j1, j2 = rng.uniform(0.0, 3.0, 2)
        d = rng.uniform(-4.0, 4.0)
        point = ParameterPoint(j1, j2, d)
        band = np.sqrt(d * d + j1 * j1 + j2 * j2 + 2 * j1 * j2 * np.cos(ks))
        np.testing.assert_allclose(
            bloch_band_width(point), band.max() - band.min(), rtol=0.0, atol=1e-7
        )


def test_bloch_band_width_vanishes_when_dimerized():
    assert bloch_band_width(ParameterPoint(1.5, 0.0, 2.0)) == 0.0
    assert bloch_band_width(ParameterPoint(0.0, 1.5, 2.0)) == 0.0
