"""Rice-Mele chain model: dimer cells, Hamiltonian assembly, band width.

Units: all couplings and detunings are angular frequencies in rad/us,
time is in microseconds, hbar = 1. Configuration files quote ordinary
frequencies in MHz; multiply by 2*pi on ingest.

Coupling convention: each bond carries -J, where J is the tunnelling
amplitude, half the rf Rabi frequency (J = Omega / 2). PulseSpec turns a
peak Rabi frequency into J this way, and rfwave's Autler-Townes doublet
sits at +-Omega / 2. An isolated pair of sites therefore has lines at
+-J, split by 2 J = Omega.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ChainSpec:
    """Open chain of n_sites sites grouped into dimer cells {1,2},{3,4},...

    The cells always follow from n_sites: an odd chain ends in a
    single-site cell. delta_parity fixes the sign pattern of the on-site
    imbalance: +1 puts +delta on odd sites, -1 flips the whole pattern.
    """

    n_sites: int
    delta_parity: int = +1

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("n_sites must be positive")
        if self.delta_parity not in (+1, -1):
            raise ValueError("delta_parity must be +1 or -1")

    @property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        """Sites 1..N as dimer cells (1, 2), (3, 4), ..., the last (N,) for odd N."""
        return tuple(tuple(range(s, min(s + 2, self.n_sites + 1))) for s in range(1, self.n_sites + 1, 2))

    @property
    def n_cells(self) -> int:
        return (self.n_sites + 1) // 2

    def intra_bonds(self) -> np.ndarray:
        """Boolean mask over bonds (1..N-1); True where bond (i, i+1) is intra-cell,
        that is for odd i."""
        return np.arange(1, self.n_sites) % 2 == 1

    def site_signs(self) -> np.ndarray:
        """Per-site sign of delta on the diagonal."""
        signs = np.where(np.arange(1, self.n_sites + 1) % 2 == 1, 1.0, -1.0)
        return self.delta_parity * signs


@dataclass(frozen=True)
class ParameterPoint:
    """One point (J1, J2, delta) of the pump trajectory, rad/us."""

    j1: float
    j2: float
    delta: float

    def __post_init__(self):
        if self.j1 < 0 or self.j2 < 0:
            raise ValueError("couplings must be non-negative")


def build_hamiltonian(spec: ChainSpec, point: ParameterPoint) -> np.ndarray:
    """Dense real symmetric tridiagonal Hamiltonian for one parameter point.

    Diagonal alternates +delta/-delta by site parity; the bond (i, i+1)
    carries -J1 when intra-cell and -J2 when inter-cell.
    """
    return build_hamiltonians(spec, point.j1, point.j2, point.delta)[0]


def build_hamiltonians(spec: ChainSpec, j1, j2, delta) -> np.ndarray:
    """Stack of Hamiltonians for arrays of trajectory samples, shape (M, N, N).

    Each matrix is written through strided slices of its flattened rows,
    where element (i, j) sits at i * N + j: the diagonal is every (N + 1)-th
    element from 0, the bonds above it every (N + 1)-th from 1 and those
    below it every (N + 1)-th from N.
    """
    j1, j2, delta = (np.atleast_1d(np.asarray(a, dtype=float))[:, None] for a in (j1, j2, delta))
    m, n = max(j1.size, j2.size, delta.size), spec.n_sites
    h = np.zeros((m, n, n))
    flat = h.reshape(m, n * n)
    flat[:, ::n + 1] = delta * spec.site_signs()
    flat[:, 1::n + 1] = flat[:, n::n + 1] = np.where(spec.intra_bonds(), -j1, -j2)
    return h


def bloch_band_width(point: ParameterPoint) -> float:
    """Width of one Bloch band of the infinite chain at a parameter point.

    The band energies are +-sqrt(delta^2 + |J1 + J2 e^{ik}|^2), so the
    width is sqrt(delta^2 + (J1+J2)^2) - sqrt(delta^2 + (J1-J2)^2).
    """
    d2 = point.delta * point.delta
    hi = np.sqrt(d2 + (point.j1 + point.j2) ** 2)
    lo = np.sqrt(d2 + (point.j1 - point.j2) ** 2)
    return float(hi - lo)
