"""Instantaneous spectra, excitation spectroscopy, and optimal-period tools."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import float_rows, write_lines
from .model import TWO_PI, ChainSpec, ParameterPoint, band_width, build_hamiltonian, build_hamiltonians
from .protocols import PumpProtocol, sample_trajectory
from . import evolution


@dataclass(frozen=True)
class SpectrumTrack:
    times: np.ndarray
    eigenvalues: np.ndarray  # shape (len(times), n_sites), ascending rows


@dataclass(frozen=True)
class ExcitationSpectrum:
    detunings: np.ndarray
    response: np.ndarray
    probe_site: int
    linewidth: float


def lorentzian(x, gamma):
    """Unit-height Lorentzian with half width at half maximum gamma."""
    x = np.asarray(x, dtype=float)
    return gamma * gamma / (x * x + gamma * gamma)


def instantaneous_spectrum(
    spec: ChainSpec, protocol: PumpProtocol, n_times: int = 256
) -> SpectrumTrack:
    """Eigenvalues of the instantaneous Hamiltonian over one pump period."""
    if n_times < 2:
        raise ValueError("need at least 2 time samples")
    times = np.linspace(0.0, protocol.period, n_times)
    j1, j2, delta = sample_trajectory(replace(protocol, n_cycles=1), times)
    h = build_hamiltonians(spec, j1, j2, delta)
    evals = np.linalg.eigvalsh(h)
    return SpectrumTrack(times=times, eigenvalues=evals)


def excitation_spectrum(
    spec: ChainSpec,
    point: ParameterPoint,
    probe_site: int,
    linewidth: float,
    detunings: np.ndarray,
) -> ExcitationSpectrum:
    """Overlap-weighted Lorentzian response of a laser probing one site.

    Each eigenstate |n> contributes |<n|probe>|^2 at detuning E_n, so the
    response integrates to pi * linewidth independently of the probe site.
    """
    if not 1 <= probe_site <= spec.n_sites:
        raise ValueError("probe_site out of range")
    if not 0 < linewidth < np.inf:
        raise ValueError(f"linewidth must be positive and finite, got {linewidth!r}")
    detunings = np.asarray(detunings, dtype=float)
    w, v = np.linalg.eigh(build_hamiltonian(spec, point))
    weights = np.abs(v[probe_site - 1, :]) ** 2
    response = np.zeros_like(detunings)
    for energy, weight in zip(w, weights):
        response += weight * lorentzian(detunings - energy, linewidth)
    return ExcitationSpectrum(
        detunings=detunings, response=response, probe_site=probe_site, linewidth=linewidth
    )


def find_spectral_peaks(x: np.ndarray, y: np.ndarray, min_height_frac: float = 0.1) -> np.ndarray:
    """Positions of local maxima above a fraction of the global maximum.

    A maximum is a sample, or a flat run reported at its middle index, whose
    neighbours on both sides are strictly lower; the first and last samples
    never count. These are the indices scipy.signal.find_peaks(y, height=...)
    returns.
    """
    y = np.asarray(y, dtype=float)
    height = min_height_frac * y.max()
    starts = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))  # runs of equal samples
    ends = np.append(starts[1:], len(y)) - 1
    level = y[starts]
    inner = np.arange(1, len(starts) - 1)
    runs = inner[(level[inner - 1] < level[inner]) & (level[inner + 1] < level[inner])]
    idx = (starts[runs] + ends[runs]) // 2
    return np.asarray(x)[idx[y[idx] >= height]]


def max_band_width(protocol: PumpProtocol) -> float:
    """Maximum Bloch band width along the protocol over one period.

    A scan at 512 times, then four 65-point scans, each across the two steps
    of the scan before around its widest time, at 1/32 of its step. The last
    step is period / 512 / 32**4.
    """
    period = protocol.period
    times, step = np.linspace(0.0, period, 512, endpoint=False), period / 512
    for _ in range(5):
        widths = band_width(*sample_trajectory(protocol, times % period))
        k = int(np.argmax(widths))  # each scan holds the widest time of the one before at its centre
        if widths[k] <= 0.0:
            return 0.0
        times, step = times[k] + step * np.linspace(-1.0, 1.0, 65), step / 32
    return float(widths[k])


def predict_optimal_period(protocol: PumpProtocol) -> float:
    """Dispersion scale of the pump period, 2*pi / max band width.

    The measured optimum of the smoothed efficiency sits at 0.25-0.29 of
    this value on a 15-cell chain (README, acceptance 3); the optimum
    scales as 1 / max band width, but the prefactor is not 1.
    """
    width = max_band_width(protocol)
    if width <= 0.0:
        raise ValueError("dispersionless protocol: no finite optimal period predicted")
    return TWO_PI / width


def _efficiency_run(spec, protocol, start_cell, branch, dt):
    """evolve's arguments for transport_efficiency."""
    psi0 = evolution.start_state(spec, protocol, start_cell, branch)
    return spec, protocol, psi0, evolution.EvolutionConfig(dt=dt, store_states=False)


def transport_efficiency(spec: ChainSpec, protocol: PumpProtocol, start_cell: int = 1,
                         branch: str = "lower", dt: float | None = None) -> float:
    """Efficiency into target_cell after n_cycles from start_cell's dimer state,
    stepped by dt, one CF4 step (see evolution); dt=None takes 512 per period."""
    record = evolution.evolve(*_efficiency_run(spec, protocol, start_cell, branch, dt))
    return evolution.transfer_efficiency(record, target_cell(spec, start_cell, branch, protocol.n_cycles))


def target_cell(spec: ChainSpec, start_cell: int, branch: str, n_cycles: int) -> int:
    """The cell n_cycles pump start_cell's dimer state to, clipped to the chain:
    one cell per cycle toward the end for the lower band at delta_parity +1
    and the upper band at -1, toward the start for the other two pairs."""
    direction = 1 if (branch == "lower") == (spec.delta_parity == 1) else -1
    return min(max(start_cell + direction * n_cycles, 1), spec.n_cells)


def efficiency_vs_period(
    spec: ChainSpec,
    protocol_template: PumpProtocol,
    period_grid: np.ndarray,
    start_cell: int = 1,
    branch: str = "lower",
    dt_per_cycle: int = evolution.DEFAULT_STEPS_PER_CYCLE,
) -> np.ndarray:
    """transport_efficiency for every period in the grid, dt_per_cycle steps per period.

    Every period steps through the same cycle phases, so the runs are
    announced to one shared_decompositions block: they step as one stack
    through one decomposition, which is dropped on return.
    """
    runs = [_efficiency_run(spec, replace(protocol_template, period=float(period)), start_cell, branch,
                            float(period) / dt_per_cycle) for period in period_grid]
    target = target_cell(spec, start_cell, branch, protocol_template.n_cycles)
    with evolution.shared_decompositions(runs):
        return np.array([evolution.transfer_efficiency(evolution.evolve(*run), target) for run in runs])


def smooth_moving_average(x: np.ndarray, y: np.ndarray, window: float) -> np.ndarray:
    """Box average of y over all x within +-window/2 of each grid point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    half = window / 2.0
    for i, xi in enumerate(x):
        mask = np.abs(x - xi) <= half
        out[i] = y[mask].mean()
    return out


def find_optimal_period(
    spec: ChainSpec,
    protocol_template: PumpProtocol,
    period_grid: np.ndarray,
    smoothing_window: float | None = None,
    start_cell: int = 1,
    branch: str = "lower",
) -> float:
    """Period of maximum smoothed pump efficiency over a sorted grid.

    Smoothing suppresses the fast efficiency oscillations whose frequency
    is set by delta0; the default window is one such oscillation period,
    2*pi/delta0. Ties resolve to the shorter period.
    """
    period_grid = np.asarray(period_grid, dtype=float)
    if len(period_grid) < 16:
        raise ValueError("period grid needs at least 16 points")
    if np.any(np.diff(period_grid) <= 0):
        raise ValueError("period grid must be strictly increasing")
    effs = efficiency_vs_period(spec, protocol_template, period_grid, start_cell, branch)
    if np.all(effs == 0.0):
        raise ValueError("all efficiencies vanish: degenerate protocol")
    if smoothing_window is None:
        if protocol_template.delta0 <= 0:
            raise ValueError("smoothing window required when delta0 = 0")
        smoothing_window = TWO_PI / protocol_template.delta0
    smoothed = smooth_moving_average(period_grid, effs, smoothing_window)
    return float(period_grid[int(np.argmax(smoothed))])


def write_spectrum_csv(track: SpectrumTrack, path: str) -> None:
    n_levels = track.eigenvalues.shape[1]
    header = "# columns: time_us," + ",".join(f"e{k + 1}" for k in range(n_levels))
    write_lines([header] + float_rows(track.times, track.eigenvalues), path)


def write_excitation_csv(spectrum: ExcitationSpectrum, path: str) -> None:
    lines = [
        f"# probe_site: {spectrum.probe_site}",
        f"# linewidth_rad_per_us: {spectrum.linewidth!r}",
        "# columns: detuning,response",
    ]
    write_lines(lines + float_rows(spectrum.detunings, spectrum.response), path)


def finite_band_spread(spec: ChainSpec, point: ParameterPoint) -> float:
    """Spread of the lower band of a finite chain, for Bloch cross-checks.

    Takes the lowest floor(N/2) eigenvalues and drops trailing mid-gap
    states, detected when the gap to the previous level exceeds 3 times
    the median level spacing inside the band.
    """
    evals = np.linalg.eigvalsh(build_hamiltonian(spec, point))
    band = evals[: spec.n_sites // 2]
    while len(band) > 2:
        gaps = np.diff(band)
        if gaps[-1] > 3.0 * np.median(gaps[:-1]):
            band = band[:-1]
        else:
            break
    return float(band[-1] - band[0])
