"""Spectra, band widths, optimal-period estimation, and CSV output."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.signal import find_peaks

import ricemele

from ricemele.evolution import EvolutionRecord, transfer_efficiency
from ricemele.model import TWO_PI, ChainSpec, ParameterPoint, bloch_band_width
from ricemele.protocols import KINDS, PumpProtocol, sample_trajectory
from ricemele.spectrum import (
    ExcitationSpectrum,
    efficiency_vs_period,
    excitation_spectrum,
    find_optimal_period,
    find_spectral_peaks,
    finite_band_spread,
    instantaneous_spectrum,
    lorentzian,
    max_band_width,
    predict_optimal_period,
    smooth_moving_average,
    target_cell,
    transport_efficiency,
    write_excitation_csv,
    write_spectrum_csv,
)

J0 = TWO_PI * 1.5
D0 = TWO_PI * 7.0
PROTO = PumpProtocol("experimental", J0, D0, 0.0, 1.0, 2)


def test_lorentzian_normalization_and_width():
    assert lorentzian(0.0, 0.5) == pytest.approx(1.0)
    assert lorentzian(0.5, 0.5) == pytest.approx(0.5)  # half maximum at x = gamma


def test_instantaneous_spectrum_shape_and_order():
    track = instantaneous_spectrum(ChainSpec(5), PROTO, n_times=64)
    assert track.eigenvalues.shape == (64, 5)
    assert np.all(np.diff(track.eigenvalues, axis=1) >= 0)
    # spans exactly one period even for a multi-cycle protocol
    assert track.times[-1] == pytest.approx(PROTO.period)
    with pytest.raises(ValueError):
        instantaneous_spectrum(ChainSpec(5), PROTO, n_times=1)


def test_excitation_peaks_sit_on_eigenvalues():
    spec = ChainSpec(6)
    point = ParameterPoint(TWO_PI * 1.0, TWO_PI * 4.0, 0.0)
    # narrow line so every level, including the mid-gap doublet, resolves
    gamma = 0.2
    from ricemele.model import build_hamiltonian

    evals = np.linalg.eigvalsh(build_hamiltonian(spec, point))
    detunings = np.linspace(evals[0] - 10.0, evals[-1] + 10.0, 20001)
    spectrum = excitation_spectrum(spec, point, 1, gamma, detunings)
    peaks = find_spectral_peaks(spectrum.detunings, spectrum.response, 0.05)
    assert len(peaks) >= 2
    for peak in peaks:
        assert np.min(np.abs(evals - peak)) < gamma / 10.0


def test_excitation_spectrum_sum_rule():
    spec = ChainSpec(6)
    point = ParameterPoint(TWO_PI * 1.0, TWO_PI * 4.0, 0.0)
    gamma = TWO_PI * 0.2
    from ricemele.model import build_hamiltonian

    w, v = np.linalg.eigh(build_hamiltonian(spec, point))
    probe = 2
    weights = np.abs(v[probe - 1, :]) ** 2
    lo, hi = -60.0, 60.0
    detunings = np.linspace(lo, hi, 120001)
    spectrum = excitation_spectrum(spec, point, probe, gamma, detunings)
    numeric = np.trapezoid(spectrum.response, detunings)
    exact = sum(
        wt * gamma * (np.arctan((hi - e) / gamma) - np.arctan((lo - e) / gamma))
        for e, wt in zip(w, weights)
    )
    assert numeric == pytest.approx(exact, rel=1e-6)
    # wide-span limit approaches pi * linewidth regardless of the probe
    assert numeric == pytest.approx(np.pi * gamma, rel=0.05)


def test_excitation_spectrum_validation():
    spec = ChainSpec(4)
    point = ParameterPoint(1.0, 2.0, 0.0)
    grid = np.linspace(-1, 1, 11)
    with pytest.raises(ValueError):
        excitation_spectrum(spec, point, 0, 1.0, grid)
    with pytest.raises(ValueError):
        excitation_spectrum(spec, point, 5, 1.0, grid)
    with pytest.raises(ValueError):
        excitation_spectrum(spec, point, 1, 0.0, grid)


def test_find_spectral_peaks_height_filter():
    x = np.linspace(0.0, 10.0, 2001)
    y = np.exp(-((x - 3.0) ** 2) / 0.1) + 0.2 * np.exp(-((x - 7.0) ** 2) / 0.1)
    tall = find_spectral_peaks(x, y, 0.5)
    both = find_spectral_peaks(x, y, 0.1)
    assert len(tall) == 1 and abs(tall[0] - 3.0) < 0.01
    assert len(both) == 2 and abs(both[1] - 7.0) < 0.01


# small integer levels make plateaus, including ones at either end
_LEVELS = st.one_of(st.integers(0, 4).map(float), st.floats(0.0, 4.0))


@settings(max_examples=300, deadline=None)
@given(y=st.lists(_LEVELS, min_size=1, max_size=60), frac=st.sampled_from([0.0, 0.1, 0.5, 1.0]))
def test_find_spectral_peaks_matches_scipy_find_peaks(y, frac):
    y = np.array(y)
    expected, _ = find_peaks(y, height=frac * y.max())
    assert np.array_equal(find_spectral_peaks(np.arange(len(y)), y, frac), expected)


def test_max_band_width_matches_closed_form():
    """The widest point of the smooth cycle is the maximal-imbalance corner,
    where J1 = J2 = J0/2 and |delta| = delta0: sqrt(delta0^2 + J0^2) - delta0,
    written without its cancellation. The width formula does not cancel
    either, so the scans land within a few ulps of it."""
    for j0 in (0.3, J0, 17.0):
        for delta0 in np.linspace(1.0, 5.0, 200) * j0:
            expected = j0**2 / (np.sqrt(delta0**2 + j0**2) + delta0)
            width = max_band_width(PumpProtocol("experimental", j0, delta0, 0.0, 1.0, 2))
            assert abs(width - expected) <= 4 * np.finfo(float).eps * expected


def test_max_band_width_independent_of_period_and_cycles():
    slow = PumpProtocol("experimental", J0, D0, 0.0, 3.7, 5)
    assert max_band_width(slow) == pytest.approx(max_band_width(PROTO), rel=1e-9)


def test_control_freak_is_dispersionless():
    proto = PumpProtocol("control_freak", J0, D0, 0.0, 1.0, 1)
    assert max_band_width(proto) == 0.0
    with pytest.raises(ValueError):
        predict_optimal_period(proto)


def scipy_max_band_width(protocol):
    """max_band_width as written on scipy.optimize.minimize_scalar."""
    period, n_times = protocol.period, 512

    def width_at(t):
        j1, j2, delta = sample_trajectory(protocol, np.array([t % period]))
        return bloch_band_width(ParameterPoint(float(j1[0]), float(j2[0]), float(delta[0])))

    times = np.linspace(0.0, period, n_times, endpoint=False)
    widths = np.array([width_at(t) for t in times])
    k = int(np.argmax(widths))
    if widths[k] <= 0.0:
        return 0.0
    res = minimize_scalar(lambda t: -width_at(t), bracket=(times[k] - period / n_times, times[k],
                          times[k] + period / n_times), method="golden", options={"xtol": 1e-6})
    return max(float(-res.fun), float(widths[k]))


@pytest.mark.parametrize("kind", KINDS)
def test_max_band_width_reaches_scipy_golden_search(kind):
    # the narrowing scans end on a step of period / 2**29, far inside the golden search's
    # 1e-6 relative tolerance: never below its width, and above it only by what it misses
    rng = np.random.default_rng(11)
    for _ in range(24):
        proto = PumpProtocol(kind, TWO_PI * rng.uniform(0.2, 3.0), TWO_PI * rng.uniform(0.0, 10.0),
                             TWO_PI * rng.uniform(-3.0, 3.0), float(rng.uniform(0.1, 5.0)),
                             int(rng.integers(1, 4)))
        width, golden = max_band_width(proto), scipy_max_band_width(proto)
        assert golden <= width <= golden * (1 + 1e-10)


def test_predict_optimal_period_does_not_import_scipy():
    probe = ("import sys; from ricemele import predict_optimal_period, PumpProtocol, TWO_PI; "
             "predict_optimal_period(PumpProtocol('experimental', TWO_PI * 1.5, TWO_PI * 7.0)); "
             "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    src = os.path.dirname(os.path.dirname(ricemele.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_predict_optimal_period_inverts_width():
    assert predict_optimal_period(PROTO) == pytest.approx(TWO_PI / max_band_width(PROTO))


def test_pump_efficiency_destination_selection():
    spec = ChainSpec(5)
    psi = np.zeros(5, dtype=complex)
    psi[2] = 1.0  # site 3, cell 2
    record = EvolutionRecord(np.array([0.0]), psi[None, :], spec, 0.1)
    assert transfer_efficiency(record, 2) == pytest.approx(1.0)
    assert transfer_efficiency(record) == pytest.approx(0.0)  # defaults to last cell
    with pytest.raises(ValueError):
        transfer_efficiency(record, 4)
    with pytest.raises(ValueError):
        transfer_efficiency(record, 0)


@pytest.mark.parametrize("branch, parity, target", [
    ("lower", 1, 5), ("upper", -1, 5), ("upper", 1, 1), ("lower", -1, 1)])
def test_efficiency_scores_the_cell_the_pump_moves_to(branch, parity, target):
    """control_freak pumps one cell per cycle, toward the chain's end or its
    start by band and parity; the scored cell follows it."""
    chain = ChainSpec(9, parity)
    proto = PumpProtocol("control_freak", TWO_PI * 1.5, TWO_PI * 7.0, 0.0, 10.0, 2)
    assert target_cell(chain, 3, branch, 2) == target
    assert transport_efficiency(chain, proto, 3, branch) > 0.99
    # clipped to the chain's cells
    assert target_cell(chain, 2, branch, 4) == (5 if target == 5 else 1)


def test_efficiency_vs_period_shape_and_range():
    spec = ChainSpec(5)
    template = PumpProtocol("experimental", J0, D0, 0.0, 1.0, 2)
    grid = np.array([0.3, 0.8, 1.5, 2.5])
    effs = efficiency_vs_period(spec, template, grid, dt_per_cycle=256)
    assert effs.shape == (4,)
    assert np.all((effs >= 0.0) & (effs <= 1.0))


def test_find_optimal_period_grid_validation():
    spec = ChainSpec(5)
    with pytest.raises(ValueError):
        find_optimal_period(spec, PROTO, np.linspace(0.5, 2.0, 8))
    with pytest.raises(ValueError):
        find_optimal_period(spec, PROTO, np.ones(20))


def test_find_optimal_period_degenerate_and_tie_cases(monkeypatch):
    spec = ChainSpec(5)
    grid = np.linspace(0.5, 3.0, 20)
    monkeypatch.setattr(
        "ricemele.spectrum.efficiency_vs_period", lambda *a, **k: np.zeros(len(grid))
    )
    with pytest.raises(ValueError):
        find_optimal_period(spec, PROTO, grid)
    monkeypatch.setattr(
        "ricemele.spectrum.efficiency_vs_period", lambda *a, **k: np.ones(len(grid))
    )
    # a flat landscape resolves to the shortest period
    assert find_optimal_period(spec, PROTO, grid) == pytest.approx(grid[0])


def test_find_optimal_period_requires_window_when_delta0_zero(monkeypatch):
    spec = ChainSpec(5)
    grid = np.linspace(0.5, 3.0, 20)
    monkeypatch.setattr(
        "ricemele.spectrum.efficiency_vs_period", lambda *a, **k: np.ones(len(grid))
    )
    flat = PumpProtocol("experimental", J0, 0.0, 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        find_optimal_period(spec, flat, grid)
    assert find_optimal_period(spec, flat, grid, smoothing_window=0.5) == pytest.approx(grid[0])


def test_smooth_moving_average_box_oracle():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.0, 10.0, 40))
    y = rng.normal(size=40)
    window = 1.7
    smoothed = smooth_moving_average(x, y, window)
    for i, xi in enumerate(x):
        mask = np.abs(x - xi) <= window / 2
        assert smoothed[i] == pytest.approx(y[mask].mean())
    # a window covering everything returns the global mean
    wide = smooth_moving_average(x, y, 1e6)
    np.testing.assert_allclose(wide, y.mean() * np.ones_like(y))


def test_finite_band_spread_approaches_bloch_width():
    point = ParameterPoint(1.5, 0.7, 2.0)
    spread = finite_band_spread(ChainSpec(120), point)
    assert spread == pytest.approx(bloch_band_width(point), rel=2e-2)


def test_finite_band_spread_drops_mid_gap_states():
    # strong inter-cell coupling hosts mid-gap edge states that must not
    # inflate the band spread
    point = ParameterPoint(1.0, 4.0, 0.0)
    spread = finite_band_spread(ChainSpec(30), point)
    assert spread == pytest.approx(bloch_band_width(point), abs=0.1)
    assert bloch_band_width(point) == pytest.approx(2.0)


def test_write_spectrum_csv_round_trip(tmp_path):
    track = instantaneous_spectrum(ChainSpec(5), PROTO, n_times=16)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(track, str(path))
    data = np.loadtxt(path, delimiter=",")
    assert data.shape == (16, 6)
    np.testing.assert_array_equal(data[:, 0], track.times)
    np.testing.assert_array_equal(data[:, 1:], track.eigenvalues)


def test_write_excitation_csv_round_trip(tmp_path):
    grid = np.linspace(-2.0, 2.0, 21)
    spectrum = ExcitationSpectrum(grid, lorentzian(grid, 0.3), 1, 0.3)
    path = tmp_path / "exc.csv"
    write_excitation_csv(spectrum, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "# probe_site: 1"
    assert "0.3" in text[1]
    data = np.loadtxt(path, delimiter=",")
    np.testing.assert_array_equal(data[:, 0], grid)
    np.testing.assert_array_equal(data[:, 1], spectrum.response)
