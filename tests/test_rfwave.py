"""Waveform synthesis, doubler calibration, purity, and binary format."""

import numpy as np
import pytest

from ricemele import defaults
from ricemele.model import TWO_PI
from ricemele.rfwave import (
    CalibrationPoint,
    ToneSchedule,
    WaveformBuffer,
    extract_autler_townes_splitting,
    fit_autler_townes,
    read_waveform_binary,
    required_programmed_amplitude,
    simulate_autler_townes_spectrum,
    spectral_purity_table,
    synthesize_waveform,
    write_waveform_binary,
    write_waveform_csv,
)


def tone(carrier=20.0, rabi=TWO_PI * 1.0, detuning=0.0, alpha=TWO_PI * 20.0, phase=0.0,
         sites=(1, 2)):
    return ToneSchedule(sites=sites, carrier=carrier, rabi=rabi, detuning=detuning,
                        alpha=alpha, phase=phase)


def dominant_bin_mhz(buffer):
    mags = np.abs(np.fft.rfft(buffer.samples.astype(float)))
    freqs = np.fft.rfftfreq(len(buffer.samples), d=1.0 / buffer.sample_rate)
    return freqs[int(np.argmax(mags))]


def test_tone_schedule_validation():
    with pytest.raises(ValueError):
        ToneSchedule(sites=(1,), carrier=20.0)
    with pytest.raises(ValueError):
        ToneSchedule(sites=(2, 2), carrier=20.0)
    with pytest.raises(ValueError):
        ToneSchedule(sites=(1, 2), carrier=0.0)
    with pytest.raises(ValueError):
        ToneSchedule(sites=(1, 2), carrier=20.0, alpha=0.0)
    for name in ("rabi", "detuning", "phase"):
        with pytest.raises(ValueError, match=f"{name} must be finite, got nan"):
            ToneSchedule(sites=(1, 2), carrier=20.0, **{name: float("nan")})


def test_calibration_point_validation():
    with pytest.raises(ValueError):
        CalibrationPoint(-0.1, 1.0)
    with pytest.raises(ValueError):
        CalibrationPoint(0.1, -1.0)


def test_required_amplitude_inverts_doubler_law():
    alpha = TWO_PI * 17.0
    omega = TWO_PI * 4.2
    v = required_programmed_amplitude(omega, alpha)
    assert alpha * v**2 == pytest.approx(omega, rel=1e-14)
    assert required_programmed_amplitude(0.0, alpha) == 0.0
    with pytest.raises(ValueError):
        required_programmed_amplitude(-1.0, alpha)
    with pytest.raises(ValueError):
        required_programmed_amplitude(1.0, 0.0)


def test_fit_autler_townes_recovers_alpha():
    alpha = 3.7
    points = [CalibrationPoint(v, alpha * v**2) for v in (0.5, 1.0, 1.5, 2.0)]
    fitted, residual = fit_autler_townes(points)
    assert fitted == pytest.approx(alpha, rel=1e-14)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_fit_autler_townes_is_least_squares_through_origin():
    rng = np.random.default_rng(8)
    vpp = np.array([0.3, 0.7, 1.1, 1.6, 2.2])
    splitting = 2.9 * vpp**2 + rng.normal(0.0, 0.05, size=5)
    splitting = np.abs(splitting)
    points = [CalibrationPoint(v, s) for v, s in zip(vpp, splitting)]
    fitted, residual = fit_autler_townes(points)
    design = (vpp**2)[:, None]
    oracle = np.linalg.lstsq(design, splitting, rcond=None)[0][0]
    assert fitted == pytest.approx(oracle, rel=1e-12)
    assert residual == pytest.approx(np.linalg.norm(splitting - fitted * vpp**2))


def test_fit_autler_townes_degenerate_designs():
    points = [CalibrationPoint(1.0, 2.0), CalibrationPoint(1.0, 2.1)]
    with pytest.raises(ValueError):
        fit_autler_townes(points)
    with pytest.raises(ValueError):
        fit_autler_townes([CalibrationPoint(1.0, 2.0)] * 4)


def test_splitting_round_trip_through_simulated_doublet():
    omega = TWO_PI * 10.0
    gamma = TWO_PI * 0.5
    detunings = np.linspace(-1.5 * omega, 1.5 * omega, 4001)
    response = simulate_autler_townes_spectrum(omega, detunings, gamma)
    assert extract_autler_townes_splitting(detunings, response) == pytest.approx(
        omega, rel=0.01
    )


def test_merged_doublet_reports_zero_splitting():
    gamma = TWO_PI * 1.0
    omega = 0.2 * gamma
    detunings = np.linspace(-10 * gamma, 10 * gamma, 2001)
    response = simulate_autler_townes_spectrum(omega, detunings, gamma)
    assert extract_autler_townes_splitting(detunings, response) == 0.0


def test_extract_splitting_rejects_extra_peaks():
    x = np.linspace(-10, 10, 2001)
    y = (np.exp(-((x + 5) ** 2)) + 0.9 * np.exp(-(x**2)) + 0.8 * np.exp(-((x - 5) ** 2)))
    with pytest.raises(ValueError):
        extract_autler_townes_splitting(x, y)
    with pytest.raises(ValueError):
        simulate_autler_townes_spectrum(1.0, x, 0.0)


def test_synthesize_waveform_validation():
    with pytest.raises(ValueError):
        synthesize_waveform([], 1.0, rate=200.0)
    with pytest.raises(ValueError):
        synthesize_waveform([tone()], 1.0, rate=200.0, bits=1)
    with pytest.raises(ValueError):
        synthesize_waveform([tone()], 1.0, rate=200.0, bits=17)
    with pytest.raises(ValueError):
        synthesize_waveform([tone()], 0.001, rate=200.0)
    with pytest.raises(ValueError):
        synthesize_waveform([tone(carrier=120.0)], 1.0, rate=200.0)  # aliasing
    with pytest.raises(ValueError):
        synthesize_waveform([tone(rabi=0.0)], 1.0, rate=200.0)
    with pytest.raises(ValueError):
        synthesize_waveform([tone(rabi=lambda t: -np.ones_like(t))], 1.0, rate=200.0)


def test_synthesized_peak_hits_full_scale_exactly():
    buffer = synthesize_waveform([tone()], 1.0, rate=200.0, bits=10)
    assert buffer.full_scale == 511
    assert int(np.max(np.abs(buffer.samples))) == 511
    assert buffer.samples.dtype == np.int16
    assert len(buffer.samples) == 200
    assert buffer.duration == pytest.approx(1.0)


def test_programmed_frequency_is_half_the_carrier():
    buffer = synthesize_waveform([tone(carrier=20.0)], 1.0, rate=200.0, bits=14)
    assert dominant_bin_mhz(buffer) == pytest.approx(10.0)


def test_detuning_shifts_programmed_frequency_by_half():
    shifted = tone(carrier=20.0, detuning=TWO_PI * 4.0)
    buffer = synthesize_waveform([shifted], 1.0, rate=200.0, bits=14)
    assert dominant_bin_mhz(buffer) == pytest.approx(12.0)


def test_tone_amplitudes_follow_sqrt_rabi_over_alpha():
    quiet = tone(carrier=20.0, rabi=TWO_PI * 2.0, alpha=TWO_PI * 20.0)
    loud = tone(carrier=30.0, rabi=TWO_PI * 8.0, alpha=TWO_PI * 20.0, sites=(2, 3))
    buffer = synthesize_waveform([quiet, loud], 1.0, rate=200.0, bits=14)
    mags = np.abs(np.fft.rfft(buffer.samples.astype(float)))
    freqs = np.fft.rfftfreq(len(buffer.samples), d=1.0 / buffer.sample_rate)
    mag_quiet = mags[np.argmin(np.abs(freqs - 10.0))]
    mag_loud = mags[np.argmin(np.abs(freqs - 15.0))]
    assert mag_loud / mag_quiet == pytest.approx(2.0, rel=0.01)


def test_equal_coupling_amplitude_recipe():
    omega = TWO_PI * 1.0
    for fraction in defaults.EQUAL_COUPLING_AMPLITUDES:
        alpha = omega / fraction**2
        assert required_programmed_amplitude(omega, alpha) == pytest.approx(fraction)


def test_time_dependent_envelope_renders():
    pulse = tone(rabi=lambda t: TWO_PI * np.exp(-(((t - 0.5) / 0.2) ** 2)))
    buffer = synthesize_waveform([pulse], 1.0, rate=200.0, bits=12)
    envelope = np.abs(buffer.samples.astype(float))
    # pulse energy concentrates around the center of the window
    center = envelope[80:120].max()
    edge = envelope[:20].max()
    assert center > 4 * edge


def test_spectral_purity_table_two_tone_oracle():
    omega = TWO_PI * 1.0
    t1 = tone(carrier=20.0, rabi=omega, alpha=omega / 1.0**2)
    t2 = tone(carrier=30.0, rabi=omega, alpha=omega / 0.5**2, sites=(2, 3))
    rows = spectral_purity_table([t1, t2], 1.0)
    assert [r["kind"] for r in rows] == ["carrier", "carrier", "dc", "sum", "difference"]
    by_kind = {(r["kind"], r["frequency_mhz"]): r["relative_power"] for r in rows}
    assert by_kind[("carrier", 20.0)] == pytest.approx(1.0)
    assert by_kind[("carrier", 30.0)] == pytest.approx(0.0625)
    assert by_kind[("dc", 0.0)] == pytest.approx(1.5625)
    assert by_kind[("sum", 25.0)] == pytest.approx(1.0)
    assert by_kind[("difference", 5.0)] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        spectral_purity_table([tone(rabi=0.0)], 1.0)


def test_waveform_binary_round_trip(tmp_path):
    buffer = synthesize_waveform([tone()], 1.0, rate=200.0, bits=10)
    path = tmp_path / "wave.bin"
    write_waveform_binary(buffer, str(path))
    loaded = read_waveform_binary(str(path))
    assert np.array_equal(loaded.samples, buffer.samples)
    assert loaded.sample_rate == buffer.sample_rate
    assert loaded.bits == buffer.bits
    assert np.isnan(loaded.normalization)
    # a second write is byte-identical
    again = tmp_path / "wave2.bin"
    write_waveform_binary(buffer, str(again))
    assert path.read_bytes() == again.read_bytes()


def test_waveform_binary_rejects_corruption(tmp_path):
    buffer = synthesize_waveform([tone()], 1.0, rate=200.0, bits=10)
    path = tmp_path / "wave.bin"
    write_waveform_binary(buffer, str(path))
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        read_waveform_binary(str(bad_magic))

    bad_version = tmp_path / "version.bin"
    bad_version.write_bytes(blob[:4] + b"\x63\x00" + blob[6:])
    with pytest.raises(ValueError):
        read_waveform_binary(str(bad_version))

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(blob[:-6])
    with pytest.raises(ValueError):
        read_waveform_binary(str(truncated))

    short_header = tmp_path / "header.bin"
    short_header.write_bytes(b"RMWF\x01\x00")
    with pytest.raises(ValueError, match="truncated waveform header"):
        read_waveform_binary(str(short_header))


def test_waveform_csv_dump(tmp_path):
    buffer = WaveformBuffer(sample_rate=10.0, bits=8, samples=np.array([1, -2, 3], dtype=np.int16),
                            normalization=1.0)
    path = tmp_path / "wave.csv"
    write_waveform_csv(buffer, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "# rate_samples_per_us: 10.0"
    assert lines[2] == "# columns: index,code"
    assert lines[3:] == ["0,1", "1,-2", "2,3"]
