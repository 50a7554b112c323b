"""Multi-tone rf waveform synthesis and Autler-Townes calibration.

The rf chain ends in a passive frequency doubler, so each tone is
programmed at half its target field frequency and the field amplitude
scales with the square of the programmed amplitude. Programmed
amplitudes therefore go as sqrt(Omega/alpha), where alpha is the
calibration coefficient of the addressed transition.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

import numpy as np

from .config import write_lines
from .model import TWO_PI
from .spectrum import find_spectral_peaks, lorentzian

MAGIC = b"RMWF"
FORMAT_VERSION = 1
# Samples rendered at a time: a render holds its composite plus a few
# arrays of this length.
_BLOCK = 2**14


def _eval_envelope(envelope: Any, t: np.ndarray) -> np.ndarray:
    if callable(envelope):
        return np.broadcast_to(np.asarray(envelope(t), dtype=float), t.shape).copy()
    return np.full_like(t, float(envelope))


@dataclass(frozen=True)
class ToneSchedule:
    """One rf tone addressing the transition between sites (i, j).

    carrier is the field transition frequency f_ij in MHz; rabi and
    detuning are envelopes in rad/us, either constants or callables of
    time; alpha is the calibration coefficient in rad/us per volt^2.
    """

    sites: tuple
    carrier: float  # MHz
    rabi: Any = 0.0
    detuning: Any = 0.0
    alpha: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if len(self.sites) != 2 or self.sites[0] == self.sites[1]:
            raise ValueError("sites must name two distinct site indices")
        if not 0 < self.carrier < np.inf:
            raise ValueError(f"carrier frequency must be positive and finite, got {self.carrier!r}")
        if not 0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        for name in ("rabi", "detuning", "phase"):
            value = getattr(self, name)
            if not callable(value) and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class WaveformBuffer:
    sample_rate: float  # samples/us
    bits: int
    samples: np.ndarray  # integer codes
    normalization: float  # volts-to-code scale applied before quantization

    @property
    def full_scale(self) -> int:
        return 2 ** (self.bits - 1) - 1

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class CalibrationPoint:
    vpp: float  # programmed peak-to-peak amplitude, volts
    splitting: float  # measured Autler-Townes splitting, rad/us

    def __post_init__(self):
        if self.vpp < 0 or self.splitting < 0:
            raise ValueError("calibration points must be non-negative")


def required_programmed_amplitude(omega: float, alpha: float) -> float:
    """Programmed amplitude realizing Rabi frequency omega through the
    doubler: V = sqrt(omega/alpha)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if omega < 0:
        raise ValueError("omega must be non-negative")
    return float(np.sqrt(omega / alpha))


def _add_tone(tone: ToneSchedule, rate: float, composite: np.ndarray) -> float:
    """Add the rendered tone voltage at the times i / rate to composite, a
    block of _BLOCK samples at a time; return the largest |instantaneous
    programmed frequency|."""
    max_freq, cycles = 0.0, 0.0
    for start in range(0, len(composite), _BLOCK):
        stop = min(start + _BLOCK, len(composite))
        # led by the previous block's last sample, for the trapezoid step across the seam
        first = max(start - 1, 0)
        t = np.arange(first, stop) / rate
        rabi = _eval_envelope(tone.rabi, t)
        if np.any(rabi < 0):
            raise ValueError("rabi envelope must be non-negative")
        detuning = _eval_envelope(tone.detuning, t)
        # half the field frequency: the doubler doubles frequency and squares
        # amplitude; detuning shifts the field by Delta/(2 pi) MHz, the
        # programmed tone by half of that
        freq = tone.carrier / 2.0 + detuning / (2.0 * TWO_PI)
        max_freq = max(max_freq, float(np.max(np.abs(freq))))
        amplitude = np.sqrt(rabi[start - first:] / tone.alpha)
        # cumulative trapezoid rule, the expression scipy's cumulative_trapezoid
        # evaluates; the cumsum runs on from the cycles at t[0], so it adds in the
        # order of one cumsum over all samples
        steps = np.diff(t) * (freq[1:] + freq[:-1]) / 2.0
        running = np.cumsum(np.concatenate(([cycles], steps)))
        cycles = running[-1]
        phase = tone.phase + TWO_PI * running[start - first:]
        composite[start:stop] += amplitude * np.cos(phase)
    return max_freq


def synthesize_waveform(tones, duration: float, rate: float, bits: int = 10) -> WaveformBuffer:
    """Render the normalized, quantized sum of all tones, rate samples per us.

    The composite is scaled so the largest absolute sample sits exactly
    at full scale, then rounded to the nearest code.
    """
    tones = list(tones)
    if not tones:
        raise ValueError("tone list is empty")
    if not 2 <= bits <= 16:
        raise ValueError("bits must be in 2..16")
    n_samples = int(round(duration * rate))
    if n_samples < 2:
        raise ValueError("duration too short for the sample rate")
    composite = np.zeros(n_samples)
    max_freq = max(_add_tone(tone, rate, composite) for tone in tones)
    if rate <= 4.0 * max_freq:
        raise ValueError(
            f"aliasing: sample rate {rate} samples/us must exceed 4x the "
            f"maximum programmed frequency {max_freq} MHz"
        )
    peak = float(np.max(np.abs(composite)))
    if peak == 0.0:
        raise ValueError("composite waveform is identically zero")
    full_scale = 2 ** (bits - 1) - 1
    normalization = full_scale / peak
    composite *= normalization
    codes = np.rint(composite, out=composite).astype(np.int16)
    return WaveformBuffer(sample_rate=float(rate), bits=bits, samples=codes,
                          normalization=normalization)


def fit_autler_townes(points) -> tuple:
    """Least-squares fit of splitting = alpha * V^2.

    Linear in V^2, so alpha = sum(s V^2) / sum(V^4). Returns
    (alpha, residual_norm).
    """
    points = list(points)
    if len(points) < 3:
        raise ValueError("need at least 3 calibration points")
    vpp = np.array([p.vpp for p in points])
    splitting = np.array([p.splitting for p in points])
    if np.all(vpp == vpp[0]):
        raise ValueError("degenerate design: all programmed amplitudes equal")
    v2 = vpp**2
    alpha = float(np.dot(splitting, v2) / np.dot(v2, v2))
    residual = float(np.linalg.norm(splitting - alpha * v2))
    return alpha, residual


def simulate_autler_townes_spectrum(
    omega: float, detunings: np.ndarray, linewidth: float
) -> np.ndarray:
    """Doublet response: Lorentzian peaks at +-omega/2, separation omega."""
    if not 0 < linewidth < np.inf:
        raise ValueError(f"linewidth must be positive and finite, got {linewidth!r}")
    detunings = np.asarray(detunings, dtype=float)
    return lorentzian(detunings - omega / 2.0, linewidth) + lorentzian(
        detunings + omega / 2.0, linewidth
    )


def extract_autler_townes_splitting(detunings: np.ndarray, response: np.ndarray) -> float:
    """Peak separation of a measured doublet; 0 when the peaks merge."""
    peaks = find_spectral_peaks(detunings, response, min_height_frac=0.5)
    if len(peaks) == 1:
        return 0.0
    if len(peaks) != 2:
        raise ValueError(f"expected a doublet, found {len(peaks)} peaks")
    return float(peaks[1] - peaks[0])


def spectral_purity_table(tones, duration: float) -> list:
    """Intermodulation products of the doubler output, uncompensated.

    Squaring the multi-tone signal yields wanted components at the
    carrier frequencies f_i plus spurious components at DC and at the
    half-carrier sums and differences. Powers are relative to the
    strongest wanted component, using each tone's peak amplitude over
    256 samples of the duration.
    """
    tones = list(tones)
    t = np.linspace(0.0, duration, 256)
    amps = []
    for tone in tones:
        rabi = _eval_envelope(tone.rabi, t)
        amps.append(float(np.max(np.sqrt(rabi / tone.alpha))))
    half = [tone.carrier / 2.0 for tone in tones]
    rows = []
    wanted_power = max((a * a / 2.0) ** 2 for a in amps) if amps else 0.0
    if wanted_power == 0.0:
        raise ValueError("all tones have zero amplitude")
    for i, tone in enumerate(tones):
        power = (amps[i] ** 2 / 2.0) ** 2
        rows.append({"kind": "carrier", "sites": tone.sites,
                     "frequency_mhz": tone.carrier,
                     "relative_power": power / wanted_power})
    dc = sum(a * a / 2.0 for a in amps) ** 2
    rows.append({"kind": "dc", "sites": None, "frequency_mhz": 0.0,
                 "relative_power": dc / wanted_power})
    for i in range(len(tones)):
        for j in range(i + 1, len(tones)):
            power = (amps[i] * amps[j]) ** 2
            for kind, freq in (("sum", half[i] + half[j]),
                               ("difference", abs(half[i] - half[j]))):
                rows.append({"kind": kind,
                             "sites": (tones[i].sites, tones[j].sites),
                             "frequency_mhz": freq,
                             "relative_power": power / wanted_power})
    return rows


def write_waveform_binary(buffer: WaveformBuffer, path: str) -> None:
    """Headered binary export: magic, version, bits, rate, length, then
    little-endian int16 codes."""
    header = MAGIC + struct.pack("<HHdQ", FORMAT_VERSION, buffer.bits,
                                 buffer.sample_rate, len(buffer.samples))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(buffer.samples.astype("<i2").tobytes())


def read_waveform_binary(path: str) -> WaveformBuffer:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ValueError("not a waveform file (bad magic)")
    if len(blob) < 24:
        raise ValueError("truncated waveform header")
    version, bits, rate, length = struct.unpack("<HHdQ", blob[4:24])
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported waveform format version {version}")
    codes = np.frombuffer(blob[24:24 + 2 * length], dtype="<i2").astype(np.int16)
    if len(codes) != length:
        raise ValueError("truncated waveform file")
    return WaveformBuffer(sample_rate=rate, bits=bits, samples=codes, normalization=np.nan)


def write_waveform_csv(buffer: WaveformBuffer, path: str) -> None:
    """Debug dump: sample index and integer code."""
    lines = [f"# rate_samples_per_us: {buffer.sample_rate!r}",
             f"# bits: {buffer.bits}", "# columns: index,code"]
    lines.extend(f"{i},{int(c)}" for i, c in enumerate(buffer.samples))
    write_lines(lines, path)
