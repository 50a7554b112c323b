"""Thouless pumping on finite Rice-Mele chains.

Simulation of pumped single-excitation dynamics in a synthetic
dimension, plus the supporting lab toolchain: instantaneous and
excitation spectra, parameter sweeps, multi-tone rf waveform synthesis
with Autler-Townes calibration, and time-of-flight readout unmixing.

Units: angular frequencies in rad/us, times in us, hbar = 1. Config
files use plain MHz, which config.read multiplies by 2*pi on ingest.
"""

__version__ = "0.1.0"  # set before the submodules load: sweeps reads it

from .evolution import (
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
from .model import (
    TWO_PI,
    ChainSpec,
    ParameterPoint,
    bloch_band_width,
    build_hamiltonian,
    build_hamiltonians,
)
from .protocols import (
    PumpProtocol,
    classify_regime,
    sample_trajectory,
    winding_number,
)
from .readout import (
    BasisSet,
    IonizationModel,
    TofTrace,
    basis_trace,
    classical_ionization_field,
    decompose_trace,
    make_basis,
    synthesize_trace,
)
from .rfwave import (
    CalibrationPoint,
    ToneSchedule,
    WaveformBuffer,
    extract_autler_townes_splitting,
    fit_autler_townes,
    required_programmed_amplitude,
    simulate_autler_townes_spectrum,
    spectral_purity_table,
    synthesize_waveform,
)
from .spectrum import (
    ExcitationSpectrum,
    SpectrumTrack,
    excitation_spectrum,
    find_optimal_period,
    finite_band_spread,
    instantaneous_spectrum,
    max_band_width,
    predict_optimal_period,
)
from .sweeps import (
    SweepResult,
    SweepSpec,
    build_sweep_spec,
    ripple_frequency,
    run_sweep,
)


__all__ = [
    "TWO_PI",
    "BasisSet",
    "CalibrationPoint",
    "ChainSpec",
    "EvolutionConfig",
    "EvolutionRecord",
    "ExcitationSpectrum",
    "IonizationModel",
    "ParameterPoint",
    "PulseSpec",
    "PumpProtocol",
    "SpectrumTrack",
    "SweepResult",
    "SweepSpec",
    "ToneSchedule",
    "TofTrace",
    "WaveformBuffer",
    "basis_trace",
    "bloch_band_width",
    "build_hamiltonian",
    "build_hamiltonians",
    "build_sweep_spec",
    "cell_populations",
    "classical_ionization_field",
    "classify_regime",
    "decompose_trace",
    "evolve",
    "excitation_spectrum",
    "extract_autler_townes_splitting",
    "find_optimal_period",
    "finite_band_spread",
    "fit_autler_townes",
    "initial_dimer_state",
    "instantaneous_spectrum",
    "make_basis",
    "max_band_width",
    "mean_position_and_spread",
    "predict_optimal_period",
    "required_programmed_amplitude",
    "ripple_frequency",
    "run_sweep",
    "sample_trajectory",
    "simulate_autler_townes_spectrum",
    "spectral_purity_table",
    "stirap_sequence",
    "synthesize_trace",
    "synthesize_waveform",
    "transfer_efficiency",
    "winding_number",
]
