"""Centralized defaults table.

Every physical default used by the library, the sweep drivers, and the
command-line tool lives here. Frequencies are stored in rad/us (angular);
config files specify plain MHz, which config.read converts on ingest.
All values are overridable through the config file.
"""

from __future__ import annotations

import numpy as np

from .model import TWO_PI


def mhz(value):
    """Convert a plain frequency in MHz to angular rad/us."""
    return TWO_PI * np.asarray(value, dtype=float)


# Chain and pump protocol.
CHAIN = {"n_sites": 5, "delta_parity": 1}
PROTOCOL = {
    "kind": "experimental",
    "j_max": mhz(1.5),
    "delta0": mhz(7.0),
    "delta_offset": 0.0,
    "period": 1.0,
    "n_cycles": 2,
}
START_CELL = 1
BRANCH = "lower"

# Spectroscopy.
SPECTRUM_N_TIMES = 256
LINEWIDTH = mhz(0.2)
PROBE_SITE = 1

# Sweep grids. Each dict is the default axis set for one sweep kind.
OFFSET_SWEEP = {
    "j_max": mhz(2.5),
    "period": 1.25,
    "n_cycles": 2,
    "n_sites": 5,
    "delta0": mhz([4.0, 6.0, 8.0, 10.0]),
    "delta_offset": mhz(np.linspace(-18.0, 18.0, 61)),
}
PERIOD_DELTA_SWEEP = {
    "j_max": mhz(1.5),
    "n_cycles": 2,
    "n_sites": 5,
    "period": np.linspace(0.1, 4.0, 40),
    "delta0": mhz(np.linspace(1.0, 10.0, 19)),
}
PROTOCOL_COMPARE_SWEEP = {
    "j_max": mhz(1.5),
    "delta0": mhz(7.0),
    "n_cycles": 2,
    "n_sites": 5,
    "period": np.linspace(0.1, 6.0, 60),
}
TOPT_COLLAPSE_SWEEP = {
    "n_cycles": 2,
    "n_sites": 5,
    "j_max": mhz([1.0, 1.5, 2.0]),
    "delta0": mhz([5.0, 7.0, 9.0]),
    "scan_grid": (),  # empty: scan 0.1..1.2 times the predicted optimum per case
}
MEAN_POSITION_SWEEP = {
    "j_max": mhz(1.5),
    "delta0": mhz(8.0),
    "n_cycles": 2,
    "n_cells": 15,
    "span_factor": 2.0,
    "n_periods": 9,
}
SIZE_SWEEP = {
    "j_max": mhz(1.5),
    "delta0": mhz(7.0),
    "n_cycles": 2,
    "n_sites": (5, 7, 9, 13),
    "center_sizes": (13,),
    "period": np.linspace(0.1, 6.0, 60),
}

# STIRAP pulse pair (three-site chain, counter-intuitive ordering).
STIRAP = {
    "peak_rabi": mhz(8.5),
    "duration": 6.0,
    "width": 1.0,
    "stokes_center": 2.4,
    "pump_center": 3.6,
}

# Waveform synthesis. Carriers are field transition frequencies in MHz;
# tones are programmed at half of these because of the frequency doubler.
# The hardware values (GHz carriers, 50 samples/ns) are representative
# assumptions, overridable through the config file.
WAVEFORM = {
    "sample_rate": 50000.0,  # samples/us, i.e. 50 samples/ns
    "bits": 10,
    "carriers_mhz": (21500.0, 22200.0, 22900.0, 23600.0, 24300.0),
    "alpha": mhz(20.0),  # rad/us per V^2, single-tone default
    "duration": 0.02,
}
# Relative programmed amplitudes (fraction of full scale) that realize
# identical couplings on all five bonds of the six-state ladder.
EQUAL_COUPLING_AMPLITUDES = (0.27, 0.18, 0.22, 0.18, 0.15)

# Time-of-flight readout. n_eff from cesium quantum defects for the
# ns1/2 / np3/2 ladder 55..57 (delta_s ~ 4.05, delta_p ~ 3.56).
READOUT = {
    "labels": ("55s", "55p", "56s", "56p", "57s", "57p"),
    "n_eff": (50.95, 51.44, 51.95, 52.44, 52.95, 53.44),
    "ramp_times": (0.0, 1.0),
    "ramp_fields": (0.0, 70.0),
    "t0": 0.5,
    "sigma_t": 0.012,
    "noise": 0.05,
    "grid": (1.0, 1.3, 601),
    "seed": 7,
}
