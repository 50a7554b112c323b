"""End-to-end command-line behavior: outputs, config handling, exit codes."""

import json
import os
import pathlib
import subprocess
import sys
from importlib.metadata import PackageNotFoundError, distribution, entry_points

import numpy as np
import pytest

import ricemele
from ricemele import cli, defaults, rfwave
from ricemele.cli import main
from ricemele.config import (
    ConfigError,
    canonical_json,
    check_command_section,
    config_hash,
    load_config,
    resolve_protocol,
)
from ricemele.evolution import MAX_STEPS
from ricemele.model import TWO_PI
from ricemele.protocols import sample_trajectory
from ricemele.readout import read_trace_csv
from ricemele.rfwave import read_waveform_binary

SIM_CONFIG = {
    "chain": {"n_sites": 5},
    "protocol": {
        "kind": "experimental",
        "j_max_mhz": 1.5,
        "delta0_mhz": 7.0,
        "period_us": 0.4,
        "n_cycles": 1,
    },
    "simulate": {"start_cell": 1, "branch": "lower"},
}

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
DEMO_CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "demos" / "configs"
NAN_TRACE = pathlib.Path(__file__).resolve().parent / "data" / "nan_trace.csv"


def _installed(name):
    try:
        distribution(name)
    except PackageNotFoundError:
        return False
    return True


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_canonical_json_and_hash_are_deterministic():
    payload = {"b": np.float64(1.5), "a": np.arange(3), "c": {"y": (1, 2), "x": True}}
    text = canonical_json(payload)
    assert text == '{"a":[0,1,2],"b":1.5,"c":{"x":true,"y":[1,2]}}'
    assert config_hash(payload) == config_hash(json.loads(text))


def test_active_section_requires_exactly_one(tmp_path):
    """At most one command section, naming the subcommand; validate takes any."""
    check_command_section({"simulate": {}}, "simulate")
    check_command_section({}, "simulate")
    check_command_section({"stirap": {}}, "validate")
    check_command_section({"chain": {}, "protocol": {}, "evolution": {}, "stirap": {}}, "validate")
    check_command_section({"evolution": {}, "stirap": {}}, "stirap")
    check_command_section({"protocol": {}}, "waveform")
    with pytest.raises(ConfigError, match="multiple command sections"):
        check_command_section({"simulate": {}, "stirap": {}}, "simulate")
    with pytest.raises(ConfigError, match="does not match subcommand 'simulate'"):
        check_command_section({"stirap": {}}, "simulate")
    assert main(["--out", str(tmp_path), "simulate"]) == 0
    assert (tmp_path / "simulate.json").exists()


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_resolve_protocol_units_and_errors():
    proto = resolve_protocol({"protocol": {"j_max_mhz": 2.0, "delta0_mhz": 5.0}})
    assert proto.j_max == pytest.approx(TWO_PI * 2.0)
    assert proto.delta0 == pytest.approx(TWO_PI * 5.0)
    with pytest.raises(ConfigError):
        resolve_protocol({"protocol": {"kind": "bogus"}})
    with pytest.raises(ConfigError):
        resolve_protocol({"protocol": {"period_us": -1.0}})


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    assert main(["--bogus", "simulate"]) == 2
    assert main(["sweep", "bogus_kind"]) == 2


def test_validate_passes_with_defaults(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sum(1 for line in out if line.startswith("ok: ")) == 5
    assert out[-1] == "all 5 checks passed"


def test_simulate_scores_the_cell_the_pump_moves_to(tmp_path):
    """Started in cell 2 of 5, two control_freak cycles end in cell 4, not in the last cell."""
    cfg = write_config(tmp_path, {"chain": {"n_sites": 9}, "protocol": {"kind": "control_freak", "period_us": 10.0},
                                  "simulate": {"start_cell": 2}})
    assert main(["--config", cfg, "--out", str(tmp_path), "simulate"]) == 0
    payload = json.loads((tmp_path / "simulate.json").read_text())
    assert payload["transfer_efficiency"] == pytest.approx(payload["cell_populations"][-1][3])
    assert payload["transfer_efficiency"] > 0.99


def test_validate_ignores_section_mismatch(tmp_path):
    cfg = write_config(tmp_path, {"stirap": {"duration_us": 6.0}})
    assert main(["--config", cfg, "--out", str(tmp_path), "validate"]) == 0


def test_simulate_writes_record(tmp_path, capsys):
    cfg = write_config(tmp_path, SIM_CONFIG)
    out = tmp_path / "run"
    assert main(["--config", cfg, "--out", str(out), "--dt", "0.002", "simulate"]) == 0
    assert capsys.readouterr().out.strip().endswith("simulate.json")
    payload = json.loads((out / "simulate.json").read_text())
    assert payload["config"]["protocol"]["j_max_mhz"] == 1.5
    assert payload["config"]["evolution"] == {"dt_us": 0.002, "store_states": True}
    assert payload["regime"] == "topological"
    assert payload["winding_number"] == 1
    assert payload["on_boundary"] is False
    assert 0.0 <= payload["transfer_efficiency"] <= 1.0
    assert payload["times_us"][-1] == pytest.approx(0.4)
    assert len(payload["times_us"]) == len(payload["cell_populations"]) <= 514
    for row in payload["cell_populations"]:
        assert sum(row) == pytest.approx(1.0, abs=1e-9)
    assert len(payload["final_site_populations"]) == 5


def test_simulate_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SIM_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(a), "--dt", "0.002", "simulate"]) == 0
    assert main(["--config", cfg, "--out", str(b), "--dt", "0.002", "simulate"]) == 0
    assert (a / "simulate.json").read_bytes() == (b / "simulate.json").read_bytes()


def test_sweep_outputs_and_kind_mismatch(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "sweep": {
                "kind": "offset",
                "n_sites": 5,
                "j_max_mhz": 2.5,
                "period_us": 0.4,
                "n_cycles": 1,
                "delta0_mhz": [4.0],
                "delta_offset_mhz": [-1.0, 0.0, 1.0],
            }
        },
    )
    out = tmp_path / "sweep"
    assert main(["--config", cfg, "--out", str(out), "--dt", "0.002", "sweep", "offset"]) == 0
    for suffix in (".csv", ".json", "_config.json"):
        assert (out / f"sweep_offset{suffix}").exists()
    data = np.loadtxt(out / "sweep_offset.csv", delimiter=",")
    assert data.shape == (3, 3)
    embedded = json.loads((out / "sweep_offset_config.json").read_text())
    assert embedded["resolved"]["kind"] == "offset"
    assert embedded["metadata"]["config_sha256"] == json.loads(
        (out / "sweep_offset.json").read_text()
    )["metadata"]["config_sha256"]
    # the same config given to a different sweep subcommand is an error
    assert main(["--config", cfg, "--out", str(out), "sweep", "size"]) == 3


def test_spectrum_modes_write_csv(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "protocol": {"j_max_mhz": 1.0, "delta0_mhz": 4.0, "period_us": 1.0},
            "spectrum": {"n_times": 32, "probe_site": 1, "linewidth_mhz": 0.2,
                         "n_detunings": 301},
        },
    )
    out = tmp_path / "spec"
    assert main(["--config", cfg, "--out", str(out), "spectrum", "instantaneous"]) == 0
    inst = np.loadtxt(out / "spectrum_instantaneous.csv", delimiter=",")
    assert inst.shape == (32, 6)
    assert main(["--config", cfg, "--out", str(out), "spectrum", "excitation"]) == 0
    exc = np.loadtxt(out / "spectrum_excitation.csv", delimiter=",")
    assert exc.shape == (301, 2)
    assert np.all(exc[:, 1] >= 0.0)


def test_waveform_synth_writes_binary_and_report(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "waveform": {
                "tones": [
                    {"sites": [1, 2], "carrier_mhz": 20.0, "rabi_mhz": 1.0},
                    {"sites": [2, 3], "carrier_mhz": 30.0, "rabi_mhz": 0.5},
                ],
                "duration_us": 1.0,
                "sample_rate_per_us": 200.0,
                "bits": 10,
                "csv_dump": True,
            }
        },
    )
    out = tmp_path / "wave"
    assert main(["--config", cfg, "--out", str(out), "waveform", "synth"]) == 0
    buffer = read_waveform_binary(str(out / "waveform.bin"))
    assert len(buffer.samples) == 200
    assert int(np.max(np.abs(buffer.samples))) == 511
    report = json.loads((out / "waveform.json").read_text())
    assert report["n_samples"] == 200
    assert report["normalization"] > 0
    kinds = {row["kind"] for row in report["spectral_purity"]}
    assert kinds == {"carrier", "dc", "sum", "difference"}
    assert (out / "waveform.csv").exists()


# Two pump tones over three blocks, the last one short: n_samples is not a multiple of _BLOCK.
PUMP_WAVEFORM = {
    "protocol": {"kind": "experimental", "j_max_mhz": 1.5, "delta0_mhz": 7.0, "period_us": 2.0},
    "waveform": {"tones": [{"sites": [1, 2], "carrier_mhz": 20.0, "bond": 1, "detuning_sign": 1.0},
                           {"sites": [2, 3], "carrier_mhz": 30.0, "bond": 2, "detuning_sign": -1.0}],
                 "duration_us": (2 * rfwave._BLOCK + 1000) / 200.0, "sample_rate_per_us": 200.0, "bits": 10},
}


def test_pump_tones_render_as_if_each_sampled_its_own_trajectory(tmp_path):
    out = tmp_path / "wave"
    assert main(["--config", write_config(tmp_path, PUMP_WAVEFORM), "--out", str(out), "waveform", "synth"]) == 0
    protocol = resolve_protocol(PUMP_WAVEFORM)

    def pump_tone(sites, carrier, bond, sign):
        def rabi(t):
            j1, j2, _ = sample_trajectory(protocol, np.asarray(t) % protocol.duration)
            return 2.0 * (j1 if bond == 1 else j2)

        def detuning(t):
            return 2.0 * sign * sample_trajectory(protocol, np.asarray(t) % protocol.duration)[2]

        return rfwave.ToneSchedule(sites, carrier, rabi, detuning, defaults.WAVEFORM["alpha"], 0.0)

    reference = rfwave.synthesize_waveform([pump_tone((1, 2), 20.0, 1, 1.0), pump_tone((2, 3), 30.0, 2, -1.0)],
                                           PUMP_WAVEFORM["waveform"]["duration_us"], 200.0, 10)
    assert len(reference.samples) == 2 * rfwave._BLOCK + 1000
    assert np.array_equal(read_waveform_binary(str(out / "waveform.bin")).samples, reference.samples)
    assert json.loads((out / "waveform.json").read_text())["normalization"] == reference.normalization


def test_pump_tones_sample_the_trajectory_once_per_block(tmp_path, monkeypatch):
    lengths = []

    def counted(protocol, t):
        lengths.append(np.size(t))
        return sample_trajectory(protocol, t)

    monkeypatch.setattr(cli, "sample_trajectory", counted)
    assert main(["--config", write_config(tmp_path, PUMP_WAVEFORM), "--out", str(tmp_path), "waveform", "synth"]) == 0
    # each block after the first is led by its predecessor's last sample; the
    # last call is the purity table's 256-point grid
    assert lengths == [rfwave._BLOCK, rfwave._BLOCK + 1, 1001, 256]


def test_waveform_requires_tones(tmp_path):
    cfg = write_config(tmp_path, {"waveform": {"duration_us": 1.0}})
    assert main(["--config", cfg, "--out", str(tmp_path), "waveform", "synth"]) == 3


def test_readout_synth_then_decompose_round_trip(tmp_path):
    weights = [0.05, 0.25, 0.1, 0.3, 0.2, 0.1]
    synth_dir = tmp_path / "synth"
    cfg = write_config(
        tmp_path, {"readout": {"weights": weights, "noise": 0.0}}, "synth.json"
    )
    assert main(["--config", cfg, "--out", str(synth_dir), "readout", "synth"]) == 0
    assert (synth_dir / "basis.csv").exists()
    assert (synth_dir / "trace_config.json").exists()

    dec_dir = tmp_path / "dec"
    dec_cfg = write_config(
        tmp_path,
        {"readout": {"trace_path": str(synth_dir / "trace.csv")}},
        "decompose.json",
    )
    assert main(["--config", dec_cfg, "--out", str(dec_dir), "readout", "decompose"]) == 0
    result = json.loads((dec_dir / "weights.json").read_text())
    np.testing.assert_allclose(result["weights"], weights, atol=1e-6)
    assert result["residual_norm"] < 1e-6
    assert len(result["labels"]) == 6


def test_readout_seed_flag_controls_noise(tmp_path):
    cfg = write_config(tmp_path, {"readout": {"noise": 0.05}})
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    assert main(["--config", cfg, "--out", str(dirs[0]), "--seed", "7", "readout", "synth"]) == 0
    assert main(["--config", cfg, "--out", str(dirs[1]), "readout", "synth"]) == 0
    assert main(["--config", cfg, "--out", str(dirs[2]), "--seed", "8", "readout", "synth"]) == 0
    a = read_trace_csv(str(dirs[0] / "trace.csv"))
    b = read_trace_csv(str(dirs[1] / "trace.csv"))  # config default seed is 7
    c = read_trace_csv(str(dirs[2] / "trace.csv"))
    assert np.array_equal(a.current, b.current)
    assert not np.array_equal(a.current, c.current)


def test_readout_decompose_requires_trace_path(tmp_path):
    cfg = write_config(tmp_path, {"readout": {}})
    assert main(["--config", cfg, "--out", str(tmp_path), "readout", "decompose"]) == 3


def test_stirap_reports_transfer(tmp_path):
    cfg = write_config(tmp_path, {"stirap": {}})
    out = tmp_path / "stirap"
    assert main(["--config", cfg, "--out", str(out), "stirap"]) == 0
    payload = json.loads((out / "stirap.json").read_text())
    assert payload["final_populations"][2] > 0.95
    assert len(payload["final_populations"]) == 3
    assert payload["times_us"][-1] == pytest.approx(6.0)


TONE = {"sites": [1, 2], "carrier_mhz": 20.0, "rabi_mhz": 1.0}
WAVEFORM = {"tones": [TONE], "duration_us": 1.0, "sample_rate_per_us": 200.0}


@pytest.mark.parametrize("payload, command, named", [
    ({"sweep": {"kind": "offset", "n_sites": 0}}, ["sweep", "offset"], "n_sites must be positive"),
    ({"sweep": {"kind": "offset", "delta_offset_mhz": [1.0, 1.0]}}, ["sweep", "offset"],
     "axis 'delta_offset' must be strictly monotone"),
    ({"sweep": {"kind": "offset"}}, ["--dt", "-1", "sweep", "offset"],
     "bad sweep section: dt must be positive and finite, got -1.0"),
    ({**SIM_CONFIG, "protocol": {**SIM_CONFIG["protocol"], "j_max_mhz": float("nan")}}, ["simulate"],
     "j_max must be positive and finite, got nan"),
    ({**SIM_CONFIG, "evolution": {"dt_us": float("nan")}}, ["simulate"], "dt must be positive and finite, got nan"),
    ({**SIM_CONFIG, "chain": {"n_sites": 0}}, ["simulate"], "bad chain section: n_sites must be positive"),
    ({**SIM_CONFIG, "chain": {"n_sites": 5, "delta_parity": 2}}, ["simulate"],
     "bad chain section: delta_parity must be +1 or -1"),
    ({**SIM_CONFIG, "chain": {"n_sites": 4, "cells": [[1, 2], [3, 4]]}}, ["simulate"],
     "bad chain section: unknown keys ['cells']; the section takes n_sites, delta_parity"),
    ({"protocol": {"period": 2.8}, "simulate": {}}, ["simulate"], "bad protocol section: unknown keys ['period']"),
    ({**SIM_CONFIG, "simulate": {"start_cell": 9}}, ["simulate"], "bad simulate section: cell_index out of range"),
    ({**SIM_CONFIG, "simulate": {"branch": "middle"}}, ["simulate"],
     "bad simulate section: branch must be 'lower' or 'upper'"),
    ({"spectrum": {"linewidth_mhz": 0.0}}, ["spectrum", "excitation"],
     "bad spectrum section: linewidth must be positive"),
    ({"spectrum": {"linewidth_mhz": float("nan")}}, ["spectrum", "excitation"],
     "bad spectrum section: linewidth must be positive and finite, got nan"),
    ({"spectrum": {"n_times": 1}}, ["spectrum", "instantaneous"], "bad spectrum section: need at least 2 time samples"),
    ({"spectrum": {"probe_site": 99}}, ["spectrum", "excitation"], "bad spectrum section: probe_site out of range"),
    ({"spectrum": {"probe_time_us": float("nan")}}, ["spectrum", "excitation"],
     "bad spectrum section: probe_time must lie in [0, 2.0] us, got nan"),
    ({"waveform": {**WAVEFORM, "tones": [{**TONE, "carrier_mhz": -5.0}]}}, ["waveform", "synth"],
     "bad waveform section: carrier frequency must be positive"),
    ({"waveform": {**WAVEFORM, "tones": [{**TONE, "carrier_mhz": float("nan")}]}}, ["waveform", "synth"],
     "bad waveform section: carrier frequency must be positive and finite, got nan"),
    ({"waveform": {**WAVEFORM, "tones": [{**TONE, "rabi_mhz": float("nan")}]}}, ["waveform", "synth"],
     "bad waveform section: rabi must be finite, got nan"),
    ({"waveform": {**WAVEFORM, "bits": 40}}, ["waveform", "synth"], "bad waveform section: bits must be in 2..16"),
    ({"readout": {"sigma_t_us": 0.0}}, ["readout", "synth"], "bad readout section: sigma_t must be positive"),
    ({"readout": {"sigma_t_us": float("nan")}}, ["readout", "synth"],
     "bad readout section: sigma_t must be positive and finite, got nan"),
    ({"readout": {"t0_us": float("nan")}}, ["readout", "synth"], "bad readout section: t0 must be finite, got nan"),
    ({"readout": {"weights": [1.0]}}, ["readout", "synth"], "bad readout section: one weight per basis state required"),
    ({"readout": {"noise": -1}}, ["readout", "synth"],
     "bad readout section: noise_amplitude must be non-negative and finite, got -1.0"),
    ({"stirap": {"width_us": 0.0}}, ["stirap"], "bad stirap section: width must be positive"),
    ({"stirap": {"width_us": float("nan")}}, ["stirap"],
     "bad stirap section: width must be positive and finite, got nan"),
    ({"stirap": {"pump_center_us": float("nan")}}, ["stirap"], "bad stirap section: center must be finite, got nan"),
    ({"stirap": {"peak_rabi_mhz": "x"}}, ["stirap"], "bad stirap section: could not convert string to float: 'x'"),
    ({"stirap": {"duration_us": 0}}, ["stirap"], "bad stirap section: duration must be positive and finite, got 0.0"),
    ({"stirap": {"duration_us": -6}}, ["stirap"], "bad stirap section: duration must be positive and finite, got -6.0"),
    ({**SIM_CONFIG, "evolution": {"adaptive": True}}, ["simulate"],
     "bad evolution section: unknown keys ['adaptive']"),
    ({**SIM_CONFIG, "evolution": {"store_states": 1}}, ["simulate"],
     "bad evolution section: expected true or false, got 1"),
    ({"readout": {"trace_path": "trace.csv", "normalize": "false"}}, ["readout", "decompose"],
     "bad readout section: expected true or false, got 'false'"),
    ({"waveform": {**WAVEFORM, "csv_dump": "false"}}, ["waveform", "synth"],
     "bad waveform section: expected true or false, got 'false'"),
    ({"readout": {"trace_path": str(NAN_TRACE)}}, ["readout", "decompose"],
     "bad readout section: trace current must be finite"),
    ({"readout": {"ramp_times_us": [0.0, float("nan")]}}, ["readout", "synth"],
     "bad readout section: ramp_times must be finite, got [0.0, nan]"),
    ({"readout": {"grid": [0.0, float("nan"), 100]}}, ["readout", "synth"],
     "bad readout section: grid ends must be finite, got 0.0 and nan"),
    ({"spectrum": {"detuning_span_mhz": float("nan")}}, ["spectrum", "excitation"],
     "bad spectrum section: detuning_span_mhz must be positive and finite, got nan"),
    ({**SIM_CONFIG, "simulate": {"start_cel": 2}}, ["simulate"],
     "bad simulate section: unknown keys ['start_cel']; the section takes start_cell, branch"),
    ({"spectrum": {"probe_sitee": 3}}, ["spectrum", "excitation"], "bad spectrum section: unknown keys ['probe_sitee']"),
    ({"waveform": {**WAVEFORM, "rate": 1}}, ["waveform", "synth"], "bad waveform section: unknown keys ['rate']"),
    ({"readout": {"sigma_tt_us": 0.5}}, ["readout", "synth"], "bad readout section: unknown keys ['sigma_tt_us']"),
    ({"readout": {"sigma_tt_us": 0.5}}, ["validate"], "bad readout section: unknown keys ['sigma_tt_us']"),
    ({"stirap": {"width": 1.0}}, ["stirap"], "bad stirap section: unknown keys ['width']"),
    ({"sweep": {"kind": "offset", "delta0_mzh": [4.0], "delta_offset_mhz": [0.0]}}, ["sweep", "offset"],
     "bad sweep section: unknown keys ['delta0_mzh']; a offset sweep takes branch, delta0_mhz"),
    ({"sweep": {"kind": "size", "n_sites": 7}}, ["sweep", "size"], "bad sweep section: unknown keys ['n_sites']"),
    ({"waveform": {**WAVEFORM, "tones": [{"sites": [1, 2], "carrier_mhz": 20.0, "rabi_mzh": 4.0}]}},
     ["waveform", "synth"], "bad waveform section: unknown keys ['rabi_mzh']; a tone takes sites, carrier_mhz"),
    ({"waveform": {**WAVEFORM, "tones": [[1, 2]]}}, ["waveform", "synth"],
     "bad waveform section: a tone must be a JSON object, got [1, 2]"),
    ({"protocl": {"period_us": 9.0}}, ["simulate"],
     "bad top level: unknown keys ['protocl']; a simulate config takes chain, protocol, evolution, simulate"),
    ({**SIM_CONFIG, "out_dir": "results"}, ["simulate"], "bad top level: unknown keys ['out_dir']"),
    ({"sweep": {"kind": "offset"}, "protocol": {"period_us": 9.0}, "evolution": {"dt_us": 0.5}},
     ["--dt", "0.05", "sweep", "offset"],
     "bad top level: unknown keys ['evolution', 'protocol']; a sweep config takes sweep"),
    ({"chain": {"n_sites": 9}, "stirap": {}}, ["stirap"],
     "bad top level: unknown keys ['chain']; a stirap config takes evolution, stirap"),
    ({"evolution": {"dt_us": 0.5}, "spectrum": {}}, ["spectrum", "excitation"],
     "bad top level: unknown keys ['evolution']; a spectrum config takes chain, protocol, spectrum"),
    ({"chain": {"n_sites": 9}, "waveform": WAVEFORM}, ["waveform", "synth"],
     "bad top level: unknown keys ['chain']; a waveform config takes protocol, waveform"),
    ({"protocol": {"period_us": 9.0}}, ["readout", "synth"],
     "bad top level: unknown keys ['protocol']; a readout config takes readout"),
    ({**SIM_CONFIG, "validate": {}}, ["validate"], "bad top level: unknown keys ['validate']"),
], ids=["sweep-n_sites", "sweep-axis", "sweep-dt", "protocol-nan", "evolution-nan", "chain-n_sites", "chain-delta_parity",
        "chain-cells", "protocol-unknown", "simulate-start_cell", "simulate-branch", "spectrum-linewidth",
        "spectrum-linewidth-nan", "spectrum-n_times", "spectrum-probe_site", "spectrum-probe_time-nan",
        "waveform-carrier", "waveform-carrier-nan", "waveform-rabi-nan", "waveform-bits", "readout-sigma_t",
        "readout-sigma_t-nan", "readout-t0-nan", "readout-weights", "readout-noise", "stirap-width",
        "stirap-width-nan", "stirap-pump_center-nan", "stirap-peak_rabi", "stirap-duration-zero", "stirap-duration-negative", "evolution-adaptive",
        "evolution-store_states", "readout-normalize", "waveform-csv_dump", "readout-trace-nan",
        "readout-ramp_times-nan", "readout-grid-nan", "spectrum-detuning_span-nan", "simulate-unknown",
        "spectrum-unknown", "waveform-unknown", "readout-unknown", "validate-readout-unknown", "stirap-unknown",
        "sweep-unknown", "sweep-size-n_sites", "waveform-tone-unknown", "waveform-tone-not-object",
        "top-level-unknown", "top-level-out_dir", "sweep-unread-shared", "stirap-unread-chain",
        "spectrum-unread-evolution", "waveform-unread-chain", "readout-unread-protocol", "validate-unknown"])
def test_bad_config_values_are_config_errors(tmp_path, capsys, payload, command, named):
    cfg = write_config(tmp_path, payload)  # json writes NaN, which json.load reads back
    assert main(["--config", cfg, "--out", str(tmp_path), *command]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_step_budget_is_a_runtime_error(tmp_path, capsys):
    cfg = write_config(tmp_path, SIM_CONFIG)
    assert main(["--config", cfg, "--out", str(tmp_path), "--dt", "1e-9", "simulate"]) == 5
    assert f"error: 400000000 steps exceed the step budget of {MAX_STEPS} per run" in capsys.readouterr().err
    assert not (tmp_path / "simulate.json").exists()


def test_missing_config_file_is_io_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["--config", missing, "simulate"]) == 4
    assert "i/o error:" in capsys.readouterr().err


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["--config", str(path), "simulate"]) == 3
    assert "config error:" in capsys.readouterr().err


def test_multiple_sections_rejected(tmp_path):
    cfg = write_config(tmp_path, {"simulate": {}, "stirap": {}})
    assert main(["--config", cfg, "--out", str(tmp_path), "simulate"]) == 3


def test_section_subcommand_mismatch_rejected(tmp_path):
    cfg = write_config(tmp_path, {"stirap": {}})
    assert main(["--config", cfg, "--out", str(tmp_path), "simulate"]) == 3


def test_console_script_is_declared():
    # The declaration lives in pyproject.toml, so it is checked there; the
    # suite also runs from the source tree, where nothing is installed.
    tomllib = pytest.importorskip("tomllib")

    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("ricemele") == "ricemele.cli:main"
    assert callable(main)


def test_package_version_matches_pyproject():
    # Sweep provenance lines print ricemele.__version__; the release
    # number lives in pyproject.toml, so the two must agree.
    tomllib = pytest.importorskip("tomllib")

    with open(PYPROJECT, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == ricemele.__version__


@pytest.mark.skipif(not _installed("ricemele"),
                    reason="ricemele is not installed (importlib.metadata.PackageNotFoundError)")
def test_installed_entry_point_matches_declaration():
    # Catches a stale install whose console script no longer matches the source.
    scripts = entry_points(group="console_scripts")
    match = [ep for ep in scripts if ep.name == "ricemele"]
    assert match and match[0].value == "ricemele.cli:main"


# Run in a fresh interpreter: import the CLI, then run each command on its
# demo config and print which of the listed modules each step newly loaded.
_IMPORT_PROBE = """
import json, os, sys
LISTED = ("scipy", "importlib.metadata", "concurrent.futures.process", "multiprocessing")
def loaded():
    return {p for p in LISTED for m in list(sys.modules) if m == p or m.startswith(p + ".")}
from ricemele.cli import main
steps = [sorted(loaded())]
configs, out = sys.argv[1:]
for name, argv in json.loads(sys.stdin.read()):
    before = loaded()
    assert main(["--config", os.path.join(configs, name), "--out", out, *argv]) == 0, argv
    steps.append(sorted(loaded() - before))
print(json.dumps(steps))
"""


def test_commands_without_scipy_never_import_it(tmp_path):
    # No command loads scipy; the process pool and the installed-version
    # lookup load inside the functions that use them, which none of these
    # commands reaches. decompose reads the trace that synth writes.
    decompose = tmp_path / "readout_decompose.json"
    readout_cfg = json.loads((DEMO_CONFIGS / "readout_synth.json").read_text())
    decompose.write_text(json.dumps({"readout": {**readout_cfg["readout"], "trace_path": str(tmp_path / "trace.csv")}}))
    runs = [("simulate.json", ["simulate"], []),
            ("sweep_offset.json", ["--jobs", "1", "sweep", "offset"], []),
            ("spectrum_excitation.json", ["spectrum", "excitation"], []),
            ("spectrum_excitation.json", ["spectrum", "instantaneous"], []),
            ("waveform_pump.json", ["waveform", "synth"], []),
            ("waveform_equal_coupling.json", ["waveform", "synth"], []),
            ("readout_synth.json", ["readout", "synth"], []),
            ("stirap.json", ["stirap"], []),
            (str(decompose), ["readout", "decompose"], []),
            ("simulate.json", ["validate"], [])]
    src = os.path.dirname(os.path.dirname(ricemele.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(DEMO_CONFIGS), str(tmp_path)],
                          input=json.dumps([run[:2] for run in runs]), capture_output=True, text=True,
                          env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert steps == [[]] + [expected for _, _, expected in runs]
