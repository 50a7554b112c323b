"""End-to-end command-line behavior: outputs, config handling, exit codes."""

import json
import pathlib
from importlib.metadata import PackageNotFoundError, distribution, entry_points

import numpy as np
import pytest

from ricemele.cli import main
from ricemele.config import (
    ConfigError,
    active_section,
    canonical_json,
    config_hash,
    load_config,
    resolve_chain,
    resolve_protocol,
)
from ricemele.evolution import MAX_STEPS
from ricemele.model import TWO_PI
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


def test_active_section_requires_exactly_one():
    assert active_section({"simulate": {}}) == "simulate"
    with pytest.raises(ConfigError):
        active_section({})
    with pytest.raises(ConfigError):
        active_section({"simulate": {}, "stirap": {}})


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


def test_resolve_chain_custom_cells():
    chain = resolve_chain({"chain": {"n_sites": 4, "cells": [[1, 2], [3, 4]],
                                     "delta_parity": -1}})
    assert chain.cells == ((1, 2), (3, 4))
    assert chain.delta_parity == -1


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
    assert payload["config"]["evolution"]["dt_us"] == 0.002
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
    ({**SIM_CONFIG, "protocol": {**SIM_CONFIG["protocol"], "j_max_mhz": float("nan")}}, ["simulate"],
     "j_max must be positive and finite, got nan"),
    ({**SIM_CONFIG, "evolution": {"dt_us": float("nan")}}, ["simulate"], "dt must be positive and finite, got nan"),
    ({**SIM_CONFIG, "chain": {"n_sites": 0}}, ["simulate"], "bad chain section: n_sites must be positive"),
    ({**SIM_CONFIG, "chain": {"n_sites": 5, "delta_parity": 2}}, ["simulate"],
     "bad chain section: delta_parity must be +1 or -1"),
    ({**SIM_CONFIG, "simulate": {"start_cell": 9}}, ["simulate"], "bad simulate section: cell_index out of range"),
    ({**SIM_CONFIG, "simulate": {"branch": "middle"}}, ["simulate"],
     "bad simulate section: branch must be 'lower' or 'upper'"),
    ({"spectrum": {"linewidth_mhz": 0.0}}, ["spectrum", "excitation"],
     "bad spectrum section: linewidth must be positive"),
    ({"spectrum": {"n_times": 1}}, ["spectrum", "instantaneous"], "bad spectrum section: need at least 2 time samples"),
    ({"spectrum": {"probe_site": 99}}, ["spectrum", "excitation"], "bad spectrum section: probe_site out of range"),
    ({"waveform": {**WAVEFORM, "tones": [{**TONE, "carrier_mhz": -5.0}]}}, ["waveform", "synth"],
     "bad waveform section: carrier frequency must be positive"),
    ({"waveform": {**WAVEFORM, "bits": 40}}, ["waveform", "synth"], "bad waveform section: bits must be in 2..16"),
    ({"readout": {"sigma_t_us": 0.0}}, ["readout", "synth"], "bad readout section: sigma_t must be positive"),
    ({"readout": {"weights": [1.0]}}, ["readout", "synth"], "bad readout section: one weight per basis state required"),
    ({"readout": {"noise": -1}}, ["readout", "synth"],
     "bad readout section: noise_amplitude must be non-negative and finite, got -1.0"),
    ({"stirap": {"width_us": 0.0}}, ["stirap"], "bad stirap section: width must be positive"),
    ({"stirap": {"peak_rabi_mhz": "x"}}, ["stirap"], "bad stirap section: could not convert string to float: 'x'"),
    ({"stirap": {"duration_us": 0}}, ["stirap"], "bad stirap section: duration must be positive and finite, got 0.0"),
    ({"stirap": {"duration_us": -6}}, ["stirap"], "bad stirap section: duration must be positive and finite, got -6.0"),
    ({**SIM_CONFIG, "evolution": {"adaptive": "false"}}, ["simulate"],
     "bad evolution section: expected true or false, got 'false'"),
    ({**SIM_CONFIG, "evolution": {"store_states": 1}}, ["simulate"],
     "bad evolution section: expected true or false, got 1"),
    ({"readout": {"trace_path": "trace.csv", "normalize": "false"}}, ["readout", "decompose"],
     "bad readout section: expected true or false, got 'false'"),
    ({"waveform": {**WAVEFORM, "csv_dump": "false"}}, ["waveform", "synth"],
     "bad waveform section: expected true or false, got 'false'"),
], ids=["sweep-n_sites", "sweep-axis", "protocol-nan", "evolution-nan", "chain-n_sites", "chain-delta_parity",
        "simulate-start_cell", "simulate-branch", "spectrum-linewidth", "spectrum-n_times", "spectrum-probe_site",
        "waveform-carrier", "waveform-bits", "readout-sigma_t", "readout-weights", "readout-noise", "stirap-width",
        "stirap-peak_rabi", "stirap-duration-zero", "stirap-duration-negative", "evolution-adaptive",
        "evolution-store_states", "readout-normalize", "waveform-csv_dump"])
def test_bad_config_values_are_config_errors(tmp_path, capsys, payload, command, named):
    cfg = write_config(tmp_path, payload)  # json writes NaN, which json.load reads back
    assert main(["--config", cfg, "--out", str(tmp_path), *command]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err


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


@pytest.mark.skipif(not _installed("ricemele"),
                    reason="ricemele is not installed (importlib.metadata.PackageNotFoundError)")
def test_installed_entry_point_matches_declaration():
    # Catches a stale install whose console script no longer matches the source.
    scripts = entry_points(group="console_scripts")
    match = [ep for ep in scripts if ep.name == "ricemele"]
    assert match and match[0].value == "ricemele.cli:main"
