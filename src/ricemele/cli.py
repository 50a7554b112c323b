"""Command-line entry point.

Subcommands: simulate, sweep <kind>, spectrum <instantaneous|excitation>,
waveform synth, readout <synth|decompose>, stirap, validate. All physical
inputs come from a JSON config file (frequencies in MHz, times in us);
flags override execution details only. Outputs embed the resolved config
so any result can be reproduced from its own file.

Exit codes: 0 success, 2 usage, 3 config error, 4 file I/O error,
5 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import config as cfgmod
from . import defaults, evolution, readout, rfwave, spectrum, sweeps
from .config import ConfigError, canonical_json
from .model import TWO_PI, ChainSpec
from .protocols import classify_regime, sample_trajectory, winding_number

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_RUNTIME = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ricemele",
        description="Thouless pumping on finite Rice-Mele chains: "
        "simulation, sweeps, spectra, waveforms, and readout.",
    )
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--out", help="output directory (default: current directory)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--dt", type=float, help="override the integrator step, us")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="run one pump evolution and emit the record")
    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("kind", choices=sweeps.KINDS)
    p_spec = sub.add_parser("spectrum", help="instantaneous or excitation spectra")
    p_spec.add_argument("mode", choices=("instantaneous", "excitation"))
    p_wave = sub.add_parser("waveform", help="rf waveform synthesis")
    p_wave.add_argument("action", choices=("synth",))
    p_read = sub.add_parser("readout", help="time-of-flight trace synthesis/unmixing")
    p_read.add_argument("action", choices=("synth", "decompose"))
    sub.add_parser("stirap", help="three-site STIRAP transfer")
    sub.add_parser("validate", help="run the invariant suite on the config")
    return parser


def _out_dir(args, cfg) -> str:
    out = args.out or cfg.get("out_dir") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _resolved_common(cfg, chain, protocol, evo) -> dict:
    return {
        "chain": cfgmod.chain_to_dict(chain),
        "protocol": cfgmod.protocol_to_dict(protocol),
        "evolution": {
            "dt_us": evo.dt,
            "adaptive": evo.adaptive_halving,
            "convergence_tol": evo.convergence_tol,
            "store_states": evo.store_states,
        },
    }


def _write_json(payload, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(payload) + "\n")


def _cmd_simulate(args, cfg) -> int:
    chain = cfgmod.resolve_chain(cfg)
    protocol = cfgmod.resolve_protocol(cfg)
    evo = cfgmod.resolve_evolution(cfg, args.dt)
    section = cfg.get("simulate", {})
    start_cell = int(section.get("start_cell", defaults.START_CELL))
    branch = section.get("branch", defaults.BRANCH)
    psi0 = evolution.initial_dimer_state(chain, sample_trajectory(protocol, 0.0), start_cell, branch)
    record = evolution.evolve(chain, protocol, psi0, evo)
    pops = record.cell_population_table()
    stride = max(1, (len(record.times) - 1) // 512)
    keep = list(range(0, len(record.times) - 1, stride)) + [len(record.times) - 1]
    winding, on_boundary = winding_number(protocol)
    payload = {
        "config": {**_resolved_common(cfg, chain, protocol, evo),
                   "simulate": {"start_cell": start_cell, "branch": branch}},
        "times_us": [float(record.times[i]) for i in keep],
        "cell_populations": [[float(x) for x in pops[i]] for i in keep],
        "final_site_populations": [float(abs(a) ** 2) for a in record.final_state],
        "transfer_efficiency": evolution.transfer_efficiency(record),
        "winding_number": winding,
        "on_boundary": on_boundary,
        "regime": classify_regime(protocol),
    }
    path = os.path.join(_out_dir(args, cfg), "simulate.json")
    _write_json(payload, path)
    print(path)
    return EXIT_OK


def _cmd_sweep(args, cfg) -> int:
    section = dict(cfg.get("sweep", {}))
    kind = section.pop("kind", None) or args.kind
    if kind != args.kind:
        raise ConfigError(f"config sweep kind {kind!r} conflicts with argument {args.kind!r}")
    spec = sweeps.build_sweep_spec(args.kind, section, jobs=max(1, args.jobs), dt=args.dt)
    result = sweeps.run_sweep(spec)
    out = _out_dir(args, cfg)
    base = os.path.join(out, f"sweep_{args.kind}")
    sweeps.write_sweep_csv(result, base + ".csv")
    embedded = {"sweep": {"kind": args.kind, **section}, "resolved": spec.to_dict(),
                "metadata": result.metadata}
    _write_json(embedded, base + "_config.json")
    sweeps.write_sweep_json(result, base + ".json")
    print(base + ".csv")
    return EXIT_OK


def _cmd_spectrum(args, cfg) -> int:
    chain = cfgmod.resolve_chain(cfg)
    protocol = cfgmod.resolve_protocol(cfg)
    section = cfg.get("spectrum", {})
    out = _out_dir(args, cfg)
    if args.mode == "instantaneous":
        n_times = int(section.get("n_times", defaults.SPECTRUM_N_TIMES))
        track = spectrum.instantaneous_spectrum(chain, protocol, n_times)
        path = os.path.join(out, "spectrum_instantaneous.csv")
        spectrum.write_spectrum_csv(track, path)
    else:
        probe = int(section.get("probe_site", defaults.PROBE_SITE))
        linewidth = TWO_PI * float(section.get("linewidth_mhz", defaults.LINEWIDTH / TWO_PI))
        point = sample_trajectory(protocol, float(section.get("probe_time_us", 0.0)))
        span = float(section.get("detuning_span_mhz", 3.0 * protocol.j_max / TWO_PI + 2.0))
        n_det = int(section.get("n_detunings", 1201))
        grid = TWO_PI * np.linspace(-span, span, n_det)
        es = spectrum.excitation_spectrum(chain, point, probe, linewidth, grid)
        path = os.path.join(out, "spectrum_excitation.csv")
        spectrum.write_excitation_csv(es, path)
    print(path)
    return EXIT_OK


def _tone_from_section(entry: dict, protocol) -> rfwave.ToneSchedule:
    sites = tuple(int(s) for s in entry.get("sites", (1, 2)))
    carrier = float(entry["carrier_mhz"])
    alpha = TWO_PI * float(entry.get("alpha_mhz_per_v2", defaults.WAVEFORM["alpha"] / TWO_PI))
    phase = float(entry.get("phase_rad", 0.0))
    if "bond" in entry:
        bond = int(entry["bond"])
        if bond not in (1, 2):
            raise ConfigError("tone bond must be 1 or 2")
        sign = float(entry.get("detuning_sign", 1.0))

        def rabi(t, _b=bond):
            j1, j2, _ = sample_trajectory(protocol, np.asarray(t) % protocol.duration)
            return 2.0 * (j1 if _b == 1 else j2)

        def detuning(t, _s=sign):
            _, _, delta = sample_trajectory(protocol, np.asarray(t) % protocol.duration)
            return 2.0 * _s * delta

        return rfwave.ToneSchedule(sites, carrier, rabi, detuning, alpha, phase)
    rabi = TWO_PI * float(entry.get("rabi_mhz", 0.0))
    detuning = TWO_PI * float(entry.get("detuning_mhz", 0.0))
    return rfwave.ToneSchedule(sites, carrier, rabi, detuning, alpha, phase)


def _cmd_waveform(args, cfg) -> int:
    protocol = cfgmod.resolve_protocol(cfg)
    section = cfg.get("waveform", {})
    entries = section.get("tones")
    if not entries:
        raise ConfigError("waveform synth needs a non-empty waveform.tones list")
    tones = [_tone_from_section(e, protocol) for e in entries]
    duration = float(section.get("duration_us", defaults.WAVEFORM["duration"]))
    rate = float(section.get("sample_rate_per_us", defaults.WAVEFORM["sample_rate"]))
    bits = int(section.get("bits", defaults.WAVEFORM["bits"]))
    buffer = rfwave.synthesize_waveform(tones, duration, rate, bits)
    out = _out_dir(args, cfg)
    bin_path = os.path.join(out, "waveform.bin")
    rfwave.write_waveform_binary(buffer, bin_path)
    purity = rfwave.spectral_purity_table(tones, duration)
    _write_json(
        {
            "config": {"protocol": cfgmod.protocol_to_dict(protocol), "waveform": section},
            "n_samples": len(buffer.samples),
            "bits": buffer.bits,
            "sample_rate_per_us": buffer.sample_rate,
            "normalization": buffer.normalization,
            "spectral_purity": purity,
        },
        os.path.join(out, "waveform.json"),
    )
    if bool(section.get("csv_dump", False)):
        rfwave.write_waveform_csv(buffer, os.path.join(out, "waveform.csv"))
    print(bin_path)
    return EXIT_OK


def _readout_model(section) -> tuple:
    base = defaults.READOUT
    model = readout.IonizationModel(
        ramp_times=np.asarray(section.get("ramp_times_us", base["ramp_times"]), dtype=float),
        ramp_fields=np.asarray(section.get("ramp_fields_v_per_cm", base["ramp_fields"]), dtype=float),
        sigma_t=float(section.get("sigma_t_us", base["sigma_t"])),
        t0=float(section.get("t0_us", base["t0"])),
    )
    lo, hi, n = section.get("grid", base["grid"])
    grid = np.linspace(float(lo), float(hi), int(n))
    labels = tuple(section.get("labels", base["labels"]))
    n_eff = tuple(float(x) for x in section.get("n_eff", base["n_eff"]))
    basis = readout.make_basis(labels, n_eff, model, grid)
    return model, basis


def _cmd_readout(args, cfg) -> int:
    section = dict(cfg.get("readout", {}))
    seed = args.seed if args.seed is not None else int(section.get("seed", defaults.READOUT["seed"]))
    _, basis = _readout_model(section)
    out = _out_dir(args, cfg)
    readout.write_basis_csv(basis, os.path.join(out, "basis.csv"))
    if args.action == "synth":
        weights = np.asarray(section.get("weights", [1.0] + [0.0] * (len(basis.labels) - 1)), dtype=float)
        noise = float(section.get("noise", defaults.READOUT["noise"]))
        trace = readout.synthesize_trace(weights, basis, noise, seed)
        path = os.path.join(out, "trace.csv")
        readout.write_trace_csv(trace, path)
        _write_json({"config": {"readout": {**section, "seed": seed}},
                     "weights": [float(w) for w in weights]},
                    os.path.join(out, "trace_config.json"))
    else:
        trace_path = section.get("trace_path")
        if not trace_path:
            raise ConfigError("readout decompose needs readout.trace_path")
        trace = readout.read_trace_csv(trace_path)
        weights, residual = readout.decompose_trace(
            trace, basis, normalize=bool(section.get("normalize", True))
        )
        path = os.path.join(out, "weights.json")
        _write_json({"config": {"readout": {**section, "seed": seed}},
                     "labels": list(basis.labels),
                     "weights": [float(w) for w in weights],
                     "residual_norm": residual}, path)
    print(path)
    return EXIT_OK


def _cmd_stirap(args, cfg) -> int:
    section = cfg.get("stirap", {})
    base = defaults.STIRAP
    peak = TWO_PI * float(section.get("peak_rabi_mhz", base["peak_rabi"] / TWO_PI))
    duration = float(section.get("duration_us", base["duration"]))
    width = float(section.get("width_us", base["width"]))
    stokes_center = float(section.get("stokes_center_us", base["stokes_center"]))
    pump_center = float(section.get("pump_center_us", base["pump_center"]))
    pump = evolution.PulseSpec(peak, pump_center, width, bond=1)
    stokes = evolution.PulseSpec(peak, stokes_center, width, bond=2)
    evo = cfgmod.resolve_evolution(cfg, args.dt)
    record = evolution.stirap_sequence(pump, stokes, duration, evo)
    pops = np.abs(record.states) ** 2
    stride = max(1, (len(record.times) - 1) // 512)
    keep = list(range(0, len(record.times) - 1, stride)) + [len(record.times) - 1]
    payload = {
        "config": {"stirap": {
            "peak_rabi_mhz": peak / TWO_PI, "duration_us": duration, "width_us": width,
            "stokes_center_us": stokes_center, "pump_center_us": pump_center}},
        "times_us": [float(record.times[i]) for i in keep],
        "site_populations": [[float(x) for x in pops[i]] for i in keep],
        "final_populations": [float(x) for x in pops[-1]],
    }
    path = os.path.join(_out_dir(args, cfg), "stirap.json")
    _write_json(payload, path)
    print(path)
    return EXIT_OK


def _cmd_validate(args, cfg) -> int:
    chain = cfgmod.resolve_chain(cfg)
    protocol = cfgmod.resolve_protocol(cfg)
    checks = []

    point = sample_trajectory(protocol, 0.0)
    checks.append(("protocol starts dimerized", point.j2 == 0.0))

    winding, on_boundary = winding_number(protocol)
    regime = classify_regime(protocol)
    checks.append(("winding/regime consistent",
                   (regime == "topological") == (abs(winding) >= 1 and not on_boundary)))

    psi0 = evolution.initial_dimer_state(chain, point, 1, "lower")
    cfg_evo = evolution.EvolutionConfig(dt=protocol.period / 256, store_states=False)
    short = evolution.evolve(chain, replace(protocol, n_cycles=1), psi0, cfg_evo)
    norm_drift = abs(float(np.linalg.norm(short.final_state)) - 1.0)
    checks.append(("evolution unitary (norm drift < 1e-9)", norm_drift < 1e-9))

    track = spectrum.instantaneous_spectrum(chain, protocol, 32)
    checks.append(("spectrum sorted ascending", bool(np.all(np.diff(track.eigenvalues, axis=1) >= -1e-12))))

    _, basis = _readout_model(cfg.get("readout", {}))
    weights = np.zeros(len(basis.labels))
    weights[0] = 1.0
    trace = readout.synthesize_trace(weights, basis, 0.0)
    recovered, _ = readout.decompose_trace(trace, basis)
    checks.append(("readout round-trip", bool(np.allclose(recovered, weights, atol=1e-6))))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'ok' if ok else 'FAIL'}: {name}")
    if failed:
        raise RuntimeError(f"validation failed: {', '.join(failed)}")
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "spectrum": _cmd_spectrum,
    "waveform": _cmd_waveform,
    "readout": _cmd_readout,
    "stirap": _cmd_stirap,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        cfg = cfgmod.load_config(args.config) if args.config else {}
        present = [s for s in cfgmod.COMMAND_SECTIONS if s in cfg]
        if len(present) > 1:
            raise ConfigError(f"config holds multiple command sections: {present}")
        if present and args.command != "validate" and present[0] != args.command:
            raise ConfigError(
                f"config section {present[0]!r} does not match subcommand {args.command!r}"
            )
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # noqa: BLE001 - map all runtime failures to one code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
