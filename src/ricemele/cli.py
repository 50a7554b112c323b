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
from functools import partial

import numpy as np

from . import config as cfgmod
from . import defaults, evolution, readout, rfwave, spectrum, sweeps
from .config import ConfigError, flag, read, section, write_json
from .model import TWO_PI
from .protocols import classify_regime, sample_trajectory, winding_number

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_RUNTIME = 5

_floats = partial(np.asarray, dtype=float)


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
        "evolution": {"dt_us": evo.dt, "store_states": evo.store_states},
    }


def _downsampled(times, rows) -> tuple:
    """About 512 evenly strided samples of a record, always with the last one."""
    stride = max(1, (len(times) - 1) // 512)
    keep = list(range(0, len(times) - 1, stride)) + [len(times) - 1]
    return [float(times[i]) for i in keep], [[float(x) for x in rows[i]] for i in keep]


def _cmd_simulate(args, cfg) -> int:
    chain = cfgmod.resolve_chain(cfg)
    protocol = cfgmod.resolve_protocol(cfg)
    evo = cfgmod.resolve_evolution(cfg, args.dt)
    with section(cfg, "simulate", ("start_cell", "branch")) as values:
        start_cell = read(values, "start_cell", defaults.START_CELL, int)
        branch = read(values, "branch", defaults.BRANCH, str)
        psi0 = evolution.initial_dimer_state(chain, sample_trajectory(protocol, 0.0), start_cell, branch)
    record = evolution.evolve(chain, protocol, psi0, evo)
    times, pops = _downsampled(record.times, record.cell_population_table())
    winding, on_boundary = winding_number(protocol)
    payload = {
        "config": {**_resolved_common(cfg, chain, protocol, evo),
                   "simulate": {"start_cell": start_cell, "branch": branch}},
        "times_us": times,
        "cell_populations": pops,
        "final_site_populations": [float(abs(a) ** 2) for a in record.final_state],
        "transfer_efficiency": evolution.transfer_efficiency(record),
        "winding_number": winding,
        "on_boundary": on_boundary,
        "regime": classify_regime(protocol),
    }
    path = os.path.join(_out_dir(args, cfg), "simulate.json")
    write_json(payload, path)
    print(path)
    return EXIT_OK


def _cmd_sweep(args, cfg) -> int:
    with section(cfg, "sweep") as values:
        values = dict(values)
        kind = values.pop("kind", None) or args.kind
        if kind != args.kind:
            raise ConfigError(f"config sweep kind {kind!r} conflicts with argument {args.kind!r}")
        spec = sweeps.build_sweep_spec(args.kind, values, jobs=max(1, args.jobs), dt=args.dt)
    result = sweeps.run_sweep(spec)
    out = _out_dir(args, cfg)
    base = os.path.join(out, f"sweep_{args.kind}")
    sweeps.write_sweep_csv(result, base + ".csv")
    embedded = {"sweep": {"kind": args.kind, **values}, "resolved": spec.to_dict(),
                "metadata": result.metadata}
    write_json(embedded, base + "_config.json")
    sweeps.write_sweep_json(result, base + ".json")
    print(base + ".csv")
    return EXIT_OK


def _cmd_spectrum(args, cfg) -> int:
    chain = cfgmod.resolve_chain(cfg)
    protocol = cfgmod.resolve_protocol(cfg)
    keys = ("n_times", "probe_site", "linewidth_mhz", "probe_time_us", "detuning_span_mhz", "n_detunings")
    with section(cfg, "spectrum", keys) as values:
        if args.mode == "instantaneous":
            name, write = "spectrum_instantaneous.csv", spectrum.write_spectrum_csv
            result = spectrum.instantaneous_spectrum(
                chain, protocol, read(values, "n_times", defaults.SPECTRUM_N_TIMES, int))
        else:
            probe = read(values, "probe_site", defaults.PROBE_SITE, int)
            linewidth = read(values, "linewidth_mhz", defaults.LINEWIDTH)
            probe_time = read(values, "probe_time_us", 0.0)
            if not 0 <= probe_time <= protocol.duration:
                raise ValueError(f"probe_time must lie in [0, {protocol.duration!r}] us, got {probe_time!r}")
            point = sample_trajectory(protocol, probe_time)
            # laid out in MHz, then scaled: each point is 2*pi times an even MHz step
            # (read() would scale the span first, which moves the grid's last bits)
            span = float(values.get("detuning_span_mhz", 3.0 * protocol.j_max / TWO_PI + 2.0))
            if not 0 < span < np.inf:
                raise ValueError(f"detuning_span_mhz must be positive and finite, got {span!r}")
            grid = TWO_PI * np.linspace(-span, span, read(values, "n_detunings", 1201, int))
            name, write = "spectrum_excitation.csv", spectrum.write_excitation_csv
            result = spectrum.excitation_spectrum(chain, point, probe, linewidth, grid)
    path = os.path.join(_out_dir(args, cfg), name)
    write(result, path)
    print(path)
    return EXIT_OK


def _tone_from_section(entry: dict, protocol) -> rfwave.ToneSchedule:
    sites = read(entry, "sites", (1, 2), lambda v: tuple(map(int, v)))
    # the carrier is a field frequency, kept in MHz: the one _mhz key not scaled
    # by 2*pi; an absent carrier reads 0, which ToneSchedule rejects
    carrier = float(entry.get("carrier_mhz", 0.0))
    alpha = read(entry, "alpha_mhz_per_v2", defaults.WAVEFORM["alpha"])
    phase = read(entry, "phase_rad", 0.0)
    if "bond" in entry:
        bond = int(entry["bond"])
        if bond not in (1, 2):
            raise ValueError("tone bond must be 1 or 2")
        sign = read(entry, "detuning_sign", 1.0)

        def rabi(t, _b=bond):
            j1, j2, _ = sample_trajectory(protocol, np.asarray(t) % protocol.duration)
            return 2.0 * (j1 if _b == 1 else j2)

        def detuning(t, _s=sign):
            _, _, delta = sample_trajectory(protocol, np.asarray(t) % protocol.duration)
            return 2.0 * _s * delta

        return rfwave.ToneSchedule(sites, carrier, rabi, detuning, alpha, phase)
    return rfwave.ToneSchedule(sites, carrier, read(entry, "rabi_mhz", 0.0), read(entry, "detuning_mhz", 0.0),
                               alpha, phase)


def _cmd_waveform(args, cfg) -> int:
    protocol = cfgmod.resolve_protocol(cfg)
    with section(cfg, "waveform", ("tones", "duration_us", "sample_rate_per_us", "bits", "csv_dump")) as values:
        entries = values.get("tones")
        if not entries:
            raise ConfigError("waveform synth needs a non-empty waveform.tones list")
        tones = [_tone_from_section(e, protocol) for e in entries]
        duration = read(values, "duration_us", defaults.WAVEFORM["duration"])
        buffer = rfwave.synthesize_waveform(tones, duration,
                                            read(values, "sample_rate_per_us", defaults.WAVEFORM["sample_rate"]),
                                            read(values, "bits", defaults.WAVEFORM["bits"], int))
        purity = rfwave.spectral_purity_table(tones, duration)
        csv_dump = read(values, "csv_dump", False, flag)
    out = _out_dir(args, cfg)
    bin_path = os.path.join(out, "waveform.bin")
    rfwave.write_waveform_binary(buffer, bin_path)
    write_json(
        {
            "config": {"protocol": cfgmod.protocol_to_dict(protocol), "waveform": values},
            "n_samples": len(buffer.samples),
            "bits": buffer.bits,
            "sample_rate_per_us": buffer.sample_rate,
            "normalization": buffer.normalization,
            "spectral_purity": purity,
        },
        os.path.join(out, "waveform.json"),
    )
    if csv_dump:
        rfwave.write_waveform_csv(buffer, os.path.join(out, "waveform.csv"))
    print(bin_path)
    return EXIT_OK


# The keys of both readout actions: validate reads the basis keys of either.
_READOUT_KEYS = ("ramp_times_us", "ramp_fields_v_per_cm", "sigma_t_us", "t0_us", "grid", "labels", "n_eff",
                 "seed", "weights", "noise", "trace_path", "normalize")


def _readout_basis(values) -> readout.BasisSet:
    base = defaults.READOUT
    model = readout.IonizationModel(
        ramp_times=read(values, "ramp_times_us", base["ramp_times"], _floats),
        ramp_fields=read(values, "ramp_fields_v_per_cm", base["ramp_fields"], _floats),
        sigma_t=read(values, "sigma_t_us", base["sigma_t"]),
        t0=read(values, "t0_us", base["t0"]),
    )
    lo, hi, n = read(values, "grid", base["grid"], tuple)
    lo, hi = float(lo), float(hi)
    if not np.isfinite(lo) or not np.isfinite(hi):
        raise ValueError(f"grid ends must be finite, got {lo!r} and {hi!r}")
    grid = np.linspace(lo, hi, int(n))
    return readout.make_basis(read(values, "labels", base["labels"], tuple),
                              read(values, "n_eff", base["n_eff"], _floats), model, grid)


def _cmd_readout(args, cfg) -> int:
    with section(cfg, "readout", _READOUT_KEYS) as values:
        seed = args.seed if args.seed is not None else read(values, "seed", defaults.READOUT["seed"], int)
        basis = _readout_basis(values)
        if args.action == "synth":
            weights = read(values, "weights", [1.0] + [0.0] * (len(basis.labels) - 1), _floats)
            trace = readout.synthesize_trace(weights, basis, read(values, "noise", defaults.READOUT["noise"]), seed)
        else:
            trace_path = read(values, "trace_path", "", str)
            if not trace_path:
                raise ConfigError("readout decompose needs readout.trace_path")
            normalize = read(values, "normalize", True, flag)
            weights, residual = readout.decompose_trace(readout.read_trace_csv(trace_path), basis, normalize=normalize)
    out = _out_dir(args, cfg)
    readout.write_basis_csv(basis, os.path.join(out, "basis.csv"))
    report = {"config": {"readout": {**values, "seed": seed}}, "weights": [float(w) for w in weights]}
    if args.action == "synth":
        path = os.path.join(out, "trace.csv")
        readout.write_trace_csv(trace, path)
        write_json(report, os.path.join(out, "trace_config.json"))
    else:
        path = os.path.join(out, "weights.json")
        write_json({**report, "labels": list(basis.labels), "residual_norm": residual}, path)
    print(path)
    return EXIT_OK


def _cmd_stirap(args, cfg) -> int:
    base = defaults.STIRAP
    keys = ("peak_rabi_mhz", "duration_us", "width_us", "stokes_center_us", "pump_center_us")
    with section(cfg, "stirap", keys) as values:
        peak = read(values, "peak_rabi_mhz", base["peak_rabi"])
        duration = read(values, "duration_us", base["duration"])
        if not 0 < duration < np.inf:
            raise ValueError(f"duration must be positive and finite, got {duration!r}")
        width = read(values, "width_us", base["width"])
        stokes_center = read(values, "stokes_center_us", base["stokes_center"])
        pump_center = read(values, "pump_center_us", base["pump_center"])
        pump = evolution.PulseSpec(peak, pump_center, width, bond=1)
        stokes = evolution.PulseSpec(peak, stokes_center, width, bond=2)
    evo = cfgmod.resolve_evolution(cfg, args.dt)
    record = evolution.stirap_sequence(pump, stokes, duration, evo)
    pops = np.abs(record.states) ** 2
    times, site_pops = _downsampled(record.times, pops)
    payload = {
        "config": {"stirap": {
            "peak_rabi_mhz": peak / TWO_PI, "duration_us": duration, "width_us": width,
            "stokes_center_us": stokes_center, "pump_center_us": pump_center}},
        "times_us": times,
        "site_populations": site_pops,
        "final_populations": [float(x) for x in pops[-1]],
    }
    path = os.path.join(_out_dir(args, cfg), "stirap.json")
    write_json(payload, path)
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

    with section(cfg, "readout", _READOUT_KEYS) as values:
        basis = _readout_basis(values)
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
        cfgmod.check_command_section(cfg, args.command)
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
