"""Acceptance checklist: end-to-end physics and infrastructure targets.

Each test records exactly one verdict line,

    ACCEPTANCE <n>: PASS|FAIL - <measured numbers>

before asserting. The conftest terminal summary replays the full
checklist after the run, and a failing test carries its own line in
the captured output and the assertion message. A criterion the
implementation does not meet fails honestly after reporting what was
measured; nothing is tuned to pass.
"""

import json
import time

import numpy as np
from scipy.integrate import solve_ivp

from ricemele import ChainSpec, EvolutionConfig, PumpProtocol, defaults
from ricemele.cli import main
from ricemele.evolution import (
    PulseSpec,
    cell_populations,
    evolve,
    initial_dimer_state,
    stirap_sequence,
    transfer_efficiency,
)
from ricemele.model import TWO_PI, ParameterPoint, build_hamiltonian
from ricemele.protocols import classify_regime, sample_trajectory, winding_number
from ricemele.readout import (
    IonizationModel,
    decompose_trace,
    make_basis,
    synthesize_trace,
)
from ricemele.rfwave import (
    ToneSchedule,
    required_programmed_amplitude,
    synthesize_waveform,
)
from ricemele.spectrum import (
    excitation_spectrum,
    find_optimal_period,
    find_spectral_peaks,
    max_band_width,
    predict_optimal_period,
    smooth_moving_average,
)
from ricemele.sweeps import SweepSpec, run_sweep


def _verdict(log: list, number: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    log.append(line)
    return line


def _readout_model() -> IonizationModel:
    return IonizationModel(
        np.array(defaults.READOUT["ramp_times"]),
        np.array(defaults.READOUT["ramp_fields"]),
        defaults.READOUT["sigma_t"],
        defaults.READOUT["t0"],
    )


def _readout_grid() -> np.ndarray:
    lo, hi, n = defaults.READOUT["grid"]
    return np.linspace(lo, hi, int(n))


def test_criterion_01_topological_plateau(verdict_log):
    # N=5, J0 = 2pi x 2.5, delta0 = 2pi x 6, T = 1.25 us, 2 cycles:
    # efficiency >= 0.80 on |offset| <= 0.6 delta0, <= 0.15 beyond
    # 1.5 delta0, and every 0.5-crossing within 0.25 delta0 of the
    # gap-closing offset |offset| = delta0. Budget 60 s.
    started = time.perf_counter()
    chain = ChainSpec(5)
    delta0 = TWO_PI * 6.0
    offsets = np.linspace(-3 * delta0, 3 * delta0, 61)
    cfg = EvolutionConfig(dt=1.25 / 4096, store_states=False)
    effs = np.empty(len(offsets))
    for k, offset in enumerate(offsets):
        proto = PumpProtocol("experimental", TWO_PI * 2.5, delta0, float(offset), 1.25, 2)
        psi0 = initial_dimer_state(chain, sample_trajectory(proto, 0.0), 1, "lower")
        effs[k] = transfer_efficiency(evolve(chain, proto, psi0, cfg))
    x = offsets / delta0

    plateau_min = float(effs[np.abs(x) <= 0.6].min())
    tail_max = float(effs[np.abs(x) >= 1.5].max())

    crossing_sides = {}
    for sign in (+1, -1):
        sel = x * sign > 0
        xs = np.abs(x[sel])
        es = effs[sel]
        order = np.argsort(xs)
        xs, es = xs[order], es[order]
        mids = [
            0.5 * (lo + hi)
            for lo, hi, el, eh in zip(xs[:-1], xs[1:], es[:-1], es[1:])
            if (el - 0.5) * (eh - 0.5) <= 0.0
        ]
        crossing_sides[sign] = mids
    sharp = all(
        mids and all(abs(m - 1.0) <= 0.25 for m in mids)
        for mids in crossing_sides.values()
    )
    elapsed = time.perf_counter() - started

    ok = plateau_min >= 0.80 and tail_max <= 0.15 and sharp and elapsed <= 60.0
    line = _verdict(
        verdict_log,
        1,
        ok,
        f"plateau min {plateau_min:.4f} (need >= 0.80), "
        f"tail max {tail_max:.4f} (need <= 0.15), "
        f"0.5-crossings at |offset|/delta0 "
        f"+side {np.round(crossing_sides[+1], 3).tolist()} "
        f"-side {np.round(crossing_sides[-1], 3).tolist()} "
        f"(need all within [0.75, 1.25] on both sides), "
        f"runtime {elapsed:.0f} s (need <= 60)",
    )
    assert ok, line


def test_criterion_02_classifier_matches_winding(verdict_log):
    # 20 x 20 grid of (delta0, delta_offset), both protocols:
    # classify_regime reports topological exactly when the winding is +-1.
    started = time.perf_counter()
    delta0_grid = TWO_PI * np.linspace(0.5, 10.0, 20)
    relative_offsets = np.linspace(-1.8, 1.8, 20)
    disagreements = 0
    total = 0
    for kind in ("experimental", "control_freak"):
        for delta0 in delta0_grid:
            for rel in relative_offsets:
                proto = PumpProtocol(kind, TWO_PI * 1.5, float(delta0),
                                     float(rel * delta0), 1.0, 1)
                winding, _degenerate = winding_number(proto)
                topological = classify_regime(proto) == "topological"
                disagreements += topological != (abs(winding) == 1)
                total += 1
    elapsed = time.perf_counter() - started

    ok = disagreements == 0
    line = _verdict(
        verdict_log,
        2,
        ok,
        f"{disagreements} disagreements over {total} grid points "
        f"(need 0), runtime {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_03_optimal_period_existence_and_law(verdict_log):
    # Experimental protocol shows an interior efficiency maximum vs
    # period; the control-freak protocol is non-decreasing after
    # smoothing; at N=15 the located optimum obeys
    # 0.5 <= t_opt * max band width / 2pi <= 2. Budget 600 s.
    started = time.perf_counter()
    chain = ChainSpec(5)
    template = PumpProtocol("experimental", TWO_PI * 1.5, TWO_PI * 7.0, 0.0, 1.0, 2)
    grid = np.linspace(0.1, 6.0, 60)
    spec = SweepSpec("protocol_compare", chain, template, {"period": grid}, jobs=4)
    result = run_sweep(spec)
    window = TWO_PI / template.delta0
    experimental = smooth_moving_average(grid, result.values[:, 0], window)
    control_freak = smooth_moving_average(grid, result.values[:, 1], window)

    i_max = int(np.argmax(experimental))
    interior = 0 < i_max < len(grid) - 1
    cf_min_step = float(np.diff(control_freak).min())
    cf_monotone = cf_min_step >= -1e-9

    chain15 = ChainSpec(15)
    t_opt = find_optimal_period(chain15, template, np.linspace(0.5, 9.0, 96))
    ratio = t_opt * max_band_width(template) / TWO_PI
    law = 0.5 <= ratio <= 2.0
    elapsed = time.perf_counter() - started

    ok = interior and cf_monotone and law and elapsed <= 600.0
    line = _verdict(
        verdict_log,
        3,
        ok,
        f"experimental max {experimental[i_max]:.4f} at T={grid[i_max]:.2f} us "
        f"(interior: {interior}), control-freak min smoothed step "
        f"{cf_min_step:+.5f} (need >= 0), N=15 t_opt {t_opt:.3f} us gives "
        f"t_opt*dE/2pi = {ratio:.3f} (need in [0.5, 2]), "
        f"runtime {elapsed:.0f} s (need <= 600)",
    )
    assert ok, line


def test_criterion_04_optimal_period_collapse(verdict_log):
    # t_opt against 1/(max band width) over a 3 x 3 grid of
    # (J0, delta0): Pearson correlation above 0.9.
    started = time.perf_counter()
    chain = ChainSpec(5)
    template = PumpProtocol("experimental", TWO_PI * 1.5, TWO_PI * 7.0, 0.0, 1.0, 2)
    spec = SweepSpec(
        "topt_collapse",
        chain,
        template,
        {
            "j_max": TWO_PI * np.array([1.0, 1.5, 2.0]),
            "delta0": TWO_PI * np.array([5.0, 7.0, 9.0]),
        },
        scan_grid=(),
        jobs=4,
    )
    result = run_sweep(spec)
    inverse_width = result.values[:, 0]
    t_opt = result.values[:, 1]
    pearson = float(np.corrcoef(inverse_width, t_opt)[0, 1])
    elapsed = time.perf_counter() - started

    ok = pearson > 0.9
    line = _verdict(
        verdict_log,
        4,
        ok,
        f"Pearson(t_opt, 1/dE) = {pearson:.4f} over 9 cases (need > 0.9), "
        f"runtime {elapsed:.0f} s",
    )
    assert ok, line


def test_criterion_05_quantized_transport(verdict_log):
    # 15 cells, center start, 2 cycles: the mean-position shift stays at
    # 2.0 +- 0.1 cells across a factor-4 period span around the
    # predicted optimum, and the spread never shrinks with period
    # beyond a 5% ripple.
    started = time.perf_counter()
    chain = ChainSpec(30)
    template = PumpProtocol("experimental", TWO_PI * 1.5, TWO_PI * 8.0, 0.0, 1.0, 2)
    t_pred = predict_optimal_period(template)
    periods = np.geomspace(t_pred / 2.0, t_pred * 2.0, 9)
    spec = SweepSpec("mean_position", chain, template, {"period": periods}, jobs=4)
    result = run_sweep(spec)
    shifts = result.values[:, 0]
    sigmas = result.values[:, 1]

    shift_ok = bool(np.all(np.abs(shifts - 2.0) <= 0.1))
    sigma_ok = bool(np.all(np.diff(sigmas) >= -0.05 * sigmas[:-1]))
    elapsed = time.perf_counter() - started

    ok = shift_ok and sigma_ok
    line = _verdict(
        verdict_log,
        5,
        ok,
        f"shift range [{shifts.min():.3f}, {shifts.max():.3f}] cells over "
        f"periods [{periods[0]:.2f}, {periods[-1]:.2f}] us "
        f"(need 2.0 +- 0.1 at every period), "
        f"sigma non-decreasing within 5%: {sigma_ok} "
        f"(sigma {np.round(sigmas, 3).tolist()}), runtime {elapsed:.0f} s",
    )
    assert ok, line


def test_criterion_06_ssh_spectroscopy(verdict_log):
    # N=6 dimerized chain, J_weak = 2pi x 1, J_strong = 2pi x 4:
    # edge probe shows one peak at zero detuning; bulk probe shows a
    # triplet whose outer separation matches 2 J_strong within 15%.
    # Each bond carries -J with J the tunnelling amplitude (Omega / 2), so
    # an isolated strong pair has lines at +-J_strong, 2 J_strong apart.
    started = time.perf_counter()
    chain = ChainSpec(6)
    j_weak, j_strong = TWO_PI * 1.0, TWO_PI * 4.0
    point = ParameterPoint(j_weak, j_strong, 0.0)
    gamma = TWO_PI * 0.8
    span = j_strong + j_weak + 4 * gamma
    detunings = np.linspace(-span, span, 4001)

    edge = excitation_spectrum(chain, point, 1, gamma, detunings)
    bulk = excitation_spectrum(chain, point, 3, gamma, detunings)
    edge_peaks = find_spectral_peaks(detunings, edge.response, 0.1)
    bulk_peaks = find_spectral_peaks(detunings, bulk.response, 0.1)

    edge_ok = len(edge_peaks) == 1 and abs(float(edge_peaks[0])) <= gamma / 10
    triplet_ok = len(bulk_peaks) == 3
    expected_outer = 2.0 * j_strong
    if len(bulk_peaks) >= 2:
        outer = float(bulk_peaks[-1] - bulk_peaks[0])
        separation_ratio = outer / expected_outer
    else:
        outer = 0.0
        separation_ratio = 0.0
    separation_ok = abs(separation_ratio - 1.0) <= 0.15
    elapsed = time.perf_counter() - started

    ok = edge_ok and triplet_ok and separation_ok
    line = _verdict(
        verdict_log,
        6,
        ok,
        f"edge peaks at {np.round(edge_peaks / TWO_PI, 3).tolist()} MHz "
        f"(need one at 0), bulk peaks at "
        f"{np.round(bulk_peaks / TWO_PI, 3).tolist()} MHz (need three), "
        f"outer separation {outer / TWO_PI:.3f} MHz = "
        f"{separation_ratio:.3f} x 2 J_strong (need within 15% of 1), "
        f"runtime {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_07_integrator_correctness(verdict_log):
    # Three random N=5 pump instances: norm drift below 1e-9 over 1e4
    # steps, dt-halving moves final cell populations by under 1e-4,
    # and the final state matches a high-order adaptive reference to 1e-8.
    started = time.perf_counter()
    chain = ChainSpec(5)
    rng = np.random.default_rng(42)
    worst_drift = 0.0
    worst_halving = 0.0
    worst_reference = 0.0
    for _ in range(3):
        proto = PumpProtocol(
            "experimental",
            TWO_PI * rng.uniform(1.0, 2.0),
            TWO_PI * rng.uniform(4.0, 8.0),
            TWO_PI * rng.uniform(-2.0, 2.0),
            float(rng.uniform(0.8, 1.2)),
            1,
        )
        psi0 = initial_dimer_state(chain, sample_trajectory(proto, 0.0), 1, "lower")

        stored = evolve(chain, proto, psi0, EvolutionConfig(dt=proto.period / 10000))
        norms = np.linalg.norm(stored.states, axis=1)
        worst_drift = max(worst_drift, float(np.abs(norms - 1.0).max()))

        coarse = evolve(chain, proto, psi0,
                        EvolutionConfig(dt=proto.period / 4096, store_states=False))
        fine = evolve(chain, proto, psi0,
                      EvolutionConfig(dt=proto.period / 8192, store_states=False))
        pop_step = np.abs(cell_populations(coarse.final_state, chain)
                          - cell_populations(fine.final_state, chain))
        worst_halving = max(worst_halving, float(pop_step.max()))

        def rhs(t, y, _proto=proto):
            point = sample_trajectory(_proto, min(t, _proto.duration))
            return -1j * (build_hamiltonian(chain, point) @ y)

        reference = solve_ivp(rhs, (0.0, proto.duration), psi0.astype(complex),
                              method="DOP853", rtol=1e-12, atol=1e-14).y[:, -1]
        mine = evolve(chain, proto, psi0,
                      EvolutionConfig(dt=proto.period / 65536,
                                      store_states=False)).final_state
        worst_reference = max(worst_reference, float(np.linalg.norm(mine - reference)))
    elapsed = time.perf_counter() - started

    ok = worst_drift < 1e-9 and worst_halving < 1e-4 and worst_reference < 1e-8
    line = _verdict(
        verdict_log,
        7,
        ok,
        f"norm drift {worst_drift:.2e} (need < 1e-9), dt-halving population "
        f"change {worst_halving:.2e} (need < 1e-4), high-order reference "
        f"distance {worst_reference:.2e} (need < 1e-8), runtime {elapsed:.0f} s",
    )
    assert ok, line


def test_criterion_08_stirap_transfer_and_rendered_readout(verdict_log):
    # Counter-intuitive pulse order at 2pi x 8.5 MHz peak coupling moves
    # at least 95% of the population to the target site; rendering the
    # final populations into a noisy arrival trace and unmixing them
    # reproduces each population within 5 points.
    started = time.perf_counter()
    duration = defaults.STIRAP["duration"]
    cfg = EvolutionConfig(dt=duration / 4096)
    pump = PulseSpec(defaults.STIRAP["peak_rabi"], defaults.STIRAP["pump_center"],
                     defaults.STIRAP["width"], 1)
    stokes = PulseSpec(defaults.STIRAP["peak_rabi"], defaults.STIRAP["stokes_center"],
                       defaults.STIRAP["width"], 2)
    record = stirap_sequence(pump, stokes, duration, cfg)
    populations = np.abs(record.final_state) ** 2
    populations = populations / populations.sum()
    transfer_ok = populations[2] >= 0.95

    basis = make_basis(defaults.READOUT["labels"][:3], defaults.READOUT["n_eff"][:3],
                       _readout_model(), _readout_grid())
    trace = synthesize_trace(populations, basis,
                             noise_amplitude=defaults.READOUT["noise"],
                             seed=defaults.READOUT["seed"])
    recovered, _residual = decompose_trace(trace, basis, normalize=True)
    render_error = float(np.abs(recovered - populations).max())
    render_ok = render_error < 0.05
    elapsed = time.perf_counter() - started

    ok = transfer_ok and render_ok
    line = _verdict(
        verdict_log,
        8,
        ok,
        f"target population {populations[2]:.5f} (need >= 0.95), rendered "
        f"round-trip error {render_error:.4f} (need < 0.05), "
        f"runtime {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_09_readout_oracle(verdict_log):
    # Six-state unmixing: noiseless recovery to 1e-6, optimality
    # (KKT) residual below 1e-8, and recovery within 5 points at the
    # default noise level and seed.
    started = time.perf_counter()
    basis = make_basis(defaults.READOUT["labels"], defaults.READOUT["n_eff"],
                       _readout_model(), _readout_grid())
    weights = np.array([0.05, 0.25, 0.1, 0.3, 0.2, 0.1])

    clean = synthesize_trace(weights, basis, noise_amplitude=0.0)
    recovered, _residual = decompose_trace(clean, basis)
    noiseless_error = float(np.abs(recovered - weights).max())

    a = basis.traces.T
    gradient = a.T @ (a @ recovered - clean.current)
    scale = float(np.max(np.abs(a.T @ clean.current)))
    active = recovered > 0
    kkt = float(np.max(np.abs(gradient[active])))
    if np.any(~active):
        kkt = max(kkt, max(0.0, float(-gradient[~active].min())))
    kkt_residual = kkt / scale

    noisy = synthesize_trace(weights, basis,
                             noise_amplitude=defaults.READOUT["noise"],
                             seed=defaults.READOUT["seed"])
    noisy_recovered, _ = decompose_trace(noisy, basis, normalize=True)
    noisy_error = float(np.abs(noisy_recovered - weights).max())
    elapsed = time.perf_counter() - started

    ok = noiseless_error < 1e-6 and kkt_residual < 1e-8 and noisy_error < 0.05
    line = _verdict(
        verdict_log,
        9,
        ok,
        f"noiseless error {noiseless_error:.2e} (need < 1e-6), relative KKT "
        f"residual {kkt_residual:.2e} (need < 1e-8), seeded-noise error "
        f"{noisy_error:.4f} (need < 0.05), runtime {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_10_waveform_quantization_and_equal_couplings(verdict_log):
    # A full-scale 10-bit tone quantizes within 1 dB of 6.02 b + 1.76;
    # back-solving the per-bond conversion coefficients for equal
    # couplings programs the tabulated amplitude fractions exactly and
    # the five-tone composite fits full scale at the default settings.
    started = time.perf_counter()
    tone = ToneSchedule((1, 2), 21.7003, TWO_PI * 20.0, 0.0, TWO_PI * 20.0, 0.0)
    buffer = synthesize_waveform([tone], 0.05, 50000.0, 10)
    codes = buffer.samples.astype(float)
    t = np.arange(len(codes)) / buffer.sample_rate
    analytic = buffer.normalization * np.cos(2 * np.pi * (tone.carrier / 2) * t)
    noise_power = float(np.mean((codes - analytic) ** 2))
    snr = 10.0 * np.log10(float(np.mean(analytic**2)) / noise_power)
    target = 6.02 * 10 + 1.76
    snr_ok = abs(snr - target) <= 1.0

    fractions = np.array(defaults.EQUAL_COUPLING_AMPLITUDES)
    omega = TWO_PI * 1.0
    tones = []
    amplitudes = []
    for k, (carrier, fraction) in enumerate(
        zip(defaults.WAVEFORM["carriers_mhz"], fractions)
    ):
        alpha = omega / fraction**2
        amplitudes.append(required_programmed_amplitude(omega, alpha))
        tones.append(ToneSchedule((k + 1, k + 2), carrier, omega, 0.0, alpha, 0.0))
    amplitudes = np.array(amplitudes)
    amplitude_error = float(np.abs(amplitudes - fractions).max())
    amplitudes_ok = amplitude_error < 1e-9

    composite = synthesize_waveform(tones, defaults.WAVEFORM["duration"],
                                    defaults.WAVEFORM["sample_rate"],
                                    defaults.WAVEFORM["bits"])
    peak = int(np.max(np.abs(composite.samples)))
    peak_ok = 0 < peak <= 511
    elapsed = time.perf_counter() - started

    ok = snr_ok and amplitudes_ok and peak_ok
    line = _verdict(
        verdict_log,
        10,
        ok,
        f"single-tone SNR {snr:.2f} dB vs {target:.2f} (need within 1 dB), "
        f"programmed fractions {np.round(amplitudes, 4).tolist()} vs "
        f"{fractions.tolist()} (max error {amplitude_error:.1e}), five-tone "
        f"peak code {peak} of 511, runtime {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_11_determinism(verdict_log, tmp_path):
    # Two runs of each acceptance-style command produce byte-identical
    # outputs, and sweep outputs are independent of the worker count.
    started = time.perf_counter()

    def run_cli(payload, args, tag):
        config_path = tmp_path / f"{tag}.json"
        config_path.write_text(json.dumps(payload))
        out = tmp_path / tag
        code = main(["--config", str(config_path), "--out", str(out), *args])
        if code != 0:
            return code, {}
        return 0, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    cases = {
        "simulate": (
            {
                "chain": {"n_sites": 5},
                "protocol": {"kind": "experimental", "j_max_mhz": 1.5,
                             "delta0_mhz": 7.0, "period_us": 0.4, "n_cycles": 1},
                "simulate": {"start_cell": 1, "branch": "lower"},
            },
            ["--dt", "0.002", "simulate"],
        ),
        "sweep": (
            {
                "sweep": {
                    "kind": "offset",
                    "n_sites": 5,
                    "j_max_mhz": 2.5,
                    "period_us": 0.4,
                    "n_cycles": 1,
                    "delta0_mhz": [4.0, 6.0],
                    "delta_offset_mhz": [-2.0, 0.0, 2.0],
                }
            },
            ["--dt", "0.002", "sweep", "offset"],
        ),
        "waveform": (
            {
                "waveform": {
                    "tones": [
                        {"sites": [1, 2], "carrier_mhz": 20.0, "rabi_mhz": 1.0},
                        {"sites": [2, 3], "carrier_mhz": 30.0, "rabi_mhz": 0.5},
                    ],
                    "duration_us": 1.0,
                    "sample_rate_per_us": 200.0,
                    "bits": 10,
                }
            },
            ["waveform", "synth"],
        ),
        "readout": (
            {"readout": {"weights": [0.05, 0.25, 0.1, 0.3, 0.2, 0.1],
                         "noise": 0.05}},
            ["readout", "synth"],
        ),
    }

    mismatches = []
    for tag, (payload, args) in cases.items():
        code_a, files_a = run_cli(payload, args, f"{tag}_a")
        code_b, files_b = run_cli(payload, args, f"{tag}_b")
        if code_a != 0 or code_b != 0:
            mismatches.append(f"{tag} exit codes {code_a}/{code_b}")
        elif files_a != files_b:
            mismatches.append(f"{tag} bytes differ")

    sweep_payload, _ = cases["sweep"]
    code_1, jobs_one = run_cli(sweep_payload, ["--jobs", "1", "--dt", "0.002",
                                               "sweep", "offset"], "jobs1")
    code_2, jobs_two = run_cli(sweep_payload, ["--jobs", "2", "--dt", "0.002",
                                               "sweep", "offset"], "jobs2")
    if code_1 != 0 or code_2 != 0:
        mismatches.append(f"jobs exit codes {code_1}/{code_2}")
    elif jobs_one["sweep_offset.csv"] != jobs_two["sweep_offset.csv"]:
        mismatches.append("jobs=1 vs jobs=2 CSV bytes differ")
    elapsed = time.perf_counter() - started

    ok = not mismatches
    line = _verdict(
        verdict_log,
        11,
        ok,
        f"double runs of {len(cases)} commands plus a jobs=1 vs jobs=2 sweep "
        f"{'all byte-identical' if ok else 'mismatched: ' + '; '.join(mismatches)}, "
        f"runtime {elapsed:.0f} s",
    )
    assert ok, line
