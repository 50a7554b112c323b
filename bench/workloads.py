"""The benchmark's workloads: seeded input generation, the timed run, checks.

Each workload builds its inputs from a seed, runs them through ricemele's
public API, and checks every output it can see. Accuracy is measured
against an independent DOP853 integration of the same Hamiltonian,
assembled from the library's own ``build_hamiltonians`` and
``sample_trajectory``.

- ``offset_plateau``: acceptance 1's offset scan, N = 5, 61 offsets.
- ``period_scan_n30``: acceptance 5's mean-position scan, N = 30, 9 periods.
- ``cli_demo``: every shipped demo config through ``ricemele.cli.main``.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import shutil

import numpy as np

# Largest deviation of final cell populations from the DOP853 reference
# that still counts as correct. At 4096 steps per cycle the worst point
# measured on these workloads deviates by 1.7e-6 (N = 5) and 1.4e-6 (N = 30).
REF_TOL = 1e-5
NORM_TOL = 1e-9
REF_RTOL = 1e-10
REF_ATOL = 1e-12


class Checks:
    """Counts checks attempted and keeps a message for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def digest(obj) -> str:
    """sha256 of a canonical JSON rendering, for byte-identity of inputs."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _floats(values) -> list[str]:
    return [repr(float(v)) for v in np.asarray(values).ravel()]


def reference_populations(chain, protocol, psi0) -> np.ndarray:
    """Final cell populations from DOP853 on i dpsi/dt = H(t) psi.

    H(t) is linear in (J1, J2, delta), so it is assembled from three unit
    Hamiltonians of ``build_hamiltonians`` weighted by ``sample_trajectory``.
    """
    from scipy.integrate import solve_ivp

    from ricemele import build_hamiltonians, cell_populations, sample_trajectory

    units = [build_hamiltonians(chain, *unit)[0] for unit in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))]

    def rhs(t, y):
        j1, j2, delta = sample_trajectory(protocol, np.array([t]))
        return -1j * ((j1[0] * units[0] + j2[0] * units[1] + delta[0] * units[2]) @ y)

    sol = solve_ivp(rhs, (0.0, protocol.duration), np.asarray(psi0, dtype=complex),
                    method="DOP853", rtol=REF_RTOL, atol=REF_ATOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return cell_populations(sol.y[:, -1], chain)


def library_state(chain, protocol, start_cell):
    """Final state of the library's evolve from the lower dimer state of a cell."""
    from ricemele import EvolutionConfig, evolve, initial_dimer_state, sample_trajectory

    psi0 = initial_dimer_state(chain, sample_trajectory(protocol, 0.0), start_cell, "lower")
    record = evolve(chain, protocol, psi0, EvolutionConfig(store_states=False))
    return psi0, record.final_state


def compare_to_reference(chain, protocol, start_cell, checks, label) -> tuple[float, np.ndarray]:
    """Population deviation of evolve from DOP853; checks norm and tolerance."""
    from ricemele import cell_populations

    psi0, final = library_state(chain, protocol, start_cell)
    pops = cell_populations(final, chain)
    checks.add(f"{label}: populations sum to 1", abs(pops.sum() - 1.0) <= NORM_TOL, f"sum {pops.sum()!r}")
    err = float(np.max(np.abs(pops - reference_populations(chain, protocol, psi0))))
    checks.add(f"{label}: within {REF_TOL:g} of DOP853", err <= REF_TOL, f"deviation {err:.3e}")
    return err, final


def _cells(lo: float, hi: float, n: int, rng, log: bool = False) -> np.ndarray:
    """One seeded point inside each of n equal cells of [lo, hi]: strictly
    increasing, inside the interval, different for every seed."""
    if log:
        return np.exp(_cells(np.log(lo), np.log(hi), n, rng))
    edges = np.linspace(lo, hi, n + 1)
    return edges[:-1] + rng.uniform(0.05, 0.95, n) * np.diff(edges)


class ScanWorkload:
    """A single ``run_sweep`` call at jobs = 1 on a seeded grid."""

    name = ""

    def __init__(self, root: str, seed: int, smoke: bool):
        self.root, self.seed, self.smoke = root, seed, smoke
        self.first_values = None

    def prepare(self, inputs):
        pass

    def run(self, inputs):
        from ricemele import run_sweep

        return run_sweep(inputs["spec"])

    def describe(self, inputs) -> dict:
        spec = inputs["spec"]
        return {
            "kind": spec.kind,
            "spec": json.dumps(spec.to_dict(), sort_keys=True),
            "samples": [int(i) for i in inputs["samples"]],
            "anchors": [_floats(a) for a in inputs["anchors"]],
        }

    def check_result(self, result, inputs, checks) -> None:
        values = result.values
        checks.add("rows match the grid", values.shape[0] == inputs["rows"], f"{values.shape[0]} rows")
        checks.add("values finite", bool(np.all(np.isfinite(values))))
        if self.first_values is None:
            self.first_values = values.copy()
        else:
            checks.add("rerun identical", bool(np.array_equal(values, self.first_values)))


class OffsetPlateau(ScanWorkload):
    name = "offset_plateau"

    def build(self):
        from ricemele import TWO_PI, ChainSpec, PumpProtocol, SweepSpec

        rng = np.random.default_rng(self.seed)
        n = 3 if self.smoke else 61
        delta0 = TWO_PI * 6.0
        protocol = PumpProtocol("experimental", TWO_PI * 2.5, delta0, 0.0, 1.25, 2)
        offsets = _cells(-3.0 * delta0, 3.0 * delta0, n, rng)
        spec = SweepSpec("offset", ChainSpec(5), protocol,
                         {"delta0": np.array([delta0]), "delta_offset": offsets}, jobs=1)
        return {
            "spec": spec,
            "rows": n,
            "samples": rng.choice(n, size=1 if self.smoke else 2, replace=False),
            "anchors": [np.array([-0.5, 0.0, 0.5]) * delta0],
        }

    def _protocol(self, inputs, offset):
        from dataclasses import replace

        return replace(inputs["spec"].protocol, delta_offset=float(offset))

    def check_result(self, result, inputs, checks) -> None:
        super().check_result(result, inputs, checks)
        eff = result.values[:, 0]
        for k, e in enumerate(eff):
            checks.add(f"efficiency {k} in [0, 1]", 0.0 <= e <= 1.0, f"{e!r}")

    def verify(self, inputs, result, checks) -> tuple[float, float]:
        """Seeded grid points and fixed anchors against DOP853.

        Returns the largest population deviation on the anchors and on the
        seeded points."""
        from ricemele import cell_populations

        spec = inputs["spec"]
        offsets = spec.axes["delta_offset"]
        seeded = []
        for k in inputs["samples"]:
            label = f"offset point {k}"
            err, final = compare_to_reference(spec.chain, self._protocol(inputs, offsets[k]), 1, checks, label)
            pops = cell_populations(final, spec.chain)
            checks.add(f"{label}: sweep matches evolve",
                       abs(result.values[k, 0] - pops[2] / pops.sum()) <= 1e-12)
            seeded.append(err)
        anchored = [compare_to_reference(spec.chain, self._protocol(inputs, a), 1, checks, f"anchor {a!r}")[0]
                    for a in inputs["anchors"][0]]
        return max(anchored), max(seeded)


class PeriodScanN30(ScanWorkload):
    name = "period_scan_n30"

    def build(self):
        from ricemele import TWO_PI, ChainSpec, PumpProtocol, SweepSpec, predict_optimal_period

        rng = np.random.default_rng(self.seed)
        n = 1 if self.smoke else 9
        template = PumpProtocol("experimental", TWO_PI * 1.5, TWO_PI * 8.0, 0.0, 1.0, 2)
        t_pred = predict_optimal_period(template)
        periods = _cells(t_pred / 2.0, 2.0 * t_pred, n, rng, log=True)
        spec = SweepSpec("mean_position", ChainSpec(30), template, {"period": periods}, jobs=1)
        return {
            "spec": spec,
            "rows": n,
            "samples": rng.choice(n, size=1, replace=False),
            "anchors": [np.array([t_pred])],
        }

    def _protocol(self, inputs, period):
        from dataclasses import replace

        return replace(inputs["spec"].protocol, period=float(period))

    def check_result(self, result, inputs, checks) -> None:
        super().check_result(result, inputs, checks)
        chain = inputs["spec"].chain
        start = (chain.n_cells + 1) // 2
        for k, (shift, sigma) in enumerate(result.values):
            checks.add(f"period {k}: mean position on the chain",
                       1.0 <= start + shift <= chain.n_cells, f"shift {shift!r}")
            checks.add(f"period {k}: spread non-negative", sigma >= 0.0, f"sigma {sigma!r}")

    def verify(self, inputs, result, checks) -> tuple[float, float]:
        from ricemele import mean_position_and_spread

        spec = inputs["spec"]
        start = (spec.chain.n_cells + 1) // 2
        seeded = []
        for k in inputs["samples"]:
            label = f"period point {k}"
            protocol = self._protocol(inputs, spec.axes["period"][k])
            err, final = compare_to_reference(spec.chain, protocol, start, checks, label)
            mean, sigma = mean_position_and_spread(final, spec.chain)
            checks.add(f"{label}: sweep matches evolve",
                       bool(np.allclose(result.values[k], (mean - start, sigma), rtol=0.0, atol=1e-12)))
            seeded.append(err)
        anchored = [compare_to_reference(spec.chain, self._protocol(inputs, t), start, checks, f"anchor {t!r}")[0]
                    for t in inputs["anchors"][0]]
        return max(anchored), max(seeded)


class CliDemo:
    """Every shipped demo config through ``ricemele.cli.main`` in-process.

    The seed draws the readout weights and noise seed; seed 0 uses the
    files as shipped. Smoke mode coarsens the sweep step only.
    """

    name = "cli_demo"

    def __init__(self, root: str, seed: int, smoke: bool, workdir: str):
        self.root, self.seed, self.smoke, self.workdir = root, seed, smoke, workdir
        self.first_outputs = None

    def _config(self, name):
        with open(os.path.join(self.root, "demos", "configs", name), encoding="utf-8") as fh:
            return json.load(fh)

    def build(self):
        configs = {name: self._config(name + ".json") for name in (
            "simulate", "sweep_offset", "spectrum_excitation", "waveform_pump",
            "waveform_equal_coupling", "readout_synth", "stirap")}
        if self.seed != 0:
            rng = np.random.default_rng(self.seed)
            readout = configs["readout_synth"]["readout"]
            readout["weights"] = [float(w) for w in rng.dirichlet(np.ones(len(readout["weights"])))]
            readout["seed"] = int(rng.integers(0, 2**31 - 1))
        out = os.path.join(self.workdir, "out")
        configs["readout_decompose"] = {"readout": {
            **{k: v for k, v in configs["readout_synth"]["readout"].items() if k not in ("weights", "noise")},
            "trace_path": os.path.join(out, "readout_synth", "trace.csv")}}
        cfg_dir = os.path.join(self.workdir, "configs")
        os.makedirs(cfg_dir, exist_ok=True)
        paths = {}
        for name, payload in configs.items():
            paths[name] = os.path.join(cfg_dir, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)

        sweep_dt = ["--dt", "0.005"] if self.smoke else []
        commands = [
            ("simulate", "simulate", ["simulate"]),
            ("sweep_offset", "sweep_offset", ["--jobs", "2", *sweep_dt, "sweep", "offset"]),
            ("spectrum_excitation", "spectrum_excitation", ["spectrum", "excitation"]),
            ("spectrum_instantaneous", "spectrum_excitation", ["spectrum", "instantaneous"]),
            ("waveform_pump", "waveform_pump", ["waveform", "synth"]),
            ("waveform_equal_coupling", "waveform_equal_coupling", ["waveform", "synth"]),
            ("readout_synth", "readout_synth", ["readout", "synth"]),
            ("readout_decompose", "readout_decompose", ["readout", "decompose"]),
            ("stirap", "stirap", ["stirap"]),
            ("validate", "simulate", ["validate"]),
        ]
        argvs = [(label, ["--config", paths[cfg], "--out", os.path.join(out, label), *rest])
                 for label, cfg, rest in commands]
        serial = ["--config", paths["sweep_offset"], "--out", os.path.join(out, "sweep_offset_serial"),
                  "--jobs", "1", *sweep_dt, "sweep", "offset"]
        return {"configs": configs, "argvs": argvs, "serial_sweep": serial, "out": out}

    def describe(self, inputs) -> dict:
        rel = lambda argv: [os.path.relpath(a, self.workdir) if os.path.isabs(a) else a for a in argv]
        configs = copy.deepcopy(inputs["configs"])
        trace = configs["readout_decompose"]["readout"]
        trace["trace_path"] = os.path.relpath(trace["trace_path"], self.workdir)
        return {"configs": configs, "argvs": [(label, rel(argv)) for label, argv in inputs["argvs"]]}

    def prepare(self, inputs):
        """Empty the output tree before a run, outside the timed region."""
        shutil.rmtree(inputs["out"], ignore_errors=True)

    def run(self, inputs):
        from ricemele import cli

        results = []
        for label, argv in inputs["argvs"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(argv)
            results.append((label, code, buf.getvalue()))
        return results

    def _output_hashes(self, out):
        hashes = {}
        for dirpath, _, files in os.walk(out):
            for name in files:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    hashes[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
        return hashes

    def check_result(self, result, inputs, checks) -> None:
        for label, code, text in result:
            checks.add(f"{label} exits 0", code == 0, f"exit {code}: {text.strip()[-300:]}")
        out = inputs["out"]
        for label, parse in _PARSERS.items():
            try:
                parse(os.path.join(out, label), checks, label)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                checks.add(f"{label} output parses", False, repr(exc))
        validate = dict((label, text) for label, _, text in result)["validate"]
        checks.add("validate reports all checks passed", "checks passed" in validate, validate.strip()[-300:])
        hashes = self._output_hashes(out)
        if self.first_outputs is None:
            self.first_outputs = hashes
        else:
            changed = sorted(k for k in set(hashes) | set(self.first_outputs)
                             if hashes.get(k) != self.first_outputs.get(k))
            checks.add("rerun byte-identical", not changed, f"changed: {changed}")

    def verify(self, inputs, result, checks) -> tuple[float, float]:
        """jobs 1 against jobs 2, and the simulate output against DOP853.

        The simulate config does not depend on the seed, so its deviation
        is both the anchored and the seeded value."""
        from ricemele import cli, config, initial_dimer_state, sample_trajectory

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(inputs["serial_sweep"])
        checks.add("serial sweep exits 0", code == 0, f"exit {code}")
        out = inputs["out"]
        with open(os.path.join(out, "sweep_offset", "sweep_offset.csv"), "rb") as a, \
                open(os.path.join(out, "sweep_offset_serial", "sweep_offset.csv"), "rb") as b:
            checks.add("sweep offset CSV identical at --jobs 1 and 2", a.read() == b.read())

        cfg = inputs["configs"]["simulate"]
        chain, protocol = config.resolve_chain(cfg), config.resolve_protocol(cfg)
        start = int(cfg["simulate"]["start_cell"])
        psi0 = initial_dimer_state(chain, sample_trajectory(protocol, 0.0), start, cfg["simulate"]["branch"])
        with open(os.path.join(out, "simulate", "simulate.json"), encoding="utf-8") as fh:
            sites = np.asarray(json.load(fh)["final_site_populations"])
        pops = np.array([sum(sites[s - 1] for s in cell) for cell in chain.cells])
        err = float(np.max(np.abs(pops - reference_populations(chain, protocol, psi0))))
        checks.add(f"simulate within {REF_TOL:g} of DOP853", err <= REF_TOL, f"deviation {err:.3e}")
        return err, err


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        rows = [[float(x) for x in line.split(",")] for line in fh
                if line.strip() and not line.startswith("#") and not line[0].isalpha()]
    return np.asarray(rows)


def _unit_sum(values) -> bool:
    return abs(float(np.sum(values)) - 1.0) <= NORM_TOL


def _parse_simulate(d, checks, label):
    data = _load_json(os.path.join(d, "simulate.json"))
    checks.add(f"{label}: final populations sum to 1", _unit_sum(data["final_site_populations"]))
    checks.add(f"{label}: every stored population vector sums to 1",
               all(_unit_sum(row) for row in data["cell_populations"]))
    checks.add(f"{label}: efficiency in [0, 1]", 0.0 <= data["transfer_efficiency"] <= 1.0)


def _parse_sweep(d, checks, label):
    rows = _csv_rows(os.path.join(d, "sweep_offset.csv"))
    mirror = _load_json(os.path.join(d, "sweep_offset.json"))
    _load_json(os.path.join(d, "sweep_offset_config.json"))
    eff = rows[:, -1]
    checks.add(f"{label}: efficiencies in [0, 1]", bool(np.all((eff >= 0.0) & (eff <= 1.0))))
    checks.add(f"{label}: JSON mirrors CSV", mirror["values"] == [[v] for v in eff.tolist()])


def _parse_spectrum(name):
    def parse(d, checks, label):
        rows = _csv_rows(os.path.join(d, name))
        checks.add(f"{label}: rows finite", rows.size > 0 and bool(np.all(np.isfinite(rows))))
    return parse


def _parse_waveform(d, checks, label):
    from ricemele import rfwave

    meta = _load_json(os.path.join(d, "waveform.json"))
    buffer = rfwave.read_waveform_binary(os.path.join(d, "waveform.bin"))
    checks.add(f"{label}: binary length matches", len(buffer.samples) == meta["n_samples"])
    checks.add(f"{label}: codes within full scale",
               int(np.max(np.abs(buffer.samples))) == 2 ** (meta["bits"] - 1) - 1)


def _parse_readout_synth(d, checks, label):
    rows = _csv_rows(os.path.join(d, "trace.csv"))
    _load_json(os.path.join(d, "trace_config.json"))
    checks.add(f"{label}: trace non-negative", rows.size > 0 and bool(np.all(rows[:, 1] >= 0.0)))


def _parse_readout_decompose(d, checks, label):
    data = _load_json(os.path.join(d, "weights.json"))
    weights = np.asarray(data["weights"])
    checks.add(f"{label}: weights non-negative and normalized",
               bool(np.all(weights >= 0.0)) and _unit_sum(weights))


def _parse_stirap(d, checks, label):
    data = _load_json(os.path.join(d, "stirap.json"))
    checks.add(f"{label}: final populations sum to 1", _unit_sum(data["final_populations"]))


_PARSERS = {
    "simulate": _parse_simulate,
    "sweep_offset": _parse_sweep,
    "spectrum_excitation": _parse_spectrum("spectrum_excitation.csv"),
    "spectrum_instantaneous": _parse_spectrum("spectrum_instantaneous.csv"),
    "waveform_pump": _parse_waveform,
    "waveform_equal_coupling": _parse_waveform,
    "readout_synth": _parse_readout_synth,
    "readout_decompose": _parse_readout_decompose,
    "stirap": _parse_stirap,
}
