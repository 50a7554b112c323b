"""ricemele benchmark: three workloads through the public API, one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload offset_plateau --seed 0 --seconds 34 --trace 0

Workloads (see ``bench/workloads.py``):

- ``offset_plateau``: offset scan, N = 5, 61 seeded offsets, jobs = 1.
  The per-step Python loop dominates.
- ``period_scan_n30``: mean-position scan, N = 30, 9 seeded periods,
  jobs = 1. Eigendecomposition dominates.
- ``cli_demo``: every shipped demo config through ``ricemele.cli.main``,
  including ``sweep offset --jobs 2``, the only process-pool path.

``--trace 0`` prints the end-to-end metrics (setup_s, wall_norm,
cpu_norm, peak_rss_mb, ref_err); ``--trace 1`` prints the per-layer
metrics of a traced run and the tracing overhead. Either way the last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give raw times, quartiles,
sample counts, failed checks and the environment (git sha, CPU,
numpy/scipy/BLAS versions and the BLAS thread variables, which the
benchmark records and never sets).

Times on a shared host drift by tens of percent with other tenants' load,
so each timed run is bracketed by bursts of a fixed numpy kernel
(``bench/gauge.py``). ``wall_norm`` and ``cpu_norm`` are the medians over
the run of each run's wall and CPU time divided by the mean wall time of
the two bursts around it: the workload's time in units of the gauge's
time on the same machine at the same moment. The raw seconds are printed
beside them. ``setup_s`` is the median of fresh-interpreter set-ups spread
over the measuring time.

``--smoke`` runs a reduced-size version for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("offset_plateau", "period_scan_n30", "cli_demo")
SETUP_REPEATS = 3
MIN_RUNS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_norm", "gauge"),
    ("cpu_norm", "gauge"),
    ("peak_rss_mb", "MB"),
    ("ref_err", "population"),
)

# (metric, key in Tracer.run_values, unit). Self times are per run, in s.
PER_LAYER = (
    ("evolution.evolve.calls", "evolution.evolve.calls", "count"),
    ("evolution.steps", "evolution.steps", "count"),
    ("evolution.step_loop_s", "evolution.evolve.self_s", "s"),
    ("evolution.eigh_s", "evolution.eigh_s", "s"),
    ("evolution.eigh_matrices", "evolution.eigh_matrices", "count"),
    ("evolution.eigh_unique_frac", None, "ratio"),
    ("evolution.cell_populations.calls", "evolution.cell_populations.calls", "count"),
    ("evolution.cell_populations.self_s", "evolution.cell_populations.self_s", "s"),
    ("evolution.stirap_sequence.self_s", "evolution.stirap_sequence.self_s", "s"),
    ("model.build_hamiltonians.self_s", "model.build_hamiltonians.self_s", "s"),
    ("model.hamiltonians", "model.hamiltonians", "count"),
    ("protocols.sample_trajectory.calls", "protocols.sample_trajectory.calls", "count"),
    ("protocols.sample_trajectory.self_s", "protocols.sample_trajectory.self_s", "s"),
    ("protocols.winding_number.self_s", "protocols.winding_number.self_s", "s"),
    ("spectrum.predict_optimal_period.self_s", "spectrum.predict_optimal_period.self_s", "s"),
    ("spectrum.max_band_width.calls", "spectrum.max_band_width.calls", "count"),
    ("spectrum.excitation_spectrum.self_s", "spectrum.excitation_spectrum.self_s", "s"),
    ("spectrum.instantaneous_spectrum.self_s", "spectrum.instantaneous_spectrum.self_s", "s"),
    ("sweeps.run_sweep.self_s", "sweeps.run_sweep.self_s", "s"),
    ("sweeps.worker_cpu_s", "sweeps.worker_cpu_s", "s"),
    ("sweeps.rows", "sweeps.rows", "count"),
    ("sweeps.write_s", "sweeps.write.self_s", "s"),
    ("rfwave.synthesize_waveform.self_s", "rfwave.synthesize_waveform.self_s", "s"),
    ("rfwave.samples", "rfwave.samples", "count"),
    ("rfwave.spectral_purity_table.self_s", "rfwave.spectral_purity_table.self_s", "s"),
    ("rfwave.write_waveform_binary.self_s", "rfwave.write_waveform_binary.self_s", "s"),
    ("readout.make_basis.self_s", "readout.make_basis.self_s", "s"),
    ("readout.synthesize_trace.self_s", "readout.synthesize_trace.self_s", "s"),
    ("readout.decompose_trace.self_s", "readout.decompose_trace.self_s", "s"),
    ("readout.read_trace_csv.self_s", "readout.read_trace_csv.self_s", "s"),
    ("config.load_config.self_s", "config.load_config.self_s", "s"),
    ("config.canonical_json.self_s", "config.canonical_json.self_s", "s"),
    *((f"cli.main.{c}.self_s", f"cli.main.{c}.self_s", "s")
      for c in ("simulate", "sweep", "spectrum", "waveform", "readout", "stirap", "validate")),
    ("cli.bytes_written", "cli.bytes_written", "B"),
    ("trace.overhead_s", None, "s"),
    ("check.ref_err_seeded", None, "population"),
)

POOL_NOTE = ("spans inside process-pool workers cannot be seen from outside; "
             "their CPU time is sweeps.worker_cpu_s, taken from RUSAGE_CHILDREN")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced-size inputs for self-tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(name, seed, smoke, workdir):
    from bench import workloads

    if name == "cli_demo":
        return workloads.CliDemo(ROOT, seed, smoke, workdir)
    cls = workloads.OffsetPlateau if name == "offset_plateau" else workloads.PeriodScanN30
    return cls(ROOT, seed, smoke)


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def setup_probe(args) -> int:
    """Import ricemele and build the inputs in this fresh interpreter."""
    import ricemele  # noqa: F401  (the import is what is measured)
    from bench.workloads import digest

    workload = make_workload(args.workload, args.seed, args.smoke,
                             _fresh_dir(os.path.join(ROOT, ".bench_work", args.workload + "-probe")))
    print(digest(workload.describe(workload.build())))
    return 0


def setup_probe_time(args):
    """Wall time and input digest of one fresh-interpreter setup probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stdout.strip().splitlines()[-1]


def cpu_s() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Sample:
    """One timed run, with the mean wall time of the gauge bursts around it."""

    wall: float
    cpu: float
    gauge: float


def timed_runs(workload, inputs, seconds, min_runs, checks, gauge, before_run=None, probe=None):
    """Run the workload at least ``min_runs`` times, then as long as one more
    iteration of median length ends closer to ``seconds`` than stopping
    now would. A gauge burst precedes the first run and follows every run;
    ``probe``, if given, is called before each run and counts against
    ``seconds``. Returns [Sample] and the last result."""
    samples, result, iterations = [], None, []
    start = time.perf_counter()
    before = gauge.burst()
    while len(samples) < min_runs or (
            time.perf_counter() - start + statistics.median(iterations) / 2 <= seconds):
        t_iter = time.perf_counter()
        if probe:
            probe()
        run_inputs = before_run(len(samples)) if before_run else inputs
        workload.prepare(run_inputs)
        cpu0, t0 = cpu_s(), time.perf_counter()
        try:
            out = workload.run(run_inputs)
        except Exception as exc:  # noqa: BLE001 - a failed run is reported, not raised
            checks.add(f"{workload.name} run", False, repr(exc))
            break
        wall, cpu = time.perf_counter() - t0, cpu_s() - cpu0
        workload.check_result(out, run_inputs, checks)
        after = gauge.burst()
        samples.append(Sample(wall, cpu, (before + after) / 2))
        before, result = after, out
        iterations.append(time.perf_counter() - t_iter)
    return samples, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True).stdout.split()
        sha = top[1] if os.path.realpath(top[0]) == os.path.realpath(ROOT) else None
    except (OSError, subprocess.SubprocessError, IndexError):
        sha = None
    src = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(os.path.join(SRC, "ricemele"))):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu_model = models[0] if models else cpu_model
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def _stop_resource_tracker():
    """Stop and reap the helper process multiprocessing starts for the pool."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def layer_metrics(tracer, run_ids, untraced_wall, traced_wall, ref_err_seeded):
    from bench.tracing import median_over_runs

    per_run = [tracer.run_values(run_id) for run_id in run_ids]
    for values in per_run:
        matrices = values.get("evolution.eigh_matrices", 0)
        values["evolution.eigh_unique_frac"] = values.get("evolution.eigh_unique", 0) / matrices if matrices else 0.0
    keys = [key or name for name, key, _ in PER_LAYER]
    medians = median_over_runs(per_run, keys)
    metrics = {name: {"value": medians[key or name], "unit": unit} for name, key, unit in PER_LAYER}
    metrics["trace.overhead_s"]["value"] = statistics.median(traced_wall) - statistics.median(untraced_wall)
    metrics["check.ref_err_seeded"]["value"] = ref_err_seeded
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ricemele", "__init__.py")):
        print(f"error: no ricemele sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import ricemele

    if not os.path.realpath(ricemele.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: imported ricemele from {ricemele.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    from bench.gauge import Gauge
    from bench.tracing import Tracer
    from bench.workloads import Checks, digest

    checks = Checks()
    workdir = _fresh_dir(os.path.join(ROOT, ".bench_work", args.workload))
    setup_times, probe_digests = [], []
    setup_repeats = 1 if args.smoke else SETUP_REPEATS

    def probe():
        if len(setup_times) < setup_repeats:
            elapsed, probe_digest = setup_probe_time(args)
            setup_times.append(elapsed)
            probe_digests.append(probe_digest)

    try:
        workload = make_workload(args.workload, args.seed, args.smoke, workdir)
        inputs = workload.build()
        gauge = Gauge()

        min_runs = 1 if args.trace else (2 if args.smoke else MIN_RUNS)
        budget = args.seconds / 2 if args.trace else args.seconds
        samples, result = timed_runs(workload, inputs, budget, min_runs, checks, gauge, probe=probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup_times) < setup_repeats:
            probe()
        checks.add("seeded inputs byte-identical across processes",
                   set(probe_digests) == {digest(workload.describe(inputs))})

        traced, tracer = [], Tracer()
        if args.trace and result is not None:
            tracer.install()
            try:
                def traced_inputs(k):
                    tracer.begin_run(f"run-{k}")
                    return workload.build()

                traced, traced_result = timed_runs(workload, inputs, budget, 1, checks, gauge, traced_inputs)
            finally:
                tracer.uninstall()
            result = traced_result or result

        ref_err, ref_err_seeded = (1.0, 1.0) if result is None else workload.verify(inputs, result, checks)
    finally:
        _stop_resource_tracker()

    for failure in checks.failures[:20]:
        print(f"FAILED {failure}")
    if not samples or (args.trace and not traced):
        print("error: no run of the workload completed", file=sys.stderr)
        return 1
    walls = [s.wall for s in samples]
    wall_norm = [s.wall / s.gauge for s in samples]
    cpu_norm = [s.cpu / s.gauge for s in samples]
    q1, wall_median, q3 = quartiles(walls)
    n1, norm_median, n3 = quartiles(wall_norm)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} smoke {int(args.smoke)}")
    print(f"wall_s median {wall_median:.4f} q1 {q1:.4f} q3 {q3:.4f} min {min(walls):.4f} n {len(samples)}; "
          f"cpu_s median {statistics.median(s.cpu for s in samples):.4f}; "
          f"gauge burst wall_s median {statistics.median(s.gauge for s in samples):.4f}")
    print(f"wall_norm median {norm_median:.4f} q1 {n1:.4f} q3 {n3:.4f}; "
          f"cpu_norm median {statistics.median(cpu_norm):.4f}; setup_s {[round(t, 4) for t in setup_times]}")
    print(f"ref_err {ref_err:.3e} (fixed anchors), {ref_err_seeded:.3e} (seeded points); "
          f"failed_frac {len(checks.failures) / max(checks.attempted, 1):.6g} "
          f"({len(checks.failures)} of {checks.attempted} checks)")
    print("environment " + json.dumps(environment(), sort_keys=True))

    if args.trace:
        traced_walls = [s.wall for s in traced]
        metrics = layer_metrics(tracer, [f"run-{k}" for k in range(len(traced))],
                                walls, traced_walls, ref_err_seeded)
        spans = os.path.join(workdir, "spans.jsonl")
        tracer.write(spans)
        print(f"traced wall_s median {statistics.median(traced_walls):.4f} n {len(traced)}; "
              f"{len(tracer.spans)} spans in {os.path.relpath(spans, ROOT)}; {POOL_NOTE}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_norm": norm_median,
            "cpu_norm": statistics.median(cpu_norm),
            "peak_rss_mb": peak_rss_mb,
            "ref_err": ref_err,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
