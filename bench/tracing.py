"""In-memory span tracer that instruments ricemele from outside the package.

Each traced function is replaced by a wrapper in every ``ricemele`` module
that bound it (the package imports names with ``from . import``, so a
function can live under several module attributes). ``numpy.linalg.eigh``
is wrapped too and is attributed to the evolution layer when one of its
ancestor spans belongs to that layer.

A span records name, start, end, parent and run id. Spans stay in memory
until the run ends, when they are written out and reduced to self times
(duration minus the time covered by direct child spans) and counts.

Spans inside process-pool workers cannot be seen from here: the workers
start from a fresh import of the unpatched package. Their CPU time is
taken from ``RUSAGE_CHILDREN`` around ``run_sweep`` instead.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

EIGH_ROUNDING = 1e-9
BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _cli_command(argv) -> str:
    """Subcommand named in a ``cli.main`` argument list."""
    from ricemele import cli

    commands = set(cli._COMMANDS)
    skip = False
    for token in argv or ():
        if skip:
            skip = False
        elif token.startswith("--"):
            skip = "=" not in token
        elif token in commands:
            return token
    return "unknown"


def _cli_out_dir(argv) -> str | None:
    argv = list(argv or ())
    for i, token in enumerate(argv[:-1]):
        if token == "--out":
            return argv[i + 1]
    return None


class Tracer:
    """Collects spans and counters for one benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = {}
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._eigh_keys: set[int] = set()

    # -- spans and counters -------------------------------------------------

    def begin_run(self, run_id: str) -> None:
        self.run_id = run_id
        self.counts.setdefault(run_id, Counter())
        self._eigh_keys = set()

    def count(self, key: str, amount: float) -> None:
        self.counts.setdefault(self.run_id, Counter())[key] += amount

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _inside(self, prefix: str) -> bool:
        return any(self.spans[i].name.startswith(prefix) for i in self._stack)

    # -- instrumentation ----------------------------------------------------

    def _wrap(self, fn, name, after=None):
        """Wrap fn in a span; ``after(args, kwargs, result)`` runs as a
        bookkeeping child so its cost is not charged to the parent."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            index = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                book = self._open(BOOKKEEPING)
                try:
                    after(args, kwargs, result)
                finally:
                    self._close(book)
            return result

        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every ricemele module attribute that is ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "ricemele" or mod_name.startswith("ricemele.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced layer function. Undo with ``uninstall``."""
        from ricemele import config, evolution, model, protocols, readout, rfwave, spectrum, sweeps, cli

        def on_evolve(args, kwargs, record):
            self.count("evolution.steps", int(round(record.protocol.duration / record.dt)))

        def on_stirap(args, kwargs, record):
            self.count("evolution.steps", len(record.times) - 1)

        def on_hamiltonians(args, kwargs, h):
            self.count("model.hamiltonians", h.shape[0])

        def on_samples(args, kwargs, buffer):
            self.count("rfwave.samples", len(buffer.samples))

        def on_main(args, kwargs, code):
            out = _cli_out_dir(args[0] if args else kwargs.get("argv"))
            if out and os.path.isdir(out):
                self.count("cli.bytes_written", sum(
                    entry.stat().st_size for entry in os.scandir(out) if entry.is_file()))

        targets = [
            (evolution, "evolve", "evolution.evolve", on_evolve),
            (evolution, "cell_populations", "evolution.cell_populations", None),
            (evolution, "stirap_sequence", "evolution.stirap_sequence", on_stirap),
            (model, "build_hamiltonians", "model.build_hamiltonians", on_hamiltonians),
            (protocols, "sample_trajectory", "protocols.sample_trajectory", None),
            (protocols, "winding_number", "protocols.winding_number", None),
            (spectrum, "predict_optimal_period", "spectrum.predict_optimal_period", None),
            (spectrum, "max_band_width", "spectrum.max_band_width", None),
            (spectrum, "excitation_spectrum", "spectrum.excitation_spectrum", None),
            (spectrum, "instantaneous_spectrum", "spectrum.instantaneous_spectrum", None),
            (sweeps, "write_sweep_csv", "sweeps.write", None),
            (sweeps, "write_sweep_json", "sweeps.write", None),
            (rfwave, "synthesize_waveform", "rfwave.synthesize_waveform", on_samples),
            (rfwave, "spectral_purity_table", "rfwave.spectral_purity_table", None),
            (rfwave, "write_waveform_binary", "rfwave.write_waveform_binary", None),
            (readout, "make_basis", "readout.make_basis", None),
            (readout, "synthesize_trace", "readout.synthesize_trace", None),
            (readout, "decompose_trace", "readout.decompose_trace", None),
            (readout, "read_trace_csv", "readout.read_trace_csv", None),
            (config, "load_config", "config.load_config", None),
            (config, "canonical_json", "config.canonical_json", None),
        ]
        for module, attr, span_name, after in targets:
            original = getattr(module, attr)
            self._replace_everywhere(original, self._wrap(original, span_name, after))

        self._replace_everywhere(sweeps.run_sweep, self._wrap_run_sweep(sweeps.run_sweep))
        main = self._wrap(
            cli.main,
            lambda args, kwargs: "cli.main." + _cli_command(args[0] if args else kwargs.get("argv")),
            on_main,
        )
        self._replace_everywhere(cli.main, main)
        self._wrap_eigh()

    def _wrap_run_sweep(self, run_sweep):
        wrapped = self._wrap(run_sweep, "sweeps.run_sweep",
                             lambda a, k, result: self.count("sweeps.rows", result.values.shape[0]))

        @functools.wraps(run_sweep)
        def with_worker_cpu(*args, **kwargs):
            before = _children_cpu_s()
            try:
                return wrapped(*args, **kwargs)
            finally:
                self.count("sweeps.worker_cpu_s", _children_cpu_s() - before)

        return with_worker_cpu

    def _wrap_eigh(self) -> None:
        linalg = np.linalg
        original = linalg.eigh

        def after(args, kwargs, result):
            if not self._inside("evolution."):
                return
            h = np.asarray(args[0] if args else kwargs["a"])
            stack = h.reshape(-1, h.shape[-2] * h.shape[-1])
            self.count("evolution.eigh_matrices", stack.shape[0])
            rounded = np.rint(stack.real / EIGH_ROUNDING).astype(np.int64)
            if np.iscomplexobj(stack):
                rounded = np.concatenate([rounded, np.rint(stack.imag / EIGH_ROUNDING).astype(np.int64)], axis=1)
            before = len(self._eigh_keys)
            self._eigh_keys.update(hash(row.tobytes()) for row in rounded)
            self.count("evolution.eigh_unique", len(self._eigh_keys) - before)

        wrapper = self._wrap(original, "numpy.linalg.eigh", after)
        self._patches.append((linalg, "eigh", original))
        linalg.eigh = wrapper

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def unpatched_bindings(self) -> list[str]:
        """``module.attr`` names still bound to an original traced function."""
        originals = {id(orig) for _, _, orig in self._patches}
        missing = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "ricemele" or mod_name.startswith("ricemele.")):
                continue
            for attr, value in vars(module).items():
                if id(value) in originals:
                    missing.append(f"{mod_name}.{attr}")
        return missing

    # -- reduction ----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    def run_values(self, run_id: str) -> dict[str, float]:
        """Self times, call counts and counters of one run, by metric name."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.run_id == run_id]
        child_time = Counter()
        for _, s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        values = Counter()
        for i, s in spans:
            values[s.name + ".self_s"] += (s.end - s.start) - child_time[i]
            values[s.name + ".calls"] += 1
            if s.name == "numpy.linalg.eigh" and self._has_ancestor(s, "evolution."):
                values["evolution.eigh_s"] += s.end - s.start
        values.update(self.counts.get(run_id, Counter()))
        return dict(values)

    def _has_ancestor(self, span: Span, prefix: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name.startswith(prefix):
                return True
            parent = self.spans[parent].parent
        return False


def median_over_runs(per_run: list[dict[str, float]], names) -> dict[str, float]:
    """Median of each metric over runs; a metric absent from a run counts as 0."""
    return {name: statistics.median(run.get(name, 0.0) for run in per_run) for name in names}
