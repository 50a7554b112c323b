"""Run the same CLI commands under two source trees and diff all they produce.

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE

Each tree runs every demos/configs/*.json command (configs read from
NEW_TREE), `spectrum instantaneous` on the spectrum config, `readout
decompose` of the trace its own `readout synth` run wrote, `waveform
synth` on waveform_pump.json with "csv_dump": true (the one case that
writes waveform.csv), `simulate` and `validate` with no config, `sweep
offset` with no config at --dt 0.005, `sweep size` and `sweep
mean_position` with no config at --dt 0.01, and `sweep period_delta`,
`protocol_compare` and `topt_collapse` on the small grids of
SMALL_SWEEPS at --dt 0.01, so every sweep kind runs, each sweep
at --jobs 1, 2 and 3; all write under the same --out path so
printed paths agree. Each tree also runs every demos/*.py script of
NEW_TREE, each in its own empty folder, and its stdout and the files it
writes to demo_out/ are compared the same way; the demos reach library
paths that no CLI command does.
Exit codes, stdout, stderr and output files are compared byte for byte; a
differing JSON file names its differing keys, and a differing CSV or JSON
file gives the largest absolute difference between numbers at the same
place in both. Within NEW_TREE, each sweep's files at --jobs 2 and 3 must
equal its files at --jobs 1; --jobs 3 cuts a sweep of several schedules
into unequal parts where their number is not a multiple of three. Exits 1
on any difference.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

SECTIONS = ("simulate", "sweep", "spectrum", "waveform", "readout", "stirap")
# sweep sections, in file units, of the kinds that no demo config or default run covers
SMALL_SWEEPS = {
    "period_delta": {"period_us": [0.5, 1.0, 1.5], "delta0_mhz": [4.0, 7.0]},
    "protocol_compare": {"period_us": [0.5, 1.0, 2.0]},
    "topt_collapse": {"j_max_mhz": [1.5], "delta0_mhz": [5.0, 7.0]},
}


def cases(configs, work, out):
    for name in sorted(n for n in os.listdir(configs) if n.endswith(".json")):
        path = os.path.join(configs, name)
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        command, stem = next(s for s in SECTIONS if s in cfg), name[:-5]
        # the argument after the command: the sweep kind, synth, or the file name's suffix
        action = (cfg["sweep"]["kind"] if command == "sweep" else "synth" if command == "waveform"
                  else stem.partition("_")[2])
        yield stem, ["--config", path, command] + ([action] if action else [])
        if stem == "spectrum_excitation":
            yield "spectrum_instantaneous", ["--config", path, "spectrum", "instantaneous"]
        if stem == "readout_synth":
            decompose = os.path.join(work, "readout_decompose.json")
            trace = os.path.join(out, stem, "trace.csv")
            with open(decompose, "w", encoding="utf-8") as fh:
                json.dump({"readout": {**cfg["readout"], "trace_path": trace}}, fh)
            yield "readout_decompose", ["--config", decompose, "readout", "decompose"]
        if stem == "waveform_pump":
            dump = os.path.join(work, "waveform_csv_dump.json")
            with open(dump, "w", encoding="utf-8") as fh:
                json.dump({**cfg, "waveform": {**cfg["waveform"], "csv_dump": True}}, fh)
            yield "waveform_csv_dump", ["--config", dump, "waveform", "synth"]
    yield "simulate_no_config", ["simulate"]
    yield "validate_no_config", ["validate"]
    sweeps = [("sweep_offset", ["--dt", "0.005", "sweep", "offset"])]
    sweeps += [(f"sweep_{kind}", ["--dt", "0.01", "sweep", kind]) for kind in ("size", "mean_position")]
    for kind, values in SMALL_SWEEPS.items():
        path = os.path.join(work, f"sweep_{kind}_small.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"sweep": {"kind": kind, **values}}, fh)
        sweeps.append((f"sweep_{kind}_small", ["--config", path, "--dt", "0.01", "sweep", kind]))
    for label, argv in sweeps:
        for jobs in ("1", "2", "3"):
            yield f"{label}_jobs{jobs}", ["--jobs", jobs, *argv]


def read_files(folder):
    """{file name: bytes} of every file in folder, {} when it does not exist."""
    files = {}
    for name in sorted(os.listdir(folder)) if os.path.isdir(folder) else ():
        with open(os.path.join(folder, name), "rb") as fh:
            files[name] = fh.read()
    return files


def run(tree, configs, out):
    """{case: (exit code, stdout, stderr, {file name: bytes})} for one tree; removes out."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(tree), "src")}
    work = os.path.dirname(out)
    results = {}
    for label, argv in cases(configs, work, out):
        folder = os.path.join(out, label)
        proc = subprocess.run([sys.executable, "-m", "ricemele.cli", "--out", folder, *argv],
                              capture_output=True, env=env, cwd=work)
        results[label] = (proc.returncode, proc.stdout, proc.stderr, read_files(folder))
    demos = os.path.dirname(configs)
    for name in sorted(n for n in os.listdir(demos) if n.endswith(".py")):
        label = f"demo_{name[:-3]}"
        folder = os.path.join(out, label)
        os.makedirs(folder)
        proc = subprocess.run([sys.executable, os.path.join(demos, name)], capture_output=True, env=env, cwd=folder)
        results[label] = (proc.returncode, proc.stdout, proc.stderr, read_files(os.path.join(folder, "demo_out")))
    shutil.rmtree(out, ignore_errors=True)
    return results


def differing_keys(a, b, path=""):
    if isinstance(a, dict) and isinstance(b, dict):
        return [k for key in sorted(set(a) | set(b)) for k in differing_keys(a.get(key), b.get(key), f"{path}.{key}")]
    return [] if a == b else [path.lstrip(".") or "(whole file)"]


def numbers(data, name):
    """{place: value} of every number in a JSON or CSV file."""
    if name.endswith(".json"):
        def leaves(x, place):
            if isinstance(x, (dict, list)):
                for key, item in x.items() if isinstance(x, dict) else enumerate(x):
                    yield from leaves(item, place + (key,))
            elif isinstance(x, (int, float)) and not isinstance(x, bool):
                yield place, float(x)
        return dict(leaves(json.loads(data), ()))
    found = {}
    for row, line in enumerate(data.decode().splitlines()):
        for col, field in enumerate(re.split(r"[,:\s]+", line)):
            try:
                found[row, col] = float(field)
            except ValueError:
                pass
    return found


def largest_difference(a, b, name):
    x, y = numbers(a, name), numbers(b, name)
    return max((abs(x[k] - y[k]) for k in x.keys() & y.keys()), default=0.0)


def main(old, new):
    configs = os.path.join(os.path.abspath(new), "demos", "configs")
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as work:
        before, after = (run(tree, configs, os.path.join(work, "out")) for tree in (old, new))
    diffs = []
    for label, now in after.items():
        was = before[label]
        print(f"{label}: exit {was[0]} -> {now[0]}, files {len(was[3])} -> {len(now[3])}")
        diffs += [f"{label}: {what} differs" for what, i in (("exit code", 0), ("stdout", 1), ("stderr", 2))
                  if was[i] != now[i]]
        for name in sorted(set(was[3]) | set(now[3])):
            a, b = was[3].get(name), now[3].get(name)
            if a is None or b is None:
                diffs.append(f"{label}/{name}: written by one tree only")
            elif a != b:
                keys = differing_keys(json.loads(a), json.loads(b)) if name.endswith(".json") else []
                largest = (f", largest numeric difference {largest_difference(a, b, name):.3g}"
                           if name.endswith((".json", ".csv")) else "")
                diffs.append(f"{label}/{name}: differs" + (f" at {', '.join(keys)}" if keys else "") + largest)
    diffs += [f"{label}: files differ from {label[:-1]}1" for label, now in after.items()
              if label.endswith(("_jobs2", "_jobs3")) and now[3] != after[label[:-1] + "1"][3]]
    print("\n".join(diffs) or "no differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]) if len(sys.argv) == 3 else __doc__)
