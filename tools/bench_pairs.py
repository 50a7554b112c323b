"""Benchmark two source trees in alternating pairs and write BENCH_<label>.json.

    python3 tools/bench_pairs.py OLD_TREE NEW_TREE --workload W [--workload W ...]
        --pairs N --label LABEL [--seed 0] [--parent NAME] [--claim W:METRIC]

For each workload in turn, pair k runs

    python3 bench/run.py --workload W --seed SEED+k --seconds S --trace 0

once in each tree, each tree with its own bench/ and src/, for the
run_seconds S that NEW_TREE's BENCHMARK.json sets. OLD_TREE runs
first in even pairs and NEW_TREE in odd ones, so a drift of the machine's
speed does not favour one side. Each side's end-to-end metrics and its
failed checks are recorded per pair, in the order the pairs ran. The
summary of each metric gives both sides' median and quartiles and the
pairs in which NEW_TREE is better and worse, by the direction that
NEW_TREE's BENCHMARK.json declares. --claim W:METRIC adds one sentence
that states the claim on that metric with the parent's interquartile
range. The file goes to the current directory, in the layout of the
committed BENCH_*.json files. Exits 1 if any run fails or fails a check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=0, help="the seed of the first pair; pair k uses SEED + k")
    parser.add_argument("--parent", help="how to name OLD_TREE in the file (default: its git sha, if any)")
    parser.add_argument("--claim", action="append", default=[], metavar="W:METRIC")
    return parser.parse_args(argv)


def run_side(tree, workload, seed, seconds):
    """One bench/run.py run in tree: (metrics and failed checks, environment)."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    environment = next(json.loads(line.partition(" ")[2]) for line in lines if line.startswith("environment "))
    side = {name: metric["value"] for name, metric in result["metrics"].items()}
    side["failed_checks"] = f"{result['failed']} of {result['attempted']}"
    return side, environment


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs, metrics):
    """Per metric: each side's median and quartiles, and the pairs that NEW_TREE wins and loses."""
    summary = {}
    for name, better in metrics.items():
        sign = 1 if better == "lower" else -1
        sides = {side: [pair[side][name] for pair in pairs] for side in ("parent", "change")}
        gains = [sign * (pair["parent"][name] - pair["change"][name]) for pair in pairs]
        summary[name] = {
            **{side: dict(zip(("q1", "median", "q3"), quartiles(values))) for side, values in sides.items()},
            "change_better_in": f"{sum(g > 0 for g in gains)} of {len(pairs)}",
            "change_worse_in": f"{sum(g < 0 for g in gains)} of {len(pairs)}",
        }
    return summary


def claim_sentence(workload, name, record, better):
    s = record["summary"][name]
    old, new = s["parent"], s["change"]
    return (f"{workload} {name}: {better} in {s['change_better_in']} pairs, median {old['median']:.3f} "
            f"(q1 {old['q1']:.3f}, q3 {old['q3']:.3f}) -> {new['median']:.3f} ({new['q1']:.3f}, {new['q3']:.3f}), "
            f"a change of {abs(new['median'] - old['median']):.3f} against the parent's interquartile range of "
            f"{old['q3'] - old['q1']:.3f}")


def git_sha(tree):
    try:
        return subprocess.run(["git", "-C", tree, "rev-parse", "--short", "HEAD"], capture_output=True,
                              text=True, check=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": os.path.abspath(args.old_tree), "change": os.path.abspath(args.new_tree)}
    with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    out = {
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "method": ("alternating pairs: within each workload the side that runs first alternates from pair to "
                   "pair (see each pair's 'first'); each side runs from its own copy of its source tree; pairs "
                   "are listed in the order they ran"),
        "parent": args.parent or git_sha(trees["parent"]),
        "workloads": {},
        "environment": {},
    }
    failed = False
    for workload in args.workload:
        pairs = []
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side], out["environment"][side] = run_side(trees[side], workload, seed, seconds)
                failed |= not pair[side]["failed_checks"].startswith("0 of ")
            pairs.append(pair)
            print(f"{workload} pair {k + 1}/{args.pairs}: "
                  + ", ".join(f"{side} wall_norm {pair[side]['wall_norm']:.4f}" for side in order), flush=True)
        out["workloads"][workload] = {
            "pairs": pairs,
            "summary": summarize(pairs, metrics),
            "failed_checks": {side: f"{sum(int(p[side]['failed_checks'].split()[0]) for p in pairs)} of "
                                    f"{sum(int(p[side]['failed_checks'].split()[-1]) for p in pairs)}"
                              for side in ("parent", "change")},
        }
    claims = []
    for item in args.claim:
        workload, _, name = item.partition(":")
        claims.append(claim_sentence(workload, name, out["workloads"][workload], metrics[name]))
    if claims:
        out["claim"] = "; ".join(claims)
    path = f"BENCH_{args.label}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(path)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
