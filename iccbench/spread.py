"""Repeat the benchmark over seeds and report each metric's run-to-run spread.

    python3 iccbench/spread.py --workload exact-small --seeds 0-9 [--sets 2]

Runs ``iccbench/run.py`` once per seed, one run at a time, with the
command and ``run_seconds`` from BENCHMARK.json.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles``,
n=4) and the spread, (q3 - q1) / median, next to the metric's bound.
With ``--sets 2`` the seeds run twice and the second set's median is
compared with the first's.  Exit status 1 when a spread (setup_s
excepted) exceeds its bound or a second median is worse than the first
by more than the bound.  iccbench/README.md lists the spreads the
bounds in BENCHMARK.json were set from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"])]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"seed {seed}: run exited {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,7")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    sets = []
    for s in range(args.sets):
        values: dict[str, list[float]] = {name: [] for name in metrics}
        for seed in seeds:
            out = run_once(bench, args.workload, seed)
            if not out["correct"]:
                print(f"set {s + 1} seed {seed}: {out['failed']} of {out['attempted']} operations failed")
            for name in metrics:
                values[name].append(out["metrics"][name]["value"])
            print(f"set {s + 1} seed {seed}: " + "  ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        sets.append(values)

    ok = True
    report = {"workload": args.workload, "seeds": seeds, "sets": []}
    print(f"\n{'metric':14s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>8s} {'bound':>6s}")
    for idx, values in enumerate(sets):
        summary = {}
        for name, spec in metrics.items():
            st = summarize(values[name])
            summary[name] = {**st, "values": values[name]}
            flag = ""
            if name != "setup_s" and st["spread"] > spec["bound"]:
                flag, ok = " OVER BOUND", False
            elif st["spread"] > spec["bound"] / 3:
                flag = " (above a third of the bound)"
            print(f"{name:14s} {st['median']:11.5g} {st['q1']:11.5g} {st['q3']:11.5g} {st['spread']:8.4f} {spec['bound']:6.3f}{flag}")
            if idx == 1:
                first = report["sets"][0][name]["median"]
                worse = (st["median"] - first) / first if spec["better"] == "lower" else (first - st["median"]) / first
                summary[name]["second_vs_first_worse_by"] = worse
                if worse > spec["bound"]:
                    print(f"{'':14s} second median worse than the first by {worse:.4f}: OVER BOUND")
                    ok = False
        report["sets"].append(summary)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spread-{args.workload}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
