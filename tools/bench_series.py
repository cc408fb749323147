"""Record one point of the benchmark trajectory as BENCH_<label>.json.

    python3 tools/bench_series.py --label 18

Runs ``iccbench/run.py`` unchanged, one subprocess per run, on its three
workloads at seed 7919: RUNS end-to-end runs (``--trace 0``) of SECONDS
each per workload, then one ``--trace 1`` run for the per-layer values.
The end-to-end runs go round-robin, run r of every workload before run
r + 1 of any, so drift of the host during the series falls on all three
workloads alike.  Both counts are fixed, so every point of the series is
comparable.  The file, written at the repository root, holds each
end-to-end metric's median and quartiles over the runs with every run's
value, ``correct`` and the failure counts of every run, the trace run's
per-layer values, and the Python version, core count and git SHA that
run.py records.  The deltas of the medians against the newest earlier
``BENCH_*.json`` (highest label) are printed beside both files'
quartiles; a delta smaller than the wider of the two interquartile
ranges is marked "within spread".  Nothing is backfilled.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7919
RUNS = 5
SECONDS = 10
WORKLOADS = ("exact-small", "greedy-large", "broadcast-stream")


def run_once(workload: str, trace: int) -> tuple[dict, dict]:
    """One run.py run: its final JSON line and the run record it wrote."""
    cmd = [sys.executable, "iccbench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / "iccbench" / "out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return summary, record


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def measure() -> dict:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    out: dict = {"seed": SEED, "runs": RUNS, "seconds": SECONDS, "workloads": {}}
    runs: dict[str, list[dict]] = {workload: [] for workload in WORKLOADS}
    for _ in range(RUNS):
        for workload in WORKLOADS:
            summary, record = run_once(workload, 0)
            runs[workload].append(record)
            print(f"{workload}: {json.dumps(summary['metrics'])}", file=sys.stderr)
    for workload, records in runs.items():
        _, traced = run_once(workload, 1)
        out.update({key: records[0][key] for key in ("python", "implementation", "cores", "git_sha")})
        out["workloads"][workload] = {
            "end_to_end": {
                m["name"]: {"unit": m["unit"], "better": m["better"], **spread([r["end_to_end"][m["name"]]["value"] for r in records])}
                for m in metrics
            },
            "correct": all(r["failed"] == 0 for r in records) and traced["failed"] == 0,
            "attempted": [r["attempted"] for r in records],
            "failed": [r["failed"] for r in records],
            "over_budget": [r["over_budget"] for r in records],
            "per_layer": {name: v["value"] for name, v in traced["per_layer"].items()},
        }
    return out


def previous(label: str) -> Path | None:
    """The earlier BENCH file with the highest numeric label."""
    found = []
    for path in ROOT.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if m and int(m.group(1)) < int(label):
            found.append((int(m.group(1)), path))
    return max(found)[1] if found else None


def print_delta(new: dict, old_path: Path | None) -> None:
    if old_path is None:
        print("no earlier BENCH_*.json to compare with")
        return
    old = json.loads(old_path.read_text())
    print(f"against {old_path.name} ({old['git_sha'][:10]} -> {new['git_sha'][:10]}):")
    for workload, now in new["workloads"].items():
        before = old["workloads"].get(workload, {}).get("end_to_end", {})
        for name, stat in now["end_to_end"].items():
            if name in before:
                old_stat = before[name]
                was = old_stat["median"]
                change = f"{stat['median'] / was - 1:+.1%}" if was else "n/a"
                iqr = max(old_stat["q3"] - old_stat["q1"], stat["q3"] - stat["q1"])
                verdict = ", within spread" if abs(stat["median"] - was) < iqr else ""
                print(
                    f"  {workload:17s} {name:20s} {was:.6g} [{old_stat['q1']:.6g}, {old_stat['q3']:.6g}]"
                    f" -> {stat['median']:.6g} [{stat['q1']:.6g}, {stat['q3']:.6g}] {stat['unit']}"
                    f" ({change}{verdict}, {stat['better']} is better)"
                )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the file's number, e.g. 18 for BENCH_18.json")
    args = parser.parse_args(argv)
    if not args.label.isdigit():
        parser.error("--label must be a number")
    point = measure()
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {path.name}")
    print_delta(point, previous(args.label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
