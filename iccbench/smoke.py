"""Smoke test of the benchmark itself, at toy size (about a minute).

    python3 iccbench/smoke.py

Checks that every workload prints every end-to-end metric (untraced) and
every per-layer metric (traced) with the units BENCHMARK.json lists; that
a deliberately corrupted output (one flipped payload byte, or an altered
report) is counted as a failed operation rather than passed; and that a
directory holding only BENCHMARK.json and iccbench/ (no package) makes the
benchmark exit nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_run(cwd: Path, workload: str, *extra: str) -> tuple[int, str]:
    cmd = [sys.executable, "iccbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(result: dict, specs: list[dict], where: str) -> None:
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{where}: metric names/units differ: missing {set(want) - set(got)}, extra {set(got) - set(want)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name} is not a number"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    for w in names:
        code, out = bench_run(ROOT, w, "--toy", "--trace", "0")
        result = last_json(out)
        assert code == 0 and result["correct"] and result["failed"] == 0, f"{w}: clean toy run failed: {out}"
        assert result["attempted"] >= 1
        check_metrics(result, bench["end_to_end"], f"{w} trace 0")

        code, out = bench_run(ROOT, w, "--toy", "--trace", "1")
        result = last_json(out)
        assert code == 0 and result["correct"], f"{w}: traced toy run failed: {out}"
        check_metrics(result, bench["per_layer"], f"{w} trace 1")
        assert (HERE / "out" / f"spans-{w}-seed3.csv.gz").is_file(), f"{w}: no spans file"

        code, out = bench_run(ROOT, w, "--toy", "--trace", "0", "--corrupt")
        result = last_json(out)
        assert code == 0 and not result["correct"] and result["failed"] >= 1, f"{w}: corrupted output passed: {out}"
        print(f"{w}: metrics, per-layer metrics and corruption check ok")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "iccbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "iccbench")
    shutil.copy(HERE / "golden.json", bare / "iccbench")
    code, out = bench_run(bare, names[0], "--trace", "0")
    assert code != 0, "benchmark without the package exited 0"
    assert not out.strip() or not out.strip().splitlines()[-1].startswith("{"), "benchmark without the package printed a result"
    shutil.rmtree(bare)
    print("bare directory: exits nonzero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
