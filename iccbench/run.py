"""Run one iccover benchmark workload and print its metrics.

    python3 iccbench/run.py --workload exact-small --seed 0 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
One caller, one process, no threads: a closed loop in which each
operation starts after the previous one returns.  The loop runs whole
passes over the workload's inputs until the next pass would end past
``--seconds`` (at least one pass).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
operation twice, untraced and then traced; it prints the per-layer
metrics of the traced runs and the tracing overhead (traced over
untraced operation time, minus one), and writes every span to
``iccbench/out/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics;
the exit status is 0 whenever it is printed, wrong outputs included, and
nonzero when no result could be made.  A run record with everything measured goes to ``iccbench/out/`` too.

Operation times are gated in host-normalized seconds: between
operations the loop runs a fixed reference task for about REF_SHARE of
the operation time (each timed call after an untimed one that warms the
caches), and scales each completed operation's CPU time by
REF_NOMINAL_S over the run's mean reference time.  On a shared machine
the CPU time of a fixed task drifts by 20 % within minutes, and the
reference drifts with it.  Raw seconds are printed and recorded too.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, Capture, Context, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
MODULES = ("cli", "codec", "digraph", "finder", "oracles", "schemes", "template")
REF_SHARE = 0.03  # reference-task time per second of operation time
REF_NOMINAL_S = 0.002  # reference-task time on the nominal host
_REF_A = bytes(range(256)) * 6
_REF_B = _REF_A[::-1]


def reference_task() -> int:
    """Fixed pure-Python work like iccover's own: byte XOR and integer-keyed dicts."""
    total = 0
    for _ in range(9):
        x = bytes(p ^ q for p, q in zip(_REF_A, _REF_B))
        seen = {}
        for i in range(600):
            seen[(i * 2654435761) & 0xFFF] = i
        total += x[0] + sum(sorted(seen)[:10])
    return total


def load_package():
    """Import iccover from the checkout's src/, or return None."""
    if not (ROOT / "src" / "iccover" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(ROOT / "src"))
    try:
        pkg = importlib.import_module("iccover")
        for name in MODULES:
            setattr(pkg, name, importlib.import_module(f"iccover.{name}"))
    except ImportError as exc:
        print(f"error: cannot import iccover: {exc}", file=sys.stderr)
        return None
    return pkg


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    for q in (99, 95, 90, 75):
        rank = math.ceil(q / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return q, ordered[rank - 1]
    return None


def run(args, ic) -> tuple[dict, dict, dict]:
    golden_path = HERE / "golden.json"
    golden = json.loads(golden_path.read_text()) if golden_path.is_file() else {}
    ctx = Context(ROOT, OUT / "work" / args.workload, golden, Capture(ic.schemes), args.toy)
    tracer = Tracer()
    if args.trace:
        tracer.install({name: getattr(ic, name) for name in MODULES})

    cls = WORKLOADS[args.workload]
    setup_times, setup_wall = [], []
    for _ in range(SETUP_REPEATS):
        t0, w0 = time.thread_time(), time.perf_counter()
        wl = cls(ic, args.seed, ctx)
        setup_times.append(time.thread_time() - t0)
        setup_wall.append(time.perf_counter() - w0)
    setup_errors = wl.check_setup()

    results = []  # (pass index, traced, OpResult)
    failures = []
    busy = {False: 0.0, True: 0.0}  # summed operation time, untraced and traced
    # per input: fewest broadcast symbols over the passes, and messages served;
    # an input over budget in one pass but finished in another counts as coded
    best = {}
    ref_times = []
    owed = 0.0  # reference-task time still due
    start = time.perf_counter()
    passes = 0
    while True:
        before = sum(busy.values())
        for idx, item in enumerate(wl.next_pass()):
            # a traced run repeats each operation traced right after the
            # untraced one, so host speed drifts cancel in the overhead
            for traced in (False, True) if args.trace else (False,):
                tracer.instance = f"{passes}:{idx}"
                tracer.enabled = traced
                res = wl.op(item, corrupt=args.corrupt and not results)
                tracer.enabled = False
                tracer.reset_stack()
                if res.error is None and setup_errors:
                    res.error = setup_errors[0]
                if res.error is not None:
                    failures.append(f"pass {passes} item {idx}{' traced' if traced else ''}: {res.error}")
                results.append((passes, traced, res))
                busy[traced] += res.latency
            best[idx] = min(best.get(idx, (res.symbols, 0))[0], res.symbols), res.messages
            owed += REF_SHARE * res.latency
            while owed > 0:
                # the untimed call refills the caches the operation evicted, so
                # the timed one does not depend on the operation's memory use
                reference_task()
                t0 = clock()
                reference_task()
                ref_times.append(clock() - t0)
                owed -= ref_times[-1]
        passes += 1
        if time.perf_counter() - start + sum(busy.values()) - before > args.seconds:
            break
    measured_s = time.perf_counter() - start

    ops = [r for _, traced, r in results if not traced]
    lat = [r.latency for r in ops]
    completed = [r for r in ops if not r.over_budget and r.error is None]
    over = sum(r.over_budget for r in ops)
    extras: dict[str, tuple[float, str]] = {}
    phases = sorted({p for r in ops for p in r.phases})
    for p in phases:
        vals = [r.phases[p] for r in ops if p in r.phases and not r.over_budget]
        if vals:
            extras[f"{p}_s_p50"] = (statistics.median(vals), "s")
    payload = sum(r.payload_bytes for r in completed)
    for p, label in (("encode", "encode_MBps"), ("decode", "decode_MBps")):
        phase_s = sum(r.phases.get(p, 0.0) for r in completed)
        if phase_s:
            extras[label] = (payload / phase_s / 1e6, "MB/s")
    extras["op_s_p50"] = (statistics.median(lat), "s")
    tail = tail_percentile(lat)
    if tail:
        extras[f"op_s_p{tail[0]}"] = (tail[1], "s")
    extras["ops_per_s"] = (len(completed) / sum(lat), "1/s")
    extras["op_s_mean"] = (statistics.mean(lat), "s")
    extras["ref_s_mean"] = (statistics.mean(ref_times), "s")
    # an operation cut by its CPU-time budget counts at the budget, unscaled
    scale = REF_NOMINAL_S / statistics.mean(ref_times)
    norm = [cls.budget_s if r.over_budget else r.latency * scale for r in ops]
    e2e = {
        "ops_per_s_norm": (len(completed) / sum(norm), "1/s"),
        "op_s_mean_norm": (statistics.mean(norm), "s"),
        "icc_symbols_per_msg": (sum(s for s, _ in best.values()) / sum(m for _, m in best.values()), "symbols/msg"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_MB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    attempted = len(results)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cores": os.cpu_count(),
        "git_sha": git_sha(),
        "budget_s": cls.budget_s,
        "passes": passes,
        "ops_per_pass": len(results) // passes,
        "measured_s": measured_s,  # wall clock
        "setup_s_each": setup_times,
        "setup_wall_s_each": setup_wall,
        "ops_cpu_s": sum(lat),
        "ref_samples": len(ref_times),
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "over_budget": over,
        "over_budget_ratio": over / len(ops),
        "samples": {"op_s_p50": len(lat), **({f"op_s_p{tail[0]}": len(lat)} if tail else {})},
        "failures": failures[:20],
        "ops": [[p, round(r.latency, 6), r.over_budget, r.error is None] for p, _, r in results],
    }
    if args.trace:
        layer = tracer.layer_metrics(busy[True])
        layer["trace.overhead_ratio"] = (busy[True] / busy[False] - 1, "ratio")
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        record["per_layer_seconds"] = tracer.layer_seconds()
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write_spans(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["spans"] = len(tracer.spans)
        shown = layer
    else:
        record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        shown = e2e
    record["extras"] = {k: {"value": v, "unit": u} for k, (v, u) in extras.items()}
    return record, shown, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--corrupt", action="store_true", help="corrupt the first output, for the smoke test")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    ic = load_package()
    if ic is None:
        print(f"error: no importable iccover package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    OUT.mkdir(exist_ok=True)

    record, shown, extras = run(args, ic)
    record["import_s"] = import_s
    for name, (value, unit) in shown.items():
        print(f"{name:48s} {value:.6g} {unit}")
    for name, (value, unit) in extras.items():
        print(f"  {name:46s} {value:.6g} {unit}")
    for label, st in record.get("per_layer_seconds", {}).items():
        if st["calls"]:
            print(f"  {label:46s} {st['calls']} calls  {st['s']:.6g} s  self {st['self_s']:.6g} s")
    print(
        f"  failed_ratio {record['failed']}/{record['attempted']}"
        f"  over_budget {record['over_budget']}/{record['samples']['op_s_p50']} untraced (budget {record['budget_s']} CPU s)"
        f"  passes {record['passes']}  samples {record['samples']}"
    )
    for line in record["failures"][:5]:
        print(f"  FAILED {line}", file=sys.stderr)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
