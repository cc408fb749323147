"""Record golden output digests for the benchmark's output checks.

    python3 iccbench/record_golden.py --seeds 0-19 [--workload greedy-large]

Runs every input of every workload once for each seed, with a 20 s
per-operation budget, and stores the SHA-256 prefix of each ``compare``
report and each ``serialize_code`` listing in ``iccbench/golden.json``,
keyed by the input digraph.  An output is recorded only after it passes
the oracle checks (rank verification, l_icc >= mais, l_icc <= min(l_cyc,
l_cc)).  Inputs still over budget get no golden; the benchmark judges
them by the oracles alone.  Existing entries are kept; an entry that
disagrees with a new observation is reported and the run fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spread import parse_seeds  # noqa: E402
from workloads import WORKLOADS, Capture, Context, digest  # noqa: E402

RECORD_BUDGET_S = 20.0


def dump(golden: dict) -> str:
    """JSON with one instance per line, so diffs show which goldens changed."""
    tables = []
    for name in sorted(golden):
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(golden[name].items()))
        tables.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    return "{\n" + ",\n".join(tables) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="record only this workload")
    args = parser.parse_args(argv)

    ic = run.load_package()
    if ic is None:
        return 2
    path = HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.is_file() else {}
    ctx = Context(run.ROOT, run.OUT / "work" / "golden", {}, Capture(ic.schemes))
    conflicts = 0
    for name, cls in WORKLOADS.items():
        if args.workload not in (None, name):
            continue
        table = golden.setdefault(name, {})
        # exact-small keys do not depend on the seed (see ExactSmall)
        for seed in parse_seeds(args.seeds)[:1] if name == "exact-small" else parse_seeds(args.seeds):
            wl = cls(ic, seed, ctx)
            wl.budget_s = max(wl.budget_s, RECORD_BUDGET_S)
            if name == "broadcast-stream":
                for err in wl.check_setup():
                    print(f"{name} seed {seed}: {err}", file=sys.stderr)
                observed = {e.key: {"listing": digest(e.listing)} for e in wl.entries}
                count = len(wl.entries)
            else:
                observed = {}
                items = wl.next_pass()
                count = len(items)
                for item in items:
                    res = wl.op(item)
                    if res.error is None and not res.over_budget:
                        observed[item[0]] = res.observed
                    elif res.error is not None:
                        print(f"{name} seed {seed}: {res.error}", file=sys.stderr)
            for key, digests in observed.items():
                old = table.get(key)
                if old is not None and old != digests:
                    print(f"{name} seed {seed}: instance {key} disagrees with its golden", file=sys.stderr)
                    conflicts += 1
                table[key] = digests
            print(f"{name} seed {seed}: {len(observed)} of {count} recorded", flush=True)
    path.write_text(dump(golden))
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main())
