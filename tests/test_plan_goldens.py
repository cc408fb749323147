"""Every planner's plans, pinned by digest.

tests/data/plans.json maps each input, planner and mode to the SHA-256 of
a canonical plan text: for each piece its serialized template and its
labeling in coordinate order, then the uncovered vertices.  The inputs are
d1, d2, gap_family(2..7), the benchmark's 20-digraph exact-small catalog
and three greedy digraphs at n = 100, 130 and 160; every planner runs
exact where n <= 12 and greedy everywhere.

Planners build their plans from the digraph's own arcs and do not check
them again at run time (make_plan and assemble_code check the plans a
caller hands in).  These goldens and the planner-piece property in
test_schemes.py hold the planners' own plans instead.

After a deliberate change of plans, rewrite the file with
``PYTHONPATH=src python tests/test_plan_goldens.py``.
"""

import hashlib
import json
import random
from functools import cache
from pathlib import Path

import pytest

from iccover.digraph import new_digraph, parse_digraph
from iccover.schemes import clique_cover, cycle_cover, gap_family, icc_cover
from iccover.template import serialize_template

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "plans.json"
CATALOG_SEED = 150402168  # the exact-small benchmark catalog
PLANNERS = (cycle_cover, clique_cover, icc_cover)


def random_digraph(rng, n, p):
    return new_digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and rng.random() < p])


@cache
def inputs() -> dict:
    out = {d: parse_digraph((DATA / f"{d}.json").read_text()) for d in ("d1", "d2")}
    out.update({f"gap{k}": gap_family(k) for k in range(2, 8)})
    cat_rng = random.Random(CATALOG_SEED)
    for j in range(20):
        n = 9 + j % 4
        p = 0.15 + 0.25 * (j + cat_rng.random()) / 20
        out[f"catalog{j:02d}"] = random_digraph(cat_rng, n, p)
    for n in (100, 130, 160):
        out[f"greedy{n}"] = random_digraph(random.Random(n), n, 7.5 / (n - 1))
    return out


def plan_text(plan) -> str:
    lines = [serialize_template(T) + " " + json.dumps(sorted(lab.items()), separators=(",", ":")) for T, lab in plan.pieces]
    lines.append(json.dumps(list(plan.uncovered), separators=(",", ":")))
    return "\n".join(lines)


def plan_digests(name: str) -> dict[str, str]:
    D = inputs()[name]
    modes = ("exact", "greedy") if D.n <= 12 else ("greedy",)
    return {
        f"{name}/{planner.__name__}/{mode}": hashlib.sha256(plan_text(planner(D, mode)).encode()).hexdigest()
        for planner in PLANNERS
        for mode in modes
    }


def test_goldens_cover_174_plans():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 174
    assert {key.split("/")[0] for key in golden} == set(inputs())


@pytest.mark.parametrize("name", list(inputs()))
def test_plans_match_goldens(name):
    golden = json.loads(GOLDEN.read_text())
    got = plan_digests(name)
    assert got == {key: golden.get(key) for key in got}


if __name__ == "__main__":
    table = {}
    for name in inputs():
        table.update(plan_digests(name))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} plan digests to {GOLDEN}")
