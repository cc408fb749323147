"""Whole-digraph covering schemes and code assembly.

Three interchangeable planners produce CoverPlans: cycle packing (every
cycle viewed as a two-path piece), clique partition (every clique a
piece of single-vertex paths), and the general template search.
assemble_code turns any plan into one broadcast code: per-piece symbols
first, then an uncoded symbol per leftover vertex, for n - savings
symbols total.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .codec import TAG_UNCODED, CodedSymbol, IndexCode, PacketVector, encode
from .digraph import (
    MAX_N,
    Cycle,
    Digraph,
    full_mask,
    iter_mask_vertices,
    new_digraph,
    pack_cycles,
    shortest_cycle_mask,  # unused; iccbench/tracer.py wraps this binding
)
from .errors import EmbeddingError, InvalidCode, InvalidDigraph, SizeRefusal
from .finder import DEFAULT_EXACT_BOUND, CoverPlan, _unchecked_plan, exact_mode, find_icc_subgraphs, make_plan, pack_pieces
from .oracles import mais
from .template import check_embedding  # unused; iccbench/tracer.py wraps this binding
from .template import clique_to_template, cycle_to_template


@dataclass(frozen=True)
class SchemeReport:
    """Per-scheme code lengths plus the acyclic-set lower bound."""

    n: int
    l_cyc: int | None
    l_cc: int | None
    l_icc: int | None
    mais: int | None
    optimal: bool


def serialize_report(report: SchemeReport) -> str:
    obj = {
        "n": report.n,
        "l_cyc": report.l_cyc,
        "l_cc": report.l_cc,
        "l_icc": report.l_icc,
        "mais": report.mais,
        "optimal": report.optimal,
    }
    return json.dumps(obj, separators=(",", ":"))


def plan_length(D: Digraph, plan: CoverPlan) -> int:
    """Broadcast symbols the assembled code for this plan uses."""
    return D.n - plan.savings


# ---------- cycle packing ----------


def _induced_cycles(out_m: tuple[int, ...], in_m: tuple[int, ...], n: int) -> list[int]:
    """Vertex masks of every induced (chordless) cycle.

    Paths grow from each cycle's smallest vertex s through higher
    vertices, each new vertex w entered from the last one and touching no
    earlier vertex: ``avoid`` collects the out-neighbours of every vertex
    but the last and the in-neighbours of every vertex but s.  An arc
    w -> s closes the cycle, and a longer path through w would have that
    arc as a chord.
    """
    masks: list[int] = []
    for s in range(1, n + 1):
        sbit = 1 << (s - 1)
        above = -(sbit << 1)  # the vertices above s
        stack = [(s, sbit, 0)]  # (last vertex, path mask, avoid)
        while stack:
            last, pmask, avoid = stack.pop()
            out_last = out_m[last]
            grow = out_last & above & ~avoid
            while grow:
                b = grow & -grow
                grow ^= b
                w = b.bit_length()
                if out_m[w] & sbit:
                    masks.append(pmask | b)
                else:
                    stack.append((w, pmask | b, avoid | out_last | in_m[w]))
    return masks


def _cycle_order(out_m: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """An induced cycle's vertices in arc order, smallest first: inside
    the cycle every vertex has exactly one out-neighbour."""
    first = mask & -mask
    seq = []
    b = first
    while True:
        v = b.bit_length()
        seq.append(v)
        b = out_m[v] & mask
        if b == first:
            return tuple(seq)


def _exact_cycle_packing(D: Digraph) -> list[tuple[int, ...]]:
    """Most vertex-disjoint cycles, packed from the induced cycles by
    pack_pieces (which argues why they suffice).  An induced cycle has one
    vertex order, so no path table is needed to list it."""
    out_m = D.out_masks
    cycles = dict.fromkeys(_induced_cycles(out_m, D.in_masks, D.n), 1)
    return [_cycle_order(out_m, p) for p in pack_pieces(D.n, cycles)]


def cycle_cover(D: Digraph, mode: str = "exact", exact_bound: int = DEFAULT_EXACT_BOUND) -> CoverPlan:
    """Vertex-disjoint cycles, each cast as a k=2 piece (one saved symbol).

    Exact mode maximizes the number of disjoint cycles; greedy repeatedly
    removes a shortest cycle.
    """
    cycles = _exact_cycle_packing(D) if exact_mode(D, mode, exact_bound, "cycle packing") else pack_cycles(D.out_masks, full_mask(D.n))
    pieces = [cycle_to_template(Cycle(c), (len(c) + 1) // 2) for c in cycles]
    return _unchecked_plan(D, pieces)


# ---------- clique partition ----------


def _mutual_masks(D: Digraph) -> list[int]:
    return [o & i for o, i in zip(D.out_masks, D.in_masks)]


def _exact_clique_partition(D: Digraph) -> list[list[int]]:
    """Fewest cliques covering D, by a DP over masks in ascending order.

    parts[mask] takes the clique p through mask's lowest vertex that
    strictly beats every earlier choice, scanning candidates in
    descending mask order.  A vertex outside mut[low] is not a mutual
    neighbour of low, so no clique through low contains it: scanning the
    submasks of mask & mut[low] meets the same cliques, in the same
    order, as scanning those of the whole mask, and picks the same p.
    """
    mut = _mutual_masks(D)
    full = full_mask(D.n)
    is_clique = bytearray(full + 1)
    is_clique[0] = 1
    for mask in range(1, full + 1):
        low = mask & -mask
        rest = mask ^ low
        if is_clique[rest] and (mut[low.bit_length()] & rest) == rest:
            is_clique[mask] = 1
    # fewest parts = most saved symbols
    parts = [0] * (full + 1)
    take = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        cand = mask & mut[low.bit_length()]
        b, t = None, 0
        sub = cand
        while True:
            p = sub | low
            if is_clique[p]:
                c = 1 + parts[mask ^ p]
                if b is None or c < b:
                    b, t = c, p
            if sub == 0:
                break
            sub = (sub - 1) & cand
        parts[mask], take[mask] = b, t
    groups: list[list[int]] = []
    mask = full
    while mask:
        p = take[mask]
        groups.append(list(iter_mask_vertices(p)))
        mask ^= p
    return groups


def _greedy_clique_partition(D: Digraph) -> list[list[int]]:
    """Maximal groups, each seeded by the highest mutual degree among the
    remaining vertices (ties to the lowest id), members added in the
    same order.

    Degrees are kept incrementally: removing a group lowers only its
    members' remaining mutual neighbors.  Once the highest degree is 0,
    every remaining vertex is a group of its own, in ascending order.
    """
    mut = _mutual_masks(D)
    deg = [m.bit_count() for m in mut]
    remaining = full_mask(D.n)
    groups: list[list[int]] = []
    while remaining:
        verts = list(iter_mask_vertices(remaining))
        # max returns the first maximal vertex, that is the lowest id
        seed = max(verts, key=deg.__getitem__)
        if deg[seed] == 0:
            groups.extend([v] for v in verts)
            break
        cmask = 1 << (seed - 1)
        for u in sorted(iter_mask_vertices(mut[seed] & remaining), key=lambda v: (-deg[v], v)):
            if (mut[u] & cmask) == cmask:
                cmask |= 1 << (u - 1)
        remaining &= ~cmask
        group = list(iter_mask_vertices(cmask))
        for u in group:
            for w in iter_mask_vertices(mut[u] & remaining):
                deg[w] -= 1
        groups.append(group)
    return groups


def clique_cover(D: Digraph, mode: str = "exact", exact_bound: int = DEFAULT_EXACT_BOUND) -> CoverPlan:
    """Partition into bidirectionally complete groups, singletons included.

    Every group becomes a piece of single-vertex paths, so the plan covers
    all of D and saves group size minus one symbols per group.  Exact mode
    minimizes the number of groups; greedy extracts maximal groups seeded
    by highest mutual degree.
    """
    groups = _exact_clique_partition(D) if exact_mode(D, mode, exact_bound, "clique partition") else _greedy_clique_partition(D)
    pieces = [clique_to_template(D, g) for g in groups]
    return _unchecked_plan(D, pieces)


# ---------- general cover and assembly ----------


def icc_cover(D: Digraph, mode: str = "exact", exact_bound: int = DEFAULT_EXACT_BOUND) -> CoverPlan:
    """Best disjoint family of template embeddings; see find_icc_subgraphs."""
    return find_icc_subgraphs(D, mode, exact_bound)


def assemble_code(D: Digraph, plan: CoverPlan, packets: PacketVector | None = None) -> IndexCode:
    """Concatenate per-piece codes, then uncoded symbols for leftovers.

    Before emitting anything, checks the pieces through make_plan, then
    that the uncovered vertices are the rest of 1..n, each once.  Symbols
    follow the plan's own order of pieces and of uncovered vertices.
    """
    if packets is not None and len(packets.packets) != D.n:
        raise InvalidCode(f"expected {D.n} packets, got {len(packets.packets)}")
    rest = make_plan(D, plan.pieces).uncovered
    if len(plan.uncovered) != len(rest) or set(plan.uncovered) != set(rest):
        raise EmbeddingError("plan does not partition the vertex set")
    symbols: list[CodedSymbol] = []
    ops = 0
    for T, lab in plan.pieces:
        piece_code = encode(T, lab, packets)
        symbols.extend(piece_code.symbols)
        if packets is not None:
            ops += piece_code.xor_bit_ops
    for v in plan.uncovered:
        payload = packets.packet(v) if packets is not None else None
        symbols.append(CodedSymbol(frozenset({v}), payload, TAG_UNCODED))
    return IndexCode(tuple(symbols), xor_bit_ops=ops if packets is not None else None)


def compare(D: Digraph, exact_bound: int = DEFAULT_EXACT_BOUND) -> SchemeReport:
    """Run all three planners (exact within the bound, greedy beyond) and
    the acyclic-set bound; flag optimality only when the bound is met."""
    mode = "exact" if D.n <= exact_bound else "greedy"
    l_cyc = plan_length(D, cycle_cover(D, mode, exact_bound))
    l_cc = plan_length(D, clique_cover(D, mode, exact_bound))
    l_icc = plan_length(D, icc_cover(D, mode, exact_bound))
    try:
        lower = mais(D)
    except SizeRefusal:
        lower = None
    return SchemeReport(D.n, l_cyc, l_cc, l_icc, lower, lower is not None and l_icc == lower)


def gap_family(k: int) -> Digraph:
    """Two-block digraph on 2k vertices where coded side information pays.

    Vertex k+i holds message i; vertex i holds every upper message except
    k+i.  The best cycle packing saves only floor(k/2) symbols here while
    a single spanning k-path piece saves k-1.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InvalidDigraph(f"family parameter must be a positive integer, got {k!r}")
    if 2 * k > MAX_N:
        raise InvalidDigraph(f"family parameter {k} gives {2 * k} vertices, above the limit of {MAX_N}")
    arcs = [(k + i, i) for i in range(1, k + 1)]
    arcs += [(i, k + j) for i in range(1, k + 1) for j in range(1, k + 1) if j != i]
    return new_digraph(2 * k, arcs)
