"""Whole-digraph covering schemes and code assembly.

Three interchangeable planners produce CoverPlans: cycle packing (every
cycle viewed as a two-path piece), clique partition (every clique a
piece of single-vertex paths), and the general template search.  No
cycle or template piece crosses two strongly connected components, nor a
clique two components M of the mutual-arc graph, so an exact planner runs
its DP on each component alone, over 2^|C| or 2^|M| masks; greedy cliques
are seeded only at vertices with a mutual neighbour left.
assemble_code turns any plan into one broadcast code: per-piece symbols
first, then an uncoded symbol per leftover vertex, for n - savings
symbols total.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .codec import IndexCode, PacketVector, _joined, encode
from .digraph import (
    MAX_N,
    Cycle,
    Digraph,
    _cyclic_parts,
    _greedy_cliques,
    _greedy_cycles,
    _mutual_masks,
    _strong_parts,
    full_mask,
    iter_mask_vertices,
    new_digraph,
    shortest_cycle_mask,  # unused; iccbench/tracer.py wraps this binding
)
from .errors import EmbeddingError, InvalidCode, InvalidDigraph, SizeRefusal, _is_count
from .finder import DEFAULT_EXACT_BOUND, CoverPlan, _taken, _unchecked_plan, exact_mode, find_icc_subgraphs, make_plan
from .finder import _exact_cover, pack_pieces
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
    return json.dumps(vars(report), separators=(",", ":"))  # the fields, in declaration order


def plan_length(D: Digraph, plan: CoverPlan) -> int:
    """Broadcast symbols the assembled code for this plan uses."""
    return D.n - plan.savings


# ---------- cycle packing ----------


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
    """Most vertex-disjoint cycles, by pack_pieces with a piece worth 1 on
    each induced (chordless) cycle.

    A cycle saves 1, so with a cap of 1 on every mask pack_pieces asks
    new_cycle only when b == 0, that is when every proper subset of mask
    is acyclic.  Then mask holds a cycle iff no vertex is a source in
    D[mask], and that cycle spans mask without a chord.  So the pieces
    are exactly the induced cycles, each added at its own mask in
    ascending order, and an induced cycle has one vertex order, so
    _cycle_order lists it.
    """
    cycles = []
    for P, vs in _cyclic_parts(D):  # the DP on each part, cycles mapped back to D's ids
        in_m = P.in_masks

        def new_cycle(mask: int, b: int) -> int:
            m = mask  # drops vertices with an in-neighbour in mask, up to a source
            while m and in_m[(m & -m).bit_length()] & mask:
                m &= m - 1
            return 0 if m else 1

        chosen = pack_pieces([1] * (1 << P.n), new_cycle)  # a cycle saves 1
        cycles += [tuple([vs[v - 1] for v in _cycle_order(P.out_masks, p)]) for p in chosen]
    return sorted(cycles)  # each starts at its lowest vertex


def cycle_cover(D: Digraph, mode: str = "exact", exact_bound: int = DEFAULT_EXACT_BOUND) -> CoverPlan:
    """Vertex-disjoint cycles, each cast as a k=2 piece (one saved symbol).

    Exact mode maximizes the number of disjoint cycles; greedy repeatedly
    removes a shortest cycle.
    """
    cycles = _exact_cycle_packing(D) if exact_mode(D, mode, exact_bound, "cycle packing") else _greedy_cycles(D)
    pieces = [cycle_to_template(Cycle(c), (len(c) + 1) // 2) for c in cycles]
    return _unchecked_plan(D, pieces)


# ---------- clique partition ----------


def _exact_clique_partition(D: Digraph) -> list[list[int]]:
    """Fewest cliques covering D, by one DP per component M of the mutual-arc
    graph over its 2^|M| masks in ascending order, other vertices alone.
    Fewest parts add up over components, so a DP on all of D would choose
    at each mask what this one chooses at the mask's share of low's component.

    A component keeps two tables: parts[mask], the fewest cliques covering
    mask, and take[mask], the clique p through mask's lowest vertex that
    strictly beats every earlier choice, scanning candidates in descending
    mask order.  No clique through low holds a vertex outside mut[low], so
    the submasks sub of mask & mut[low] meet the same cliques, in the same
    order, as those of the whole mask.  sub | low is then a clique iff sub
    is empty or one, that is iff parts[sub] <= 1, final since sub < mask.
    parts never falls as a mask grows, so no p scores below parts[mask ^ low]
    or 1 + parts[mask's vertices outside mut[low]], which stay in mask ^ p;
    the scan stops at the first p that meets the larger floor.  The DP stays
    outside pack_pieces for its ties: it takes the largest clique first and
    the lone vertex last, where pack_pieces skips the lowest vertex first
    and takes the smallest piece first.
    """
    groups, lone = [], set(range(1, D.n + 1))
    mut = tuple(_mutual_masks(D))  # the mutual-arc graph is symmetric: its in-masks are its out-masks
    for P, vs in _strong_parts(Digraph(D.n, mut, mut)):  # its strong components are its components M
        lone -= set(vs)
        mut = P.out_masks  # P is its own mutual-arc graph
        full = full_mask(P.n)
        # fewest parts = most saved symbols
        parts = [0] * (full + 1)
        take = [0] * (full + 1)
        for mask in range(1, full + 1):
            low = mask & -mask
            cand = mask & mut[low.bit_length()]
            b, t, floor = None, 0, 1 + parts[mask & ~(cand | low)]
            if parts[mask ^ low] > floor:  # inline: max() here slows K_20 by half
                floor = parts[mask ^ low]
            sub = cand
            while True:
                if parts[sub] <= 1:  # sub | low is a clique
                    p = sub | low
                    c = 1 + parts[mask ^ p]
                    if b is None or c < b:
                        b, t = c, p
                        if c == floor:
                            break
                if sub == 0:
                    break
                sub = (sub - 1) & cand
            parts[mask], take[mask] = b, t
        groups += [[vs[v - 1] for v in iter_mask_vertices(p)] for p in _taken(take, full)]
    return sorted(groups + [[v] for v in lone])  # by lowest vertex


def clique_cover(D: Digraph, mode: str = "exact", exact_bound: int = DEFAULT_EXACT_BOUND) -> CoverPlan:
    """Partition into bidirectionally complete groups, singletons included.

    Every group becomes a piece of single-vertex paths, so the plan covers
    all of D and saves group size minus one symbols per group.  Exact mode
    minimizes the number of groups; greedy extracts maximal groups seeded
    by highest mutual degree.
    """
    groups = _exact_clique_partition(D) if exact_mode(D, mode, exact_bound, "clique partition") else _greedy_cliques(D)
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
    follow the plan's own order of pieces and of uncovered vertices.  A
    plan from make_plan or a planner cannot change, so it is checked once
    per digraph: it keeps the last digraph it passed, by value.  The
    packet count, and each piece's ids against the packets, are checked
    on every call.
    """
    if packets is not None and len(packets.packets) != D.n:
        raise InvalidCode(f"expected {D.n} packets, got {len(packets.packets)}")
    if plan.__dict__.get("_checked") != D:
        rest = make_plan(D, plan.pieces).uncovered
        if len(plan.uncovered) != len(rest) or set(plan.uncovered) != set(rest):
            raise EmbeddingError("plan does not partition the vertex set")
        if "_checked" in plan.__dict__:  # set by _unchecked_plan
            plan.__dict__["_checked"] = D
    return _joined([encode(T, lab, packets) for T, lab in plan.pieces], plan.uncovered, packets)


def compare(D: Digraph, exact_bound: int = DEFAULT_EXACT_BOUND) -> SchemeReport:
    """Run all three planners (exact within the bound, greedy beyond) and
    the acyclic-set bound, which in exact mode the ICC planner's subset
    tables give; flag optimality only when the bound is met."""
    mode = "exact" if D.n <= exact_bound else "greedy"
    l_cyc = plan_length(D, cycle_cover(D, mode, exact_bound))
    l_cc = plan_length(D, clique_cover(D, mode, exact_bound))
    l_icc = plan_length(D, icc_cover(D, mode, exact_bound))
    try:
        lower = _exact_cover(D)[1] if mode == "exact" else mais(D)  # the exact one kept by icc_cover
    except SizeRefusal:
        lower = None
    return SchemeReport(D.n, l_cyc, l_cc, l_icc, lower, lower is not None and l_icc == lower)


def gap_family(k: int) -> Digraph:
    """Two-block digraph on 2k vertices where coded side information pays.

    Vertex k+i holds message i; vertex i holds every upper message except
    k+i.  The best cycle packing saves only floor(k/2) symbols here while
    a single spanning k-path piece saves k-1.
    """
    if not _is_count(k) or k < 1:
        raise InvalidDigraph(f"family parameter must be a positive integer, got {k!r}")
    if 2 * k > MAX_N:
        raise InvalidDigraph(f"family parameter {k} gives {2 * k} vertices, above the limit of {MAX_N}")
    arcs = [(k + i, i) for i in range(1, k + 1)]
    arcs += [(i, k + j) for i in range(1, k + 1) for j in range(1, k + 1) if j != i]
    return new_digraph(2 * k, arcs)
