import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_packets
from iccover.codec import TAG_UNCODED
from iccover.digraph import MAX_N, Cycle, full_mask, iter_mask_vertices, new_digraph, side_info
from iccover.errors import EmbeddingError, InvalidDigraph, SizeRefusal
from iccover.finder import CoverPlan, make_plan
from iccover.oracles import mais, verify_code
from iccover.schemes import (
    _exact_clique_partition,
    _exact_cycle_packing,
    _greedy_clique_partition,
    _mutual_masks,
    assemble_code,
    clique_cover,
    compare,
    cycle_cover,
    gap_family,
    icc_cover,
    plan_length,
    serialize_report,
)
from iccover.template import check_embedding, cycle_to_template, validate_template


def ring(L):
    return new_digraph(L, [(i, i % L + 1) for i in range(1, L + 1)])


@pytest.mark.parametrize("L", [2, 5, 9])
def test_cycle_cover_single_ring(L):
    plan = cycle_cover(ring(L))
    assert len(plan.pieces) == 1 and plan.savings == 1
    assert plan_length(ring(L), plan) == L - 1


def test_cycle_cover_two_rings():
    D = new_digraph(7, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 7), (7, 4)])
    plan = cycle_cover(D)
    assert plan.savings == 2 and plan.uncovered == ()


def test_cycle_cover_chooses_disjoint_pair():
    # a long cycle overlapping two short ones: two disjoint 2-cycles beat it
    arcs = [(1, 2), (2, 1), (3, 4), (4, 3), (2, 3), (4, 1)]
    D = new_digraph(4, arcs)
    plan = cycle_cover(D)
    assert plan.savings == 2


def test_clique_cover_complete():
    D = new_digraph(5, [(u, v) for u in range(1, 6) for v in range(1, 6) if u != v])
    plan = clique_cover(D)
    assert plan.savings == 4 and len(plan.pieces) == 1
    assert plan_length(D, plan) == 1


def test_clique_cover_arcless_uses_singletons():
    D = new_digraph(4, [])
    plan = clique_cover(D)
    assert len(plan.pieces) == 4 and plan.uncovered == ()
    assert plan.savings == 0 and plan_length(D, plan) == 4


def test_clique_cover_mixed():
    # a triangle clique plus an isolated vertex
    arcs = [(u, v) for u in (1, 2, 3) for v in (1, 2, 3) if u != v]
    D = new_digraph(4, arcs)
    plan = clique_cover(D)
    assert plan.savings == 2 and len(plan.pieces) == 2


def test_icc_cover_beats_cycles_on_reference(d1):
    assert icc_cover(d1).savings == 2
    assert cycle_cover(d1).savings == 1


def test_greedy_modes_close_enough():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 8)
        arcs = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if u != v and rng.random() < 0.35
        ]
        D = new_digraph(n, arcs)
        for planner in (cycle_cover, clique_cover, icc_cover):
            exact = planner(D)
            greedy = planner(D, mode="greedy")
            assert greedy.savings <= exact.savings
            for plan in (exact, greedy):
                assert verify_code(D, assemble_code(D, plan)).valid


def test_assemble_code_payloads(d1, d1_template):
    plan = icc_cover(d1)
    pv = rand_packets(8, d1.n)
    code = assemble_code(d1, plan, pv)
    assert verify_code(d1, code).valid
    assert code.length == plan_length(d1, plan)
    from iccover.codec import decode_receiver

    T, lab = plan.pieces[0]
    for v in range(1, d1.n + 1):
        side = {m: pv.packet(m) for m in side_info(d1, v)}
        assert decode_receiver(T, lab, code, v, side) == pv.packet(v)


def test_assemble_code_uncoded_tail():
    D = new_digraph(4, [(1, 2), (2, 1)])
    plan = cycle_cover(D)
    code = assemble_code(D, plan)
    tails = [s for s in code.symbols if s.tag == TAG_UNCODED]
    assert [sorted(s.support) for s in tails] == [[3], [4]]
    assert code.length == 3


def test_assemble_code_rejects_foreign_plan(d1, d2):
    plan = icc_cover(d2)
    with pytest.raises((EmbeddingError, InvalidDigraph)):
        assemble_code(d1, plan)


def test_plan_with_extra_labeling_key_is_refused():
    # the extra key's vertex 3 would count as covered, yet no symbol sends x3
    D = new_digraph(4, [(1, 2), (2, 1), (3, 4)])
    T, lab = cycle_to_template(Cycle((1, 2)), 1)
    lab = {**lab, ("extra",): 3}
    with pytest.raises(EmbeddingError, match="keys beyond"):
        make_plan(D, [(T, lab)])
    with pytest.raises(EmbeddingError, match="keys beyond"):
        assemble_code(D, CoverPlan(((T, lab),), (4,)))


def test_plan_with_repeated_uncovered_vertex_is_refused():
    D = new_digraph(3, [(1, 2), (2, 1)])
    piece = cycle_to_template(Cycle((1, 2)), 1)
    plan = CoverPlan((piece,), (3, 3))
    assert plan_length(D, plan) == 2
    with pytest.raises(EmbeddingError, match="does not partition"):
        assemble_code(D, plan)
    assert assemble_code(D, CoverPlan((piece,), (3,))).length == 2


def test_assemble_code_checks_pieces_as_make_plan_does():
    D = new_digraph(5, [(1, 2), (2, 1), (3, 4), (4, 3)])
    a, b = cycle_to_template(Cycle((1, 2)), 1), cycle_to_template(Cycle((3, 4)), 1)
    loose = cycle_to_template(Cycle((4, 5)), 1)  # D has no arcs at 5
    with pytest.raises(EmbeddingError, match="^piece 2 does not embed in the digraph$"):
        assemble_code(D, CoverPlan((a, loose), (3,)))
    with pytest.raises(EmbeddingError, match="^piece 2 overlaps an earlier piece at"):
        assemble_code(D, CoverPlan((a, a), (3, 4, 5)))
    with pytest.raises(EmbeddingError, match="does not partition"):
        assemble_code(D, CoverPlan((a, b), (3,)))
    # the caller's order of pieces and of uncovered vertices is kept
    code = assemble_code(D, CoverPlan((b, a), (5,)))
    assert [sorted(sym.support) for sym in code.symbols] == [[3, 4], [1, 2], [5]]


def test_compare_reports(d1, d2):
    assert serialize_report(compare(d1)) == (
        '{"n":6,"l_cyc":5,"l_cc":6,"l_icc":4,"mais":4,"optimal":true}'
    )
    assert serialize_report(compare(d2)) == (
        '{"n":5,"l_cyc":4,"l_cc":5,"l_icc":3,"mais":3,"optimal":true}'
    )


def test_compare_null_mais():
    # big enough that even the acyclic-set oracle refuses; optimality is
    # then never claimed
    D = gap_family(11)
    r = compare(D)
    assert r.mais is None and r.optimal is False
    assert serialize_report(r).endswith('"mais":null,"optimal":false}')


def test_compare_clamps_to_greedy_above_bound():
    D = gap_family(8)
    r = compare(D)
    assert r.n == 16 and r.mais == 9
    assert r.l_icc >= 9
    # raising the bound restores exactness (smaller member, same family)
    exact = compare(gap_family(7), exact_bound=14)
    assert exact.l_icc == 8 and exact.mais == 8 and exact.optimal


def test_covers_refuse_oversized():
    D = gap_family(8)
    for planner in (cycle_cover, clique_cover, icc_cover):
        with pytest.raises(SizeRefusal):
            planner(D)


@pytest.mark.parametrize(
    "planner,what",
    [(cycle_cover, "cycle packing"), (clique_cover, "clique partition"), (icc_cover, "subgraph search")],
)
def test_refusal_texts(planner, what):
    with pytest.raises(SizeRefusal) as exc:
        planner(gap_family(8))
    assert str(exc.value) == f"exact {what} is limited to 12 vertices (digraph has 16); use greedy mode or raise the bound"


@pytest.mark.parametrize("run", [cycle_cover, clique_cover, icc_cover, compare])
def test_exact_hard_limit_refuses_without_allocating(run):
    # exact DPs fill lists of 2^n entries, so a bound above the hard
    # limit must not let a 21-vertex digraph reach them
    D = new_digraph(21, [(v, v % 21 + 1) for v in range(1, 22)])
    tracemalloc.start()
    try:
        with pytest.raises(SizeRefusal) as exc:
            run(D, exact_bound=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "limited to 20 vertices (digraph has 21)" in str(exc.value)


def test_large_bound_below_hard_limit_keeps_working():
    for D in (gap_family(3), gap_family(5)):
        assert compare(D, exact_bound=64) == compare(D, exact_bound=D.n)
        assert icc_cover(D, exact_bound=64) == icc_cover(D, exact_bound=D.n)


def test_gap_family_structure():
    for k in range(2, 7):
        D = gap_family(k)
        assert D.n == 2 * k
        assert len(D.arcs) == k + k * (k - 1)
        for i in range(1, k + 1):
            assert (k + i, i) in D.arcs
            for j in range(1, k + 1):
                assert ((i, k + j) in D.arcs) == (i != j)
    # k=1 degenerates to one uninformed receiver
    assert gap_family(1).arcs == frozenset({(2, 1)})
    with pytest.raises(InvalidDigraph):
        gap_family(0)
    for k in (MAX_N // 2 + 1, 10**9):
        with pytest.raises(InvalidDigraph, match=f"above the limit of {MAX_N}"):
            gap_family(k)


def test_gap_values():
    for k, gap in [(2, 0), (3, 1), (4, 1), (5, 2), (6, 2)]:
        D = gap_family(k)
        r = compare(D, exact_bound=D.n)
        assert r.l_cyc - r.l_icc == gap
        assert r.l_icc == mais(D) == k + 1


def _reference_greedy_clique_partition(D):
    """The greedy partition as first written: degrees recounted for every group."""
    mut = _mutual_masks(D)
    remaining = full_mask(D.n)
    groups = []
    while remaining:
        verts = list(iter_mask_vertices(remaining))
        deg = {v: bin(mut[v] & remaining).count("1") for v in verts}
        seed = min(verts, key=lambda v: (-deg[v], v))
        cmask = 1 << (seed - 1)
        cands = sorted(
            (v for v in verts if v != seed and mut[v] >> (seed - 1) & 1),
            key=lambda v: (-deg[v], v),
        )
        for u in cands:
            if (mut[u] & cmask) == cmask:
                cmask |= 1 << (u - 1)
        groups.append(list(iter_mask_vertices(cmask)))
        remaining &= ~cmask
    return groups


def test_greedy_clique_partition_matches_reference():
    rng = random.Random(29)
    for n in range(60, 161, 20):
        # sparse hosts like the greedy benchmark's, up to nearly complete ones
        for p in (5.0 / (n - 1), 10.0 / (n - 1), 0.3, 0.7, 0.95):
            D = new_digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and rng.random() < p])
            assert _greedy_clique_partition(D) == _reference_greedy_clique_partition(D), (n, p)
    for D in (new_digraph(0, []), new_digraph(3, []), gap_family(4)):
        assert _greedy_clique_partition(D) == _reference_greedy_clique_partition(D)


# ---------- exact DPs against their first versions ----------


def _reference_path_ends(D, out_m):
    """ends[mask]: last vertices (as bits) of simple paths from mask's
    smallest vertex that visit exactly mask."""
    full = full_mask(D.n)
    ends = [0] * (full + 1)
    for v in range(1, D.n + 1):
        ends[1 << (v - 1)] = 1 << (v - 1)
    for mask in range(1, full + 1):
        e = ends[mask]
        if not e:
            continue
        anchor = mask & -mask
        above = ~((anchor << 1) - 1)
        for u in iter_mask_vertices(e):
            grow = out_m[u] & ~mask & above
            while grow:
                w = grow & -grow
                ends[mask | w] |= w
                grow ^= w
    return ends


def _reference_ham_cycle(in_m, ends, mask):
    anchor = mask & -mask
    opts = ends[mask] & in_m[anchor.bit_length()]
    w = (opts & -opts).bit_length()
    seq = [w]
    cur = mask & ~(1 << (w - 1))
    while cur != anchor:
        opts = ends[cur] & in_m[seq[0]]
        u = (opts & -opts).bit_length()
        seq.insert(0, u)
        cur &= ~(1 << (u - 1))
    seq.insert(0, anchor.bit_length())
    return tuple(seq)


def _reference_exact_cycle_packing(D):
    """The cycle DP as first written: every vertex set with a spanning cycle is a candidate."""
    out_m, in_m = D.out_masks, D.in_masks
    full = full_mask(D.n)
    ends = _reference_path_ends(D, out_m)
    by_low = {}
    for mask in range(1, full + 1):
        anchor = mask & -mask
        if mask != anchor and ends[mask] & in_m[anchor.bit_length()]:
            by_low.setdefault(anchor, []).append(mask)
    best = [0] * (full + 1)
    take = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        b, t = best[mask ^ low], 0
        for p in by_low.get(low, ()):
            if p & ~mask:
                continue
            c = 1 + best[mask ^ p]
            if c > b:
                b, t = c, p
        best[mask], take[mask] = b, t
    cycles = []
    mask = full
    while mask:
        p = take[mask]
        if p:
            cycles.append(_reference_ham_cycle(in_m, ends, p))
            mask ^= p
        else:
            mask ^= mask & -mask
    return cycles


def _reference_exact_clique_partition(D):
    """The clique DP as first written: every submask of the rest is scanned."""
    mut = _mutual_masks(D)
    full = full_mask(D.n)
    is_clique = bytearray(full + 1)
    is_clique[0] = 1
    for mask in range(1, full + 1):
        low = mask & -mask
        rest = mask ^ low
        if is_clique[rest] and (mut[low.bit_length()] & rest) == rest:
            is_clique[mask] = 1
    parts = [0] * (full + 1)
    take = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        rest = mask ^ low
        b, t = None, 0
        sub = rest
        while True:
            p = sub | low
            if is_clique[p]:
                c = 1 + parts[mask ^ p]
                if b is None or c < b:
                    b, t = c, p
            if sub == 0:
                break
            sub = (sub - 1) & rest
        parts[mask], take[mask] = b, t
    groups = []
    mask = full
    while mask:
        p = take[mask]
        groups.append(list(iter_mask_vertices(p)))
        mask ^= p
    return groups


def random_digraph(rng, n, p):
    return new_digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and rng.random() < p])


def assert_dps_match_reference(D):
    assert _exact_cycle_packing(D) == _reference_exact_cycle_packing(D)
    assert _exact_clique_partition(D) == _reference_exact_clique_partition(D)


@st.composite
def digraphs(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    p = draw(st.floats(0.0, 1.0))
    return random_digraph(draw(st.randoms(use_true_random=False)), n, p)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(digraphs())
def test_exact_dps_match_reference(D):
    assert_dps_match_reference(D)


def test_exact_dps_match_reference_on_fixed_cases():
    n = 12
    assert_dps_match_reference(new_digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]))
    for k in range(2, 7):
        assert_dps_match_reference(gap_family(k))
    D = random_digraph(random.Random(12), 12, 0.4)
    assert len(D.arcs) == 57
    assert_dps_match_reference(D)


# ---------- every planner piece embeds ----------
# Planners do not check their own plans at run time (make_plan and
# assemble_code check only the plans a caller hands in), so these
# properties, with the plan goldens, are what hold them.


def assert_embedded_partition(D, mode):
    for planner in (cycle_cover, clique_cover, icc_cover):
        plan = planner(D, mode)
        covered = []
        for T, lab in plan.pieces:
            assert check_embedding(D, T, lab), (planner.__name__, mode, T, lab)
            covered += lab.values()
        assert sorted(covered + list(plan.uncovered)) == list(range(1, D.n + 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(digraphs(max_n=9))
def test_every_planner_returns_only_embedded_disjoint_pieces(D):
    for mode in ("exact", "greedy"):
        assert_embedded_partition(D, mode)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(digraphs(max_n=40))
def test_every_greedy_planner_returns_only_embedded_disjoint_pieces(D):
    assert_embedded_partition(D, "greedy")


@pytest.mark.parametrize("n", [100, 130, 160])
def test_every_greedy_planner_returns_only_embedded_disjoint_pieces_at_scale(n):
    # the sizes and mean out-degree of the greedy-large benchmark
    assert_embedded_partition(random_digraph(random.Random(n), n, 7.5 / (n - 1)), "greedy")


def test_planner_pieces_of_one_shape_share_one_template():
    two_rings = new_digraph(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
    two_triangles = new_digraph(6, [(u, v) for u in range(1, 7) for v in range(1, 7) if u != v and (u - 1) // 3 == (v - 1) // 3])
    # exact icc_cover builds its own templates; greedy starts from cycle pieces
    cases = [(D, planner, mode) for D, planner in ((two_rings, cycle_cover), (two_triangles, clique_cover)) for mode in ("exact", "greedy")]
    for D, planner, mode in cases + [(two_rings, icc_cover, "greedy")]:
        plan = planner(D, mode)
        (T, lab), (U, other) = plan.pieces
        assert T is U and set(lab.values()).isdisjoint(other.values())
        assert verify_code(D, assemble_code(D, plan, rand_packets(16, 6))).valid
        assert T._sound is True and validate_template(T) == []

