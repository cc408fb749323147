import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_digraph, rand_packets, whole_mask_exact_cover
from iccover.codec import TAG_UNCODED, decode_receiver
from iccover.digraph import (
    MAX_N,
    Cycle,
    _cyclic_parts,
    _greedy_clique_partition,
    _greedy_cliques,
    _greedy_cycles,
    _mutual_masks,
    full_mask,
    iter_mask_vertices,
    new_digraph,
    side_info,
)
from iccover.errors import EmbeddingError, InvalidDigraph, SizeRefusal
from iccover.finder import CoverPlan, _exact_cover, make_plan
from iccover.oracles import mais, mais_exhaustive, verify_code
from iccover.schemes import (
    _exact_clique_partition,
    _exact_cycle_packing,
    assemble_code,
    clique_cover,
    compare,
    cycle_cover,
    gap_family,
    icc_cover,
    plan_length,
    serialize_report,
)
from iccover.template import check_embedding, clique_to_template, cycle_to_template, serialize_template, validate_template


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


def test_exact_dps_match_reference_on_near_complete_digraphs():
    # the clique scan stops early at a clique that meets its floor, which
    # complete and near-complete digraphs reach most often
    rng = random.Random(27)
    for n in range(1, 13):
        arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        assert_dps_match_reference(new_digraph(n, arcs))
        for dropped in (1, 3, n):
            assert_dps_match_reference(new_digraph(n, rng.sample(arcs, len(arcs) - min(dropped, len(arcs)))))


# ---------- per-component exact planners ----------
# Each exact planner runs its DP on every strongly connected component
# alone; these digraphs have two or three, so the plans must come out as
# the whole-mask DPs give them, labels and piece order included.


def plan_record(plan):
    return [(serialize_template(T), list(lab.items())) for T, lab in plan.pieces], plan.uncovered


@st.composite
def block_digraphs(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=3).filter(lambda s: sum(s) <= 12))
    p_in, p_cross = draw(st.floats(0.3, 1.0)), draw(st.floats(0.0, 1.0))
    return block_digraph(draw(st.randoms(use_true_random=False)), sizes, p_in, p_cross)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(block_digraphs())
def test_exact_planners_match_whole_mask_dps_on_block_digraphs(D):
    cycles = [cycle_to_template(Cycle(c), (len(c) + 1) // 2) for c in _reference_exact_cycle_packing(D)]
    assert plan_record(cycle_cover(D)) == plan_record(make_plan(D, cycles))
    groups = [clique_to_template(D, g) for g in _reference_exact_clique_partition(D)]
    assert plan_record(clique_cover(D)) == plan_record(make_plan(D, groups))
    pieces, whole_mais = whole_mask_exact_cover(D)
    assert plan_record(icc_cover(D)) == plan_record(make_plan(D, pieces))
    assert compare(D).mais == mais(D) == mais_exhaustive(D) == whole_mais


def test_exact_planners_on_acyclic_digraphs():
    rng = random.Random(28)
    for n in range(0, 13):
        D = block_digraph(rng, [1] * n, 0.0, rng.random())  # one-vertex blocks: arcs run one way only
        assert _cyclic_parts(D) == ()
        assert cycle_cover(D) == icc_cover(D) == CoverPlan((), tuple(range(1, n + 1)))
        assert [list(lab.values()) for _, lab in clique_cover(D).pieces] == [[v] for v in range(1, n + 1)]
        assert compare(D).mais == mais(D) == mais_exhaustive(D) == n


# ---------- clique planners per mutual-arc component ----------
# The exact clique DP runs on each component of the mutual-arc graph
# alone, and greedy seeds only among vertices with a mutual neighbour
# left; both must give the groups the whole-digraph versions give, in
# their order, also where one-way arcs join the components into one
# strongly connected component.


@st.composite
def mutual_block_digraphs(draw):
    """Blocks of consecutive vertices, each held together by a mutual chain
    plus random mutual arcs, which one-way arcs from each block to the
    next (the last back to the first) and random one-way arcs forward join
    into one strongly connected component; labels shuffled."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5).filter(lambda s: sum(s) <= 10))
    p_mut, p_cross = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    rng = draw(st.randoms(use_true_random=False))
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    blocks = [range(a + 1, b + 1) for a, b in zip(starts, starts[1:])]
    n = starts[-1]
    arcs = {(u, u + 1) for b in blocks for u in b[:-1]}
    arcs |= {(u, v) for b in blocks for u in b for v in b if u + 1 < v and rng.random() < p_mut}
    arcs |= {(v, u) for u, v in arcs}
    arcs |= {(b[-1], b[-1] % n + 1) for b in blocks}  # the ring of blocks, one way
    arcs |= {(u, v) for i, b in enumerate(blocks) for c in blocks[i + 1 :] for u in b for v in c if (v, u) not in arcs and rng.random() < p_cross}
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return new_digraph(n, [(label[u - 1], label[v - 1]) for u, v in arcs])


@st.composite
def mostly_lone_digraphs(draw):
    """Random one-way arcs and at most n // 4 mutual pairs, so that at least
    half of the vertices have mutual degree 0."""
    n = draw(st.integers(0, 10))
    p = draw(st.floats(0.0, 1.0))
    rng = draw(st.randoms(use_true_random=False))
    arcs = {rng.choice([(u, v), (v, u)]) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p}
    for _ in range(n // 4):
        u, v = rng.sample(range(1, n + 1), 2)
        arcs |= {(u, v), (v, u)}
    return new_digraph(n, arcs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutual_block_digraphs())
def test_clique_partitions_match_reference_on_joined_mutual_blocks(D):
    assert len(_cyclic_parts(D)) == 1 and len(_cyclic_parts(D)[0][1]) == D.n
    assert _exact_clique_partition(D) == _reference_exact_clique_partition(D)
    assert _greedy_clique_partition(D) == _reference_greedy_clique_partition(D)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mostly_lone_digraphs())
def test_clique_partitions_match_reference_where_few_vertices_have_a_mutual_neighbour(D):
    assert 2 * sum(1 for m in _mutual_masks(D)[1:] if m) <= D.n
    assert _exact_clique_partition(D) == _reference_exact_clique_partition(D)
    assert _greedy_clique_partition(D) == _reference_greedy_clique_partition(D)


def test_exact_clique_cover_of_a_ring_of_mutual_pairs_stays_small():
    # ten mutual pairs 2i+1 <-> 2i+2 joined by one-way arcs 2i+2 -> 2i+3
    # (20 -> 1) form one strongly connected component; a DP over all of
    # it filled 2^20-entry tables, one per mutual pair needs 2^2 entries
    n = 20
    D = new_digraph(n, [a for i in range(10) for a in ((2 * i + 1, 2 * i + 2), (2 * i + 2, 2 * i + 1), (2 * i + 2, (2 * i + 2) % n + 1))])
    assert len(_cyclic_parts(D)) == 1
    tracemalloc.start()
    try:
        plan = clique_cover(D, "exact", exact_bound=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [list(lab.values()) for _, lab in plan.pieces] == [[2 * i + 1, 2 * i + 2] for i in range(10)]
    assert peak < 1 << 20, f"peak {peak / (1 << 20):.2f} MiB"


# ---------- every planner piece embeds ----------
# Planners do not check their own plans at run time (make_plan and
# assemble_code check only the plans a caller hands in), so these
# properties, with the plan goldens, are what hold them.


PLANNERS = (cycle_cover, clique_cover, icc_cover)


def assert_embedded_partition(D, mode):
    plans = [planner(D, mode) for planner in PLANNERS]
    for planner, plan in zip(PLANNERS, plans):
        covered = []
        for T, lab in plan.pieces:
            assert check_embedding(D, T, lab), (planner.__name__, mode, T, lab)
            covered += lab.values()
        assert sorted(covered + list(plan.uncovered)) == list(range(1, D.n + 1))
    return plans


@settings(max_examples=150, deadline=None, derandomize=True)
@given(digraphs(max_n=9))
def test_every_planner_returns_only_embedded_disjoint_pieces(D):
    exact, greedy = assert_embedded_partition(D, "exact"), assert_embedded_partition(D, "greedy")
    lower = mais(D)
    for planner, ex, gr in zip(PLANNERS, exact, greedy):
        # exact mode saves the most; no index code is shorter than mais
        assert ex.savings >= gr.savings, planner.__name__
        assert plan_length(D, ex) >= lower and plan_length(D, gr) >= lower, planner.__name__


@settings(max_examples=100, deadline=None, derandomize=True)
@given(digraphs(max_n=9), st.integers(1, 40), st.integers(0, 2**16))
def test_every_planner_code_verifies_and_decodes(D, t, seed):
    """Both modes of every planner give a plan whose support-only code
    passes verify_code and whose packet code decodes every covered
    receiver to its own packet; an uncovered one reads its uncoded symbol."""
    pv = rand_packets(t, D.n, random.Random(seed))
    for mode in ("exact", "greedy"):
        for planner in PLANNERS:
            plan = planner(D, mode)
            assert verify_code(D, assemble_code(D, plan)).valid, (planner.__name__, mode)
            code = assemble_code(D, plan, pv)
            for T, lab in plan.pieces:
                for v in lab.values():
                    side = {m: pv.packet(m) for m in side_info(D, v)}
                    assert decode_receiver(T, lab, code, v, side) == pv.packet(v), (planner.__name__, mode, v)
            uncoded = [s for s in code.symbols if s.tag == TAG_UNCODED]
            assert [(min(s.support), s.payload) for s in uncoded] == [(v, pv.packet(v)) for v in plan.uncovered]


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


# ---------- greedy ICC against the schemes it generalizes ----------


@pytest.mark.parametrize(
    "n,p,l_icc",
    [(13, 0.7, 6), (20, 0.5, 10), (40, 0.3, 22), (64, 1.0, 1)],
    ids=["n13", "n20", "n40", "complete64"],
)
def test_greedy_icc_is_never_longer_than_the_clique_cover(n, p, l_icc):
    # these reports had l_icc one longer than l_cc (five longer on K_64)
    # before greedy ICC fell back to the clique partition
    D = random_digraph(random.Random(n), n, p)
    r = compare(D)
    assert r.l_icc == l_icc == min(r.l_cyc, r.l_cc)
    assert verify_code(D, assemble_code(D, icc_cover(D, "greedy")))


# ---------- one analysis per compare ----------


def clear_memos():
    for memo in (_cyclic_parts, _exact_cover, _greedy_cycles, _greedy_cliques):
        memo.cache_clear()


def every_analysis(D):
    plans = [planner(D, mode, D.n) for mode in ("exact", "greedy") for planner in PLANNERS]
    return plans, compare(D), compare(D, exact_bound=D.n - 1), mais(D)


def test_memos_give_what_a_cleared_cache_gives():
    rng = random.Random(21)
    D1, D2 = random_digraph(rng, 9, 0.35), random_digraph(rng, 10, 0.5)
    copy = new_digraph(D1.n, D1.arcs)
    assert copy == D1 and copy is not D1
    for D in (D1, D2, D1, copy):
        got = every_analysis(D)
        clear_memos()
        assert got == every_analysis(D)
        assert compare(D).mais == mais(D) == mais_exhaustive(D)


def test_memos_hold_one_immutable_entry():
    D = random_digraph(random.Random(22), 30, 0.2)
    cycles, groups = _greedy_cycles(D), _greedy_cliques(D)
    for cached in (cycles, groups):
        assert type(cached) is tuple and all(type(part) is tuple for part in cached)
    assert [list(g) for g in groups] == _greedy_clique_partition(D)
    icc_cover(D, "greedy")
    assert _greedy_cycles.cache_info().currsize == _greedy_cliques.cache_info().currsize == 1
    assert _greedy_cycles(D) is cycles and _greedy_cliques(D) is groups
    small = random_digraph(random.Random(23), 8, 0.4)
    icc_cover(small)
    hits = _exact_cover.cache_info().hits
    pieces, lower = _exact_cover(small)
    assert _exact_cover.cache_info().hits == hits + 1 and _exact_cover.cache_info().currsize == 1
    assert type(pieces) is tuple and all(type(piece) is tuple for piece in pieces)
    assert compare(small).mais == mais(small) == mais_exhaustive(small) == lower


def test_mais_of_another_digraph_is_searched(monkeypatch):
    rng = random.Random(24)
    D1, D2 = random_digraph(rng, 9, 0.4), random_digraph(rng, 9, 0.4)
    assert D1 != D2
    icc_cover(D1)  # exact: keeps mais(D1) with its plan
    assert mais(D2) == mais_exhaustive(D2)
    with monkeypatch.context() as patched:
        # exact compare reads mais from the planner's subset tables, no search
        patched.setattr("iccover.oracles._min_cycle_cut", None)
        assert compare(D1).mais == mais_exhaustive(D1)
    # and mais searches, whichever digraph was planned last
    assert compare(D1).mais == mais(D1) == mais_exhaustive(D1)
