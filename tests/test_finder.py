import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iccover.digraph import Cycle, full_mask, is_acyclic_mask, new_digraph, shortest_cycle_mask
from iccover.errors import EmbeddingError, SizeRefusal
from iccover.finder import (
    DEFAULT_EXACT_BOUND,
    _EmbeddingSearch,
    _mais_table,
    find_icc_subgraphs,
    make_plan,
)
from iccover.oracles import mais, verify_code
from iccover.schemes import assemble_code, gap_family, plan_length
from iccover.template import build_digraph, check_embedding, cycle_to_template


def assert_plan_shape(D, plan):
    seen = set()
    for T, lab in plan.pieces:
        assert check_embedding(D, T, lab)
        vs = set(lab.values())
        assert not vs & seen
        seen |= vs
    assert seen | set(plan.uncovered) == set(range(1, D.n + 1))
    assert not seen & set(plan.uncovered)


def test_d1_single_piece(d1):
    plan = find_icc_subgraphs(d1)
    assert_plan_shape(d1, plan)
    assert len(plan.pieces) == 1 and plan.uncovered == ()
    T, lab = plan.pieces[0]
    assert T.k == 3 and plan.savings == 2


def test_d2_single_piece(d2):
    plan = find_icc_subgraphs(d2)
    assert_plan_shape(d2, plan)
    assert plan.savings == 2 and plan.pieces[0][0].k == 3


def test_two_disjoint_cycles():
    D = new_digraph(8, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (7, 8), (8, 5)])
    plan = find_icc_subgraphs(D)
    assert_plan_shape(D, plan)
    assert plan.savings == 2 and len(plan.pieces) == 2
    assert all(T.k == 2 for T, _ in plan.pieces)


def test_acyclic_leaves_everything_uncovered():
    D = new_digraph(5, [(1, 2), (2, 3), (3, 4), (1, 5)])
    plan = find_icc_subgraphs(D)
    assert plan.pieces == () and plan.uncovered == (1, 2, 3, 4, 5)
    assert plan.savings == 0


def test_empty_digraph():
    plan = find_icc_subgraphs(new_digraph(0, []))
    assert plan.pieces == () and plan.uncovered == () and plan.savings == 0


def test_corpus_recovers_planned_savings(corpus):
    # a spanning k-path piece exists by construction, so the exact cover
    # must save at least k-1
    for T in corpus:
        D, _ = build_digraph(T)
        plan = find_icc_subgraphs(D)
        assert_plan_shape(D, plan)
        assert plan.savings >= T.k - 1


def test_exact_refuses_oversized():
    D = gap_family(8)
    assert D.n == 16 > DEFAULT_EXACT_BOUND
    with pytest.raises(SizeRefusal) as exc:
        find_icc_subgraphs(D)
    assert "greedy" in str(exc.value)
    g = find_icc_subgraphs(D, mode="greedy")
    assert 0 < g.savings <= 7
    # a raised bound restores the exact search
    D7 = gap_family(7)
    assert find_icc_subgraphs(D7, exact_bound=14).savings == 6


def test_bad_mode():
    with pytest.raises(ValueError):
        find_icc_subgraphs(new_digraph(1, []), mode="fast")


def test_greedy_never_beats_exact():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 8)
        arcs = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if u != v and rng.random() < 0.3
        ]
        D = new_digraph(n, arcs)
        exact = find_icc_subgraphs(D)
        greedy = find_icc_subgraphs(D, mode="greedy")
        assert_plan_shape(D, exact)
        assert_plan_shape(D, greedy)
        assert greedy.savings <= exact.savings


def test_make_plan_rejects_overlap(d1, d1_template):
    T, lab = d1_template
    with pytest.raises(EmbeddingError):
        make_plan(d1, [(T, lab), (T, lab)])


def test_make_plan_orders_pieces():
    D = new_digraph(8, [(5, 6), (6, 7), (7, 8), (8, 5), (1, 2), (2, 3), (3, 4), (4, 1)])
    from iccover.template import cycle_to_template
    from iccover.digraph import Cycle

    hi = cycle_to_template(Cycle((5, 6, 7, 8)), 2)
    lo = cycle_to_template(Cycle((1, 2, 3, 4)), 2)
    plan = make_plan(D, [hi, lo])
    firsts = [min(lab.values()) for _, lab in plan.pieces]
    assert firsts == sorted(firsts)


def test_make_plan_reads_an_iterator_once():
    D = new_digraph(4, [(1, 2), (2, 1), (3, 4), (4, 3)])
    pieces = [cycle_to_template(Cycle((3, 4)), 1), cycle_to_template(Cycle((1, 2)), 1)]
    want = make_plan(D, pieces)
    assert want.savings == 2 and want.uncovered == ()
    assert make_plan(D, iter(pieces)) == want
    assert make_plan(D, (p for p in pieces)) == want
    assert assemble_code(D, make_plan(D, iter(pieces))).length == 2


def random_digraph(rng, n, p):
    return new_digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and rng.random() < p])


@st.composite
def digraphs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    p = draw(st.floats(0.1, 0.9))
    return random_digraph(draw(st.randoms(use_true_random=False)), n, p)


def unpruned_max_piece(search, mask, kmin=2, kmax=None):
    """max_piece with no cut: every terminal set of every k goes to _embed."""
    verts = [v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1]
    top = len(verts) if kmax is None else min(kmax, len(verts))
    for k in range(top, kmin - 1, -1):
        for terms in combinations(verts, k):
            found = search._embed(mask, terms)
            if found is not None:
                return (k, *found)
    return None


def unpruned_exact_plan(D):
    """Exact plan scoring every subset at its largest k, then packing."""
    search = _EmbeddingSearch(D.out_masks, D.in_masks)
    full = full_mask(D.n)
    emb, by_low = {}, {}
    for mask in range(1, full + 1):
        got = unpruned_max_piece(search, mask)
        if got is not None:
            emb[mask] = got
            by_low.setdefault(mask & -mask, []).append(mask)
    best = [0] * (full + 1)
    take = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        b, t = best[mask ^ low], 0
        for p in by_low.get(low, ()):
            if p & ~mask:
                continue
            c = emb[p][0] - 1 + best[mask ^ p]
            if c > b:
                b, t = c, p
        best[mask], take[mask] = b, t
    pieces = []
    mask = full
    while mask:
        p = take[mask]
        if p:
            pieces.append(emb[p][1:])
            mask ^= p
        else:
            mask ^= mask & -mask
    return make_plan(D, pieces)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(digraphs())
def test_exact_plan_matches_unpruned_search(D):
    plan = find_icc_subgraphs(D)
    assert plan == unpruned_exact_plan(D)
    assert verify_code(D, assemble_code(D, plan))
    assert plan_length(D, plan) >= mais(D)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(digraphs())
def test_max_piece_matches_unpruned_search(D):
    search = _EmbeddingSearch(D.out_masks, D.in_masks)
    for mask in range(1, full_mask(D.n) + 1):
        size = mask.bit_count()
        at = {k: unpruned_max_piece(search, mask, k, k) for k in range(2, size + 1)}
        for kmin in range(2, size + 1):
            for kmax in (*range(kmin, size + 1), None):
                top = size if kmax is None else kmax
                want = next((at[k] for k in range(top, kmin - 1, -1) if at[k] is not None), None)
                assert search.max_piece(mask, kmin, kmax) == want, (mask, kmin, kmax)


def test_mais_table_matches_exhaustive():
    rng = random.Random(11)
    for n, p in ((5, 0.5), (6, 0.3), (7, 0.35), (7, 0.6)):
        D = random_digraph(rng, n, p)
        table = _mais_table(D.out_masks, D.in_masks, n)
        for mask in range(full_mask(n) + 1):
            # the largest submask of mask that induces no cycle
            sub, best = mask, 0
            while True:
                if sub.bit_count() > best and is_acyclic_mask(D.in_masks, sub):
                    best = sub.bit_count()
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            assert table[mask] == best, (n, p, mask)


def test_dense_twelve_vertex_instance_is_certified_optimal():
    # once more than 15 minutes of unbounded search; the subset MAIS bound
    # settles it in well under a second
    D = random_digraph(random.Random(12), 12, 0.4)
    assert len(D.arcs) == 57
    plan = find_icc_subgraphs(D)
    assert_plan_shape(D, plan)
    assert plan.savings == 5
    assert verify_code(D, assemble_code(D, plan))
    assert plan_length(D, plan) == 7 == mais(D)


def reference_greedy_plan(D, merge_bound=DEFAULT_EXACT_BOUND):
    """Greedy plan by repeated shortest_cycle_mask, then every pair of
    pieces tried for a merge, with no prefilter."""
    out_m = D.out_masks
    pool = full_mask(D.n)
    found = []
    while True:
        cyc = shortest_cycle_mask(out_m, pool)
        if cyc is None:
            break
        found.append((2, *cycle_to_template(Cycle(cyc), (len(cyc) + 1) // 2)))
        for v in cyc:
            pool &= ~(1 << (v - 1))

    def vmask(lab):
        return sum(1 << (v - 1) for v in lab.values())

    search = _EmbeddingSearch(out_m, D.in_masks)
    merged = True
    while merged:
        merged = False
        for a in range(len(found)):
            for b in range(a + 1, len(found)):
                union = vmask(found[a][2]) | vmask(found[b][2])
                if bin(union).count("1") > merge_bound:
                    continue
                got = search.max_piece(union, found[a][0] + found[b][0])
                if got is not None:
                    found[a] = got
                    del found[b]
                    merged = True
                    break
            if merged:
                break
    return make_plan(D, [(T, lab) for _, T, lab in found])


@st.composite
def greedy_digraphs(draw, max_n=40):
    n = draw(st.integers(0, max_n))
    return random_digraph(random.Random(draw(st.integers(0, 2**32))), n, draw(st.floats(0.0, 1.0)) ** 2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(greedy_digraphs(), st.sampled_from([4, 8, DEFAULT_EXACT_BOUND]))
def test_greedy_plan_matches_reference(D, bound):
    assert repr(find_icc_subgraphs(D, "greedy", bound)) == repr(reference_greedy_plan(D, bound))


@pytest.mark.parametrize("n", [100, 130, 160])
def test_greedy_plan_matches_reference_at_scale(n):
    D = random_digraph(random.Random(n), n, 7.5 / (n - 1))
    assert repr(find_icc_subgraphs(D, "greedy")) == repr(reference_greedy_plan(D))


def count_max_piece_calls(monkeypatch):
    calls = []
    real = _EmbeddingSearch.max_piece

    def counted(self, mask, *args):
        calls.append(mask)
        return real(self, mask, *args)

    monkeypatch.setattr(_EmbeddingSearch, "max_piece", counted)
    return calls


def test_greedy_skips_pieces_linked_one_way(monkeypatch):
    # 2-cycles {1, 2} and {3, 4} with arcs 2 -> 3 and 1 -> 4 only
    D = new_digraph(4, [(1, 2), (2, 1), (3, 4), (4, 3), (2, 3), (1, 4)])
    calls = count_max_piece_calls(monkeypatch)
    plan = find_icc_subgraphs(D, "greedy")
    assert calls == []
    assert [T.k for T, _ in plan.pieces] == [2, 2]


def test_greedy_keeps_accepted_merges(monkeypatch):
    # greedy packs two 4-cycles of gap_family(4), then merges them into a k = 4 piece
    D = gap_family(4)
    calls = count_max_piece_calls(monkeypatch)
    plan = find_icc_subgraphs(D, "greedy")
    assert calls == [full_mask(8)]
    assert [T.k for T, _ in plan.pieces] == [4] and plan.uncovered == ()
    assert repr(plan) == repr(reference_greedy_plan(D))
