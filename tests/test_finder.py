import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ungated_pack_pieces
from iccover.digraph import Cycle, _cyclic_parts, _greedy_clique_partition, full_mask, is_acyclic_mask, iter_mask_vertices, new_digraph, shortest_cycle_mask
from iccover.errors import EmbeddingError, SizeRefusal
from iccover.finder import (
    DEFAULT_EXACT_BOUND,
    _EmbeddingSearch,
    _exact_cover,
    _mais_table,
    find_icc_subgraphs,
    make_plan,
    pack_pieces,
)
from iccover.oracles import mais, verify_code
from iccover.schemes import assemble_code, clique_cover, cycle_cover, gap_family, icc_cover, plan_length
from iccover.template import build_digraph, check_embedding, clique_to_template, cycle_to_template


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
                return found
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
            c = emb[p][0].k - 1 + best[mask ^ p]
            if c > b:
                b, t = c, p
        best[mask], take[mask] = b, t
    pieces = []
    mask = full
    while mask:
        p = take[mask]
        if p:
            pieces.append(emb[p])
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


class UncutSearch(_EmbeddingSearch):
    """_EmbeddingSearch whose main-path growth and connector placement
    carry no cut: every main-path shape builds its path sets, and every
    pivot tries the pivot paths of every open pair, until _finalize
    accepts one."""

    def _grow(self, i, pool):
        paths = self.paths
        if i == len(paths):
            return self._place({}, pool, [sum(1 << (v - 1) for v in p) for p in paths])
        got = self._grow(i + 1, pool)
        if got is not None:
            return got
        for u in iter_mask_vertices(self.in_m[paths[i][0]] & pool):
            paths[i].insert(0, u)
            got = self._grow(i, pool & ~(1 << (u - 1)))
            if got is not None:
                return got
            paths[i].pop(0)
        return None

    def _place(self, conn, pool, path_sets):
        if pool == 0:
            return self._finalize(conn)
        pivot_bit = pool & -pool
        for (i, j) in self.allpairs:
            if (i, j) in conn:
                continue
            starts = self.out_m[self.terms[i - 1]]
            for vs in self._pivot_paths([pivot_bit.bit_length()], pool ^ pivot_bit, starts, path_sets[j - 1]):
                conn[(i, j)] = vs
                got = self._place(conn, pool & ~sum(1 << (v - 1) for v in vs), path_sets)
                if got is not None:
                    return got
                del conn[(i, j)]
        return None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(digraphs(max_n=6))
def test_embed_matches_uncut_connector_search(D):
    # the production _grow and _place cut branches; the result of every
    # terminal set must not change
    search = _EmbeddingSearch(D.out_masks, D.in_masks)
    uncut = UncutSearch(D.out_masks, D.in_masks)
    for mask in range(1, full_mask(D.n) + 1):
        verts = [v for v in range(1, D.n + 1) if mask >> (v - 1) & 1]
        for k in range(2, len(verts) + 1):
            for terms in combinations(verts, k):
                assert search._embed(mask, terms) == uncut._embed(mask, terms), (mask, terms)


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


# ---------- the packing DP's cap gate ----------
# pack_pieces asks its hook only where caps[mask] > b.  A hook whose
# worths keep to their caps has nothing to offer elsewhere, so the gated
# DP must choose what the ungated reference, asking on every mask, does.


@st.composite
def capped_worths(draw):
    # a drawn seed, as in seeded_digraphs: worths[mask] <= caps[mask] on all 2^n masks
    n, top, rng = draw(st.integers(0, 8)), draw(st.integers(0, 4)), random.Random(draw(st.integers(0, 2**32)))
    caps = [rng.randint(0, top) for _ in range(1 << n)]
    return caps, [rng.randint(0, c) for c in caps]


def worth_hook(worths, asked):
    def new_piece(mask, b):
        asked.append((mask, b))
        return worths[mask] if worths[mask] > b else 0

    return new_piece


@settings(max_examples=300, deadline=None, derandomize=True)
@given(capped_worths())
def test_pack_pieces_chooses_what_the_ungated_dp_chooses(caps_worths):
    caps, worths = caps_worths
    asked, every = [], []
    got = pack_pieces(caps, worth_hook(worths, asked))
    assert got == ungated_pack_pieces(caps, worth_hook(worths, every))
    assert all(caps[mask] > b for mask, b in asked)
    assert len(every) == len(caps) - 1


def test_pack_pieces_gate_drops_a_worth_above_its_cap():
    # caps of 1, as cycle packing passes: the piece on {1, 2} already gives
    # {1, 2, 3} a split worth its cap of 1, so the DP never asks there for
    # the worth of 2 that breaks that cap
    caps = [1] * 8
    kept, over = [0, 0, 0, 1, 0, 0, 0, 1], [0, 0, 0, 1, 0, 0, 0, 2]
    assert pack_pieces(caps, worth_hook(kept, [])) == ungated_pack_pieces(caps, worth_hook(kept, [])) == [0b011]
    assert pack_pieces(caps, worth_hook(over, [])) == [0b011]
    assert ungated_pack_pieces(caps, worth_hook(over, [])) == [0b111]


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


def test_exact_search_holds_no_embedding_beyond_the_plan():
    # in K_10 a piece beats its split on every mask of two or more
    # vertices; keeping each one's template and labeling until the DP
    # ends peaked at about 3 MiB, a worth per piece stays far below 1 MiB
    n = 10
    D = new_digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v])
    _cyclic_parts.cache_clear()
    _exact_cover.cache_clear()
    tracemalloc.start()
    try:
        plan = find_icc_subgraphs(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [T.k for T, _ in plan.pieces] == [n] and plan.uncovered == ()
    assert peak < 1 << 20, f"peak {peak / (1 << 20):.2f} MiB"


def reference_greedy_plan(D, merge_bound=DEFAULT_EXACT_BOUND):
    """Greedy plan by repeated shortest_cycle_mask, then every pair of
    pieces tried for a merge, with no prefilter; the greedy clique
    partition's groups of two or more instead when they save strictly
    more."""
    out_m = D.out_masks
    pool = full_mask(D.n)
    found = []
    while True:
        cyc = shortest_cycle_mask(out_m, pool)
        if cyc is None:
            break
        found.append(cycle_to_template(Cycle(cyc), (len(cyc) + 1) // 2))
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
                union = vmask(found[a][1]) | vmask(found[b][1])
                if bin(union).count("1") > merge_bound:
                    continue
                got = search.max_piece(union, found[a][0].k + found[b][0].k)
                if got is not None:
                    found[a] = got
                    del found[b]
                    merged = True
                    break
            if merged:
                break
    groups = [g for g in _greedy_clique_partition(D) if len(g) >= 2]
    if sum(len(g) - 1 for g in groups) > sum(T.k - 1 for T, _ in found):
        return make_plan(D, [clique_to_template(D, g) for g in groups])
    return make_plan(D, found)


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


def count_max_piece_calls(monkeypatch, with_args=False):
    calls = []
    real = _EmbeddingSearch.max_piece

    def counted(self, mask, *args):
        calls.append((mask, *args) if with_args else mask)
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


def test_greedy_never_retries_a_failed_merge(monkeypatch):
    # a dense draw, where most pairs fail and every merge rescans them
    D = random_digraph(random.Random(400), 60, 0.5)
    calls = count_max_piece_calls(monkeypatch, with_args=True)
    plan = find_icc_subgraphs(D, "greedy")
    assert len(calls) > 100
    assert len(set(calls)) == len(calls)
    monkeypatch.undo()
    assert repr(plan) == repr(reference_greedy_plan(D))


def test_exact_search_cuts_main_paths_as_they_stop(monkeypatch):
    # the bare-pair count is checked as each main path stops: checked only
    # once every path is built, this draw takes 8,912 _grow calls
    D = random_digraph(random.Random(1), 14, 0.5)
    calls = []
    real = _EmbeddingSearch._grow

    def counted(self, *args):
        calls.append(None)
        return real(self, *args)

    _cyclic_parts.cache_clear()
    _exact_cover.cache_clear()
    monkeypatch.setattr(_EmbeddingSearch, "_grow", counted)
    plan = icc_cover(D, "exact", exact_bound=14)
    assert [T.k for T, _ in plan.pieces] == [3, 3, 2, 3]
    assert len(calls) <= 4000


@settings(max_examples=150, deadline=None, derandomize=True)
@given(greedy_digraphs())
def test_icc_is_never_longer_than_cycle_or_clique_cover(D):
    # ICC generalizes both, in either mode; exact mode only where it is quick
    for mode in ("greedy", "exact") if D.n <= 8 else ("greedy",):
        l_cyc, l_cc, l_icc = (plan_length(D, cover(D, mode)) for cover in (cycle_cover, clique_cover, icc_cover))
        assert l_icc <= min(l_cyc, l_cc), mode
