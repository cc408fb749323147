import copy
import dataclasses
import itertools
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerate_cycles
from iccover.digraph import (
    MAX_N,
    Cycle,
    Digraph,
    _cyclic_parts,
    full_mask,
    is_acyclic_mask,
    iter_mask_vertices,
    new_digraph,
    pack_cycles,
    parse_digraph,
    serialize_digraph,
    shortest_cycle_mask,
    side_info,
    strongly_connected_mask,
)
from iccover.errors import FormatError, InvalidDigraph


def test_new_digraph_basics():
    D = new_digraph(3, [(1, 2), (2, 3), (3, 1)])
    assert D.n == 3
    assert (1, 2) in D.arcs and (2, 1) not in D.arcs
    assert D.out_neighbors(1) == {2}
    assert set(iter_mask_vertices(D.in_masks[1])) == {3}
    assert side_info(D, 2) == {3}


def test_new_digraph_deduplicates():
    D = new_digraph(2, [(1, 2), (1, 2)])
    assert len(D.arcs) == 1


@pytest.mark.parametrize(
    "n,arcs",
    [
        (-1, []),
        (2, [(1, 1)]),
        (2, [(0, 1)]),
        (2, [(1, 3)]),
        (2, [(1, "a")]),
        (MAX_N + 1, []),
        (10**9, []),
    ],
)
def test_new_digraph_rejects(n, arcs):
    with pytest.raises(InvalidDigraph):
        new_digraph(n, arcs)


def test_empty_digraph_allowed():
    D = new_digraph(0, [])
    assert D.n == 0 and D.arcs == frozenset()


def test_cycle_too_short():
    with pytest.raises(InvalidDigraph):
        Cycle((1,))


def test_enumerate_cycles_triangle_with_chord():
    D = new_digraph(3, [(1, 2), (2, 3), (3, 1), (2, 1)])
    found = {tuple(c.vertices) for c in enumerate_cycles(D)}
    assert found == {(1, 2), (1, 2, 3)}


def test_serialize_digraph_roundtrip_and_order():
    D = new_digraph(4, [(3, 1), (1, 2), (2, 3)])
    s = serialize_digraph(D)
    assert s == '{"n":4,"arcs":[[1,2],[2,3],[3,1]]}'
    assert parse_digraph(s) == D


@pytest.mark.parametrize(
    "text",
    [
        "",
        "[]",
        '{"n":2}',
        '{"arcs":[]}',
        '{"n":2,"arcs":[[1,2]],"extra":1}',
        '{"n":2,"arcs":[[1,2,3]]}',
        '{"n":2,"arcs":[[1,1]]}',
        '{"n":"2","arcs":[]}',
    ],
)
def test_parse_digraph_rejects(text):
    with pytest.raises((FormatError, InvalidDigraph)):
        parse_digraph(text)


def brute_acyclic(D, vertices):
    for order in itertools.permutations(vertices):
        pos = {v: i for i, v in enumerate(order)}
        if all(pos[u] < pos[v] for (u, v) in D.arcs if u in pos and v in pos):
            return True
    return False


def test_mask_helpers_against_brute_force():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and rng.random() < 0.4]
        D = new_digraph(n, arcs)
        out_m, in_m, arc_set = D.out_masks, D.in_masks, D.arcs
        for mask in range(1, full_mask(n) + 1):
            verts = list(iter_mask_vertices(mask))
            assert verts == sorted(verts)
            assert is_acyclic_mask(in_m, mask) == brute_acyclic(D, verts)
            cyc = shortest_cycle_mask(out_m, mask)
            if cyc is None:
                assert is_acyclic_mask(in_m, mask)
            else:
                assert not is_acyclic_mask(in_m, mask)
                assert set(cyc) <= set(verts)
                # it really is a cycle, and no strictly shorter one exists
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    assert (a, b) in arc_set
                for size in range(2, len(cyc)):
                    for sub in itertools.permutations(verts, size):
                        assert not all(
                            (a, b) in arc_set for a, b in zip(sub, sub[1:] + sub[:1])
                        )


def test_strongly_connected_mask():
    D = new_digraph(4, [(1, 2), (2, 1), (3, 4)])
    out_m, in_m = D.out_masks, D.in_masks
    assert strongly_connected_mask(out_m, in_m, 0b0011)
    assert not strongly_connected_mask(out_m, in_m, 0b1100)
    assert not strongly_connected_mask(out_m, in_m, 0b0111)
    assert strongly_connected_mask(out_m, in_m, 0b0001)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 9), st.floats(0.0, 0.6), st.randoms(use_true_random=False))
def test_cyclic_parts_are_the_strong_components(n, p, rng):
    D = new_digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and rng.random() < p])

    def reach(v):
        seen, todo = {v}, [v]
        while todo:
            for w in D.out_neighbors(todo.pop()) - seen:
                seen.add(w)
                todo.append(w)
        return seen

    reached = {v: reach(v) for v in range(1, n + 1)}
    comps = {tuple(sorted(w for w in reached[v] if v in reached[w])) for v in reached}
    _cyclic_parts.cache_clear()  # an equal digraph planned earlier would answer for D
    parts = _cyclic_parts(D)
    assert [vs for _, vs in parts] == sorted(c for c in comps if len(c) > 1)
    for P, vs in parts:
        assert (P is D) == (len(vs) == n)
        assert P.arcs == {(vs.index(u) + 1, vs.index(v) + 1) for u, v in D.arcs if u in vs and v in vs}
    assert _cyclic_parts(new_digraph(n, D.arcs)) is parts  # a one-entry memo, keyed by value


def _reference_shortest_cycle(out_m, mask):
    """All-sources dict BFS that defines the tie rule shortest_cycle_mask must match."""
    best = None
    for s in iter_mask_vertices(mask):
        sbit = 1 << (s - 1)
        dist = {s: 0}
        parent = {}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in iter_mask_vertices(out_m[u] & mask):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        closing = [u for u in dist if out_m[u] & sbit]
        if not closing:
            continue
        u = min(closing, key=lambda x: (dist[x], x))
        path = [u]
        while path[-1] != s:
            path.append(parent[path[-1]])
        cyc = tuple(reversed(path))
        key = (len(cyc), cyc)
        if best is None or key < best:
            best = key
    return None if best is None else best[1]


def _random_digraph(rng, n, p):
    return new_digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and rng.random() < p])


@st.composite
def digraphs_with_masks(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    D = _random_digraph(draw(st.randoms(use_true_random=False)), n, draw(st.floats(0.0, 0.7)))
    return D, draw(st.integers(0, full_mask(n)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(digraphs_with_masks())
def test_shortest_cycle_matches_reference(case):
    D, mask = case
    out_m = D.out_masks
    assert shortest_cycle_mask(out_m, mask) == _reference_shortest_cycle(out_m, mask)


@pytest.mark.parametrize("n", [60, 100, 160])
def test_shortest_cycle_matches_reference_over_greedy_extraction(n):
    rng = random.Random(n)
    D = _random_digraph(rng, n, 6.0 / (n - 1))
    out_m = D.out_masks
    pool = full_mask(n)
    steps = 0
    while True:
        cyc = shortest_cycle_mask(out_m, pool)
        assert cyc == _reference_shortest_cycle(out_m, pool)
        if cyc is None:
            break
        steps += 1
        for v in cyc:
            pool &= ~(1 << (v - 1))
    assert steps >= n // 10


def _reference_pack(out_m, mask):
    """Repeated shortest_cycle_mask, deleting each cycle found: what pack_cycles must return."""
    cycles = []
    while True:
        cyc = shortest_cycle_mask(out_m, mask)
        if cyc is None:
            return cycles
        cycles.append(cyc)
        for v in cyc:
            mask &= ~(1 << (v - 1))


@st.composite
def dense_digraphs_with_masks(draw, max_n=16):
    # a drawn seed, not st.randoms(): that draws each of the n^2 coin flips
    n = draw(st.integers(0, max_n))
    D = _random_digraph(random.Random(draw(st.integers(0, 2**32))), n, draw(st.floats(0.0, 1.0)))
    return D, draw(st.integers(0, full_mask(n)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(dense_digraphs_with_masks())
def test_pack_cycles_matches_repeated_shortest_cycle(case):
    D, mask = case
    assert pack_cycles(D.out_masks, mask) == _reference_pack(D.out_masks, mask)


def test_pack_cycles_fixed_cases():
    D = new_digraph(5, [(1, 4), (4, 1), (2, 3), (3, 2), (1, 2), (3, 5), (5, 1)])
    out_m = D.out_masks
    assert pack_cycles(out_m, 0) == []
    assert pack_cycles(out_m, 0b00001) == []
    # two 2-cycles tie on length: the smaller start comes first
    assert pack_cycles(out_m, full_mask(5)) == [(1, 4), (2, 3)]
    # without 4, the 2-cycle beats 1 -> 2 -> 3 -> 5 -> 1, and no cycle is left
    assert pack_cycles(out_m, 0b10111) == [(2, 3)]
    assert pack_cycles(new_digraph(1, []).out_masks, 1) == []
    # 2 -> 5 -> 4 -> 3 -> 2 is found first (the search from 2 runs one level
    # further), then 1 -> 5 -> 4 -> 6 -> 1 wins the tie and leaves it stale
    D = new_digraph(6, [(2, 5), (5, 4), (4, 3), (3, 2), (1, 5), (4, 6), (6, 1)])
    assert pack_cycles(D.out_masks, full_mask(6)) == [(1, 5, 4, 6)]


@pytest.mark.parametrize("n", [60, 100, 160, 400])
def test_pack_cycles_matches_reference_on_greedy_digraphs(n):
    rng = random.Random(n)
    for deg in (3.0, 6.0, 10.0):
        D = _random_digraph(rng, n, deg / (n - 1))
        cycles = pack_cycles(D.out_masks, full_mask(n))
        assert cycles == _reference_pack(D.out_masks, full_mask(n))
        assert len(cycles) >= n // 20


@st.composite
def digraphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    return _random_digraph(draw(st.randoms(use_true_random=False)), n, draw(st.floats(0.0, 1.0)))


def _reference_cycles(D):
    """Every vertex sequence that starts at its smallest vertex and closes into a cycle."""
    found, arcs = [], D.arcs
    for size in range(2, D.n + 1):
        for seq in itertools.permutations(range(1, D.n + 1), size):
            if seq[0] == min(seq) and all((a, b) in arcs for a, b in zip(seq, seq[1:] + seq[:1])):
                found.append(seq)
    return sorted(found, key=lambda c: (len(c), c))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(digraphs(max_n=6))
def test_enumerate_cycles_matches_brute_force(D):
    assert [c.vertices for c in enumerate_cycles(D)] == _reference_cycles(D)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(digraphs(max_n=14))
def test_masks_and_neighbors_match_arc_scan(D):
    assert len(D.out_masks) == len(D.in_masks) == D.n + 1
    assert D.out_masks[0] == D.in_masks[0] == 0
    for v in range(1, D.n + 1):
        outs = {b for a, b in D.arcs if a == v}
        ins = {a for a, b in D.arcs if b == v}
        assert D.out_masks[v] == sum(1 << (w - 1) for w in outs)
        assert D.in_masks[v] == sum(1 << (u - 1) for u in ins)
        assert D.out_neighbors(v) == side_info(D, v) == outs
        assert set(iter_mask_vertices(D.in_masks[v])) == ins
    # a value rebuilt from the derived arc set is equal and hashes alike
    fresh = new_digraph(D.n, D.arcs)
    assert D == fresh and hash(D) == hash(fresh)
    assert fresh in {D} and D.out_masks is D.out_masks


def test_masks_fixed_cases():
    D = new_digraph(3, [(1, 2), (2, 3), (3, 1), (2, 1)])
    assert D.out_masks == (0, 0b010, 0b101, 0b001)
    assert D.in_masks == (0, 0b110, 0b001, 0b010)
    assert new_digraph(0, []).out_masks == new_digraph(0, []).in_masks == (0,)
    for bad in (0, 4, True):
        with pytest.raises(InvalidDigraph):
            D.out_neighbors(bad)


# ---------- value semantics of the mask-only Digraph ----------


@st.composite
def arc_lists(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    return n, draw(st.lists(st.sampled_from(pairs), max_size=60)) if pairs else []


def _has_arc(D, u, v):
    """The arc test read off the out-masks; false for ids outside 1..n."""
    return 1 <= u <= D.n and 1 <= v <= D.n and D.out_masks[u] >> (v - 1) & 1 == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(arc_lists(), arc_lists(), st.randoms(use_true_random=False))
def test_digraph_value_semantics_match_frozenset_reference(first, second, rng):
    (n, arcs), (m, other) = first, second
    ref = frozenset(arcs)
    D = new_digraph(n, arcs)
    assert type(D.arcs) is frozenset and D.arcs == ref
    # same n and same arcs, in any order and with repeats, is the same value
    shuffled = arcs + arcs[: len(arcs) // 2]
    rng.shuffle(shuffled)
    same = new_digraph(n, shuffled)
    assert same == D and hash(same) == hash(D) and len({D, same}) == 1
    E = new_digraph(m, other)
    assert (D == E) == ((n, ref) == (m, frozenset(other)))
    if D == E:
        assert hash(D) == hash(E)
    assert new_digraph(n + 1, arcs) != D
    if arcs:
        assert new_digraph(n, ref - {arcs[0]}) != D
    for u in range(-1, n + 2):
        for v in range(-1, n + 2):
            assert _has_arc(D, u, v) == ((u, v) in ref)
    for v in range(1, n + 1):
        assert D.out_neighbors(v) == {b for a, b in ref if a == v}
        assert set(iter_mask_vertices(D.in_masks[v])) == {a for a, b in ref if b == v}
    # the serialized form is byte for byte the sorted-arc-set listing
    old = json.dumps({"n": n, "arcs": [[u, v] for (u, v) in sorted(ref)]}, separators=(",", ":"))
    assert serialize_digraph(D) == old
    assert parse_digraph(old) == D


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda D: pickle.loads(pickle.dumps(D))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize(
    "D",
    [new_digraph(0, []), new_digraph(5, [(1, 2), (2, 3), (3, 1), (1, 3), (4, 5), (5, 4)])],
    ids=["empty", "five"],
)
def test_digraph_copy_and_pickle_round_trip(clone, D):
    E = clone(D)
    assert E == D and hash(E) == hash(D) and type(E) is Digraph
    assert (E.n, E.out_masks, E.in_masks, E.arcs) == (D.n, D.out_masks, D.in_masks, D.arcs)
    assert serialize_digraph(E) == serialize_digraph(D)
    assert repr(E) == repr(D)
    for name, value in (("n", 3), ("out_masks", ()), ("arcs", frozenset())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(E, name, value)


# ---------- the vertex-count bound ----------


def test_size_bound():
    assert (MAX_N, 1) in new_digraph(MAX_N, [(MAX_N, 1)]).arcs
    assert (1, MAX_N) in parse_digraph(f'{{"n":{MAX_N},"arcs":[[1,{MAX_N}]]}}').arcs
    with pytest.raises(InvalidDigraph, match=f"vertex count {MAX_N + 1} is above the limit of {MAX_N}"):
        new_digraph(MAX_N + 1, [])
    for n in (MAX_N + 1, 10**9, 10**100):
        with pytest.raises(FormatError, match=f"above the limit of {MAX_N}"):
            parse_digraph(f'{{"n":{n},"arcs":[]}}')
