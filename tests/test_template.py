import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import template_arcs
from iccover.digraph import MAX_N, Cycle, new_digraph, side_info
from iccover.errors import EmbeddingError, FormatError, InvalidDigraph, InvalidTemplate
from iccover.template import (
    SHARED_SHAPE_MAX,
    IccTemplate,
    _arc_index,
    build_digraph,
    canonical_labeling,
    check_embedding,
    clique_to_template,
    cycle_to_template,
    parse_template,
    random_template,
    serialize_template,
    validate_template,
)

GOOD = IccTemplate(
    2,
    (2, 1),
    {(1, 2): 1},
    {(1, 2): 1, (2, 1): 1},
)


def test_good_template_properties():
    assert validate_template(GOOD) == []
    assert GOOD.n == 4
    assert GOOD.n_i(1) == 2 and GOOD.n_ij(1, 2) == 1 and GOOD.n_ij(2, 1) == 0
    assert GOOD.q(1, 2) == 1
    assert GOOD.pairs() == [(1, 2), (2, 1)]
    assert GOOD.terminal(1) == (1, 2) and GOOD.terminal(2) == (2, 1)
    assert len(GOOD.coords()) == 4


def test_single_path_template():
    # k=1 has no pairs and no landing condition
    T = IccTemplate(1, (3,))
    assert validate_template(T) == []
    D, lab = build_digraph(T)
    assert D.n == 3 and D.arcs == frozenset({(1, 2), (2, 3)})


@pytest.mark.parametrize(
    "T",
    [
        IccTemplate(0, ()),
        IccTemplate(2, (1,)),
        IccTemplate(2, (0, 1), {}, {(1, 2): 1, (2, 1): 1}),
        # missing attach entry
        IccTemplate(2, (1, 1), {}, {(1, 2): 1}),
        # attach position beyond the target path
        IccTemplate(2, (1, 1), {}, {(1, 2): 2, (2, 1): 1}),
        # attach position 0, with every first vertex targeted otherwise
        IccTemplate(3, (1, 1, 1), {}, {(1, 2): 1, (1, 3): 1, (2, 1): 1, (2, 3): 0, (3, 1): 1, (3, 2): 1}),
        # bool attach position
        IccTemplate(2, (1, 1), {}, {(1, 2): True, (2, 1): 1}),
        # nobody lands on path 2's first vertex
        IccTemplate(3, (1, 2, 1), {}, {(1, 2): 2, (1, 3): 1, (2, 1): 1, (2, 3): 1, (3, 1): 1, (3, 2): 2}),
        # negative connector length
        IccTemplate(2, (1, 1), {(1, 2): -1}, {(1, 2): 1, (2, 1): 1}),
        # stray connector key
        IccTemplate(2, (1, 1), {(1, 1): 1}, {(1, 2): 1, (2, 1): 1}),
        # stray attach key
        IccTemplate(2, (1, 1), {}, {(1, 2): 1, (2, 1): 1, (3, 1): 1}),
    ],
)
def test_validate_rejects(T):
    assert validate_template(T) != []


def test_template_arcs_counts():
    # one internal path arc, entry + landing for the (1,2) connector,
    # and the direct (2,1) attachment
    assert len(template_arcs(GOOD)) == 4


def test_build_digraph_canonical():
    D, lab = build_digraph(GOOD)
    assert lab == canonical_labeling(GOOD)
    assert D.n == GOOD.n
    assert sorted(lab.values()) == list(range(1, GOOD.n + 1))
    assert check_embedding(D, GOOD, lab)
    # the terminal of each main path sees the first vertex of every other
    assert lab[(2, 1)] in side_info(D, lab[GOOD.terminal(1)]) or GOOD.n_ij(1, 2) > 0


def test_check_embedding_rejects():
    D, lab = build_digraph(GOOD)
    bad = dict(lab)
    v = bad.pop(GOOD.terminal(1))
    assert not check_embedding(D, GOOD, bad)  # misses a coordinate
    bad[GOOD.terminal(1)] = bad[(1, 1)]
    assert not check_embedding(D, GOOD, bad)  # not injective
    # break an arc: swap two labels
    swapped = dict(lab)
    swapped[(1, 1)], swapped[GOOD.terminal(1)] = swapped[GOOD.terminal(1)], swapped[(1, 1)]
    assert not check_embedding(D, GOOD, swapped)
    # extra host arcs are fine
    bigger = new_digraph(D.n, set(D.arcs) | {(lab[(1, 1)], lab[(2, 1)])})
    assert check_embedding(bigger, GOOD, lab)


@pytest.mark.parametrize("L", range(2, 8))
def test_cycle_to_template(L):
    cyc = Cycle(tuple(range(1, L + 1)))
    for split in range(1, L):
        T, lab = cycle_to_template(cyc, split)
        assert validate_template(T) == []
        assert T.k == 2 and T.n == L
        D = new_digraph(L, [(i, i % L + 1) for i in range(1, L + 1)])
        assert check_embedding(D, T, lab)


def test_cycle_to_template_bad_split():
    cyc = Cycle((1, 2, 3))
    # True == 1 and hashes alike: letting it through would file a template
    # with a bool path length under the key of the (1, 2) shape
    for split in (0, 3, True, 1.0, "1"):
        with pytest.raises(InvalidTemplate):
            cycle_to_template(cyc, split)
    T, _ = cycle_to_template(cyc, 1)
    assert T.type_i == (1, 2) and type(T.type_i[0]) is int and validate_template(T) == []


@pytest.mark.parametrize("L", range(1, 7))
def test_clique_to_template(L):
    D = new_digraph(L, [(u, v) for u in range(1, L + 1) for v in range(1, L + 1) if u != v])
    T, lab = clique_to_template(D, range(1, L + 1))
    assert validate_template(T) == []
    assert T.k == L and T.n == L
    assert all(ni == 1 for ni in T.type_i)
    assert check_embedding(D, T, lab)


def test_clique_to_template_rejects():
    D = new_digraph(3, [(1, 2), (2, 1), (2, 3)])
    with pytest.raises(EmbeddingError):
        clique_to_template(D, [1, 2, 3])
    with pytest.raises(InvalidDigraph):
        clique_to_template(D, [1, 7])


def test_clique_to_template_names_the_first_missing_arc():
    # pairs (u, v) in ascending order: (1,3) is missing before (3,1) and (3,2)
    D = new_digraph(3, [(1, 2), (2, 1), (2, 3)])
    with pytest.raises(EmbeddingError, match=r"missing arc \(1,3\)$"):
        clique_to_template(D, [3, 2, 1])
    with pytest.raises(EmbeddingError, match=r"missing arc \(2,3\)$"):
        clique_to_template(new_digraph(3, [(1, 2), (2, 1), (1, 3), (3, 1)]), [1, 2, 3])


def test_pieces_of_one_shape_share_one_template():
    T, lab = cycle_to_template(Cycle((1, 2, 3, 4, 5)), 3)
    U, other = cycle_to_template(Cycle((9, 7, 8, 6, 10)), 3)
    assert U is T and other != lab
    assert T == IccTemplate(2, (3, 2), {}, {(1, 2): 1, (2, 1): 1})
    assert cycle_to_template(Cycle((1, 2, 3, 4, 5)), 2)[0] is not T
    K = new_digraph(7, [(u, v) for u in range(1, 8) for v in range(1, 8) if u != v])
    C, clab = clique_to_template(K, [1, 2, 3])
    assert clique_to_template(K, [7, 5, 6])[0] is C and clique_to_template(K, [1, 2])[0] is not C
    ring = new_digraph(10, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (9, 7), (7, 8), (8, 6), (6, 10), (10, 9)])
    assert check_embedding(ring, T, lab) and check_embedding(ring, U, other)
    assert check_embedding(K, C, clab)
    for shared in (T, C):
        assert shared._sound is True and validate_template(shared) == []
    # pieces above SHARED_SHAPE_MAX vertices get templates of their own
    big = SHARED_SHAPE_MAX + 1
    K = new_digraph(big, [(u, v) for u in range(1, big + 1) for v in range(1, big + 1) if u != v])
    for make in (lambda: clique_to_template(K, range(1, big + 1)), lambda: cycle_to_template(Cycle(tuple(range(1, big + 1))), 1)):
        first, second = make()[0], make()[0]
        assert first == second and first is not second


def test_random_template_size_bound():
    assert random_template(3, seed=1).k == 3
    for k, path_len in ((MAX_N + 1, 1), (10**9, 1), (2, 10**9)):
        with pytest.raises(InvalidTemplate, match=f"limit of {MAX_N}"):
            random_template(k, path_len)


def test_template_size_bound():
    assert validate_template(IccTemplate(1, (MAX_N,))) == []
    assert validate_template(IccTemplate(2, (1, 1), {(1, 2): MAX_N - 2}, {(1, 2): 1, (2, 1): 1})) == []
    over = IccTemplate(2, (1, 1), {(1, 2): MAX_N - 1}, {(1, 2): 1, (2, 1): 1})
    assert validate_template(over) == [f"template has {MAX_N + 1} vertices, above the limit of {MAX_N}"]
    # main paths alone over the limit stop validation before the k(k - 1) pairs
    wide = IccTemplate(10**5, (1,) * 10**5)
    assert validate_template(wide) == [f"template has at least {10**5} vertices, above the limit of {MAX_N}"]
    for T in (over, wide, IccTemplate(1, (10**9,))):
        with pytest.raises(InvalidTemplate):
            build_digraph(T)


def test_random_template_valid_and_deterministic(corpus):
    for T in corpus:
        assert validate_template(T) == []
    ks = {T.k for T in corpus}
    assert ks == {1, 2, 3, 4, 5}
    a = random_template(3, 3, 0.2, seed=17)
    b = random_template(3, 3, 0.2, seed=17)
    assert a == b


def test_serialize_template_roundtrip(corpus):
    for T in corpus[:25]:
        s = serialize_template(T)
        back = parse_template(s)
        assert back == T
        assert serialize_template(back) == s


@pytest.mark.parametrize(
    "text",
    [
        "",
        "[1,2]",
        '{"k":1}',
        '{"k":1,"typeI":[1],"typeII":{"bogus":1},"attach":{}}',
        '{"k":1,"typeI":[1],"typeII":{"1,2":"x"},"attach":{}}',
        '{"k":2,"typeI":[1,1],"attach":{"1,2":1,"2,1":1},"x":0}',
        '{"k":1,"typeI":[1],"typeII":[]}',
        '{"k":1,"typeI":[1],"attach":5}',
    ],
)
def test_parse_template_rejects(text):
    with pytest.raises(FormatError):
        parse_template(text)


def test_parse_template_defers_semantic_checks():
    # shape-valid JSON parses even when the template itself is broken
    T = parse_template('{"k":2,"typeI":[1,1],"attach":{"1,2":1}}')
    assert validate_template(T) != []


# ---------- differential checks against the routines before the fast path ----------


def _count(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _reference_validate_template(T):
    if not _count(T.k) or T.k < 1:
        return [f"k must be a positive integer, got {T.k!r}"]
    problems = []
    if len(T.type_i) != T.k:
        problems.append(f"expected {T.k} main-path lengths, got {len(T.type_i)}")
    else:
        for idx, ln in enumerate(T.type_i, start=1):
            if not _count(ln) or ln < 1:
                problems.append(f"main path {idx}: length must be >= 1, got {ln!r}")
    if problems:
        return problems
    pairs = [(i, j) for i in range(1, T.k + 1) for j in range(1, T.k + 1) if i != j]
    valid_pairs = set(pairs)
    for key in sorted(T.type_ii, key=repr):
        val = T.type_ii[key]
        if key not in valid_pairs:
            problems.append(f"connector for nonexistent pair {key!r}")
        elif not _count(val) or val < 0:
            problems.append(f"connector {key}: length must be >= 0, got {val!r}")
    for key in sorted(T.attach, key=repr):
        if key not in valid_pairs:
            problems.append(f"attachment for nonexistent pair {key!r}")
    for (i, j) in pairs:
        if (i, j) not in T.attach:
            problems.append(f"pair ({i},{j}): no attachment point")
            continue
        q = T.attach[(i, j)]
        if not _count(q) or not 1 <= q <= T.type_i[j - 1]:
            problems.append(f"pair ({i},{j}): attachment {q!r} out of range 1..{T.type_i[j - 1]}")
    if problems:
        return problems
    if T.k >= 2:
        for j in range(1, T.k + 1):
            if not any(T.attach[(i, j)] == 1 for i in range(1, T.k + 1) if i != j):
                problems.append(f"main path {j}: first vertex never targeted by an attachment")
    return problems


def _reference_coords(T):
    out = []
    for i in range(1, T.k + 1):
        out.extend((i, a) for a in range(1, T.type_i[i - 1] + 1))
    for i in range(1, T.k + 1):
        for j in range(1, T.k + 1):
            if i != j:
                out.extend((i, j, a) for a in range(1, T.type_ii.get((i, j), 0) + 1))
    return out


ODD = st.sampled_from([0, -1, True, False, 1.0, None, "1", 99])


@st.composite
def rough_templates(draw):
    """Templates that are sound about half the time, with one or more
    defects otherwise: foreign pair keys, out-of-range, bool or missing
    attachments, negative or non-integer lengths.  Float keys equal to a
    pair are not defects: dict lookups by the int pair find them."""
    k = draw(st.one_of(st.integers(1, 5), st.integers(1, 5), st.sampled_from([0, -1, True, 2.0])))
    if not _count(k) or k < 1:
        return IccTemplate(k, (1,))
    lengths = [draw(st.integers(1, 3)) for _ in range(k)]
    type_i = list(lengths)
    pairs = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j]
    type_ii = {p: draw(st.integers(0, 2)) for p in pairs if draw(st.booleans())}
    attach = {(i, j): draw(st.integers(1, lengths[j - 1])) for (i, j) in pairs}
    landing = [((j % k) + 1, j) for j in range(1, k + 1)] if k >= 2 and draw(st.integers(0, 3)) else []
    for p in landing:
        attach[p] = 1  # every first vertex targeted
    spare = [p for p in pairs if p not in landing] or pairs
    foreign = st.sampled_from([(1, 1), (0, 1), (k + 1, 1), (1, k + 1), (1, 2, 3), "1,2", (1.0, 2)])
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        kind = draw(st.integers(0, 8))
        if kind == 0 and type_i:
            type_i[draw(st.integers(0, len(type_i) - 1))] = draw(ODD)
        elif kind == 1:
            type_i.append(1) if draw(st.booleans()) or not type_i else type_i.pop()
        elif kind == 2:
            type_ii[draw(foreign)] = draw(st.integers(0, 2))
        elif kind == 3 and pairs:
            type_ii[draw(st.sampled_from(pairs))] = draw(ODD)
        elif kind == 4:
            attach[draw(foreign)] = 1
        elif kind == 5 and pairs:
            attach.pop(draw(st.sampled_from(pairs)), None)
        elif kind == 6 and pairs:
            attach[draw(st.sampled_from(spare))] = draw(ODD)
        elif kind == 7 and pairs:
            p = draw(st.sampled_from(spare))
            attach[p] = draw(st.sampled_from([0, lengths[p[1] - 1] + 1]))
        elif kind == 8 and pairs:
            # a key equal to a pair but holding floats
            p = draw(st.sampled_from(pairs))
            store = type_ii if p in type_ii and draw(st.booleans()) else attach
            if p in store:  # an earlier defect may have dropped the attachment
                store[(float(p[0]), float(p[1]))] = store.pop(p)
    return IccTemplate(k, tuple(type_i), type_ii, attach)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(rough_templates())
def test_validate_template_matches_reference(T):
    expected = _reference_validate_template(T)
    # the second call reads the verdict the first one cached
    assert validate_template(T) == expected
    assert validate_template(T) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rough_templates())
def test_coords_match_reference(T):
    try:
        expected = _reference_coords(T)
    except (TypeError, IndexError):
        return  # the full walk raised on a malformed template; no order to compare
    assert T.coords() == expected
    assert T.coords() == expected  # from the cached tuple


def test_rough_templates_cover_sound_and_unsound():
    seen = {True: 0, False: 0}

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rough_templates())
    def tally(T):
        seen[validate_template(T) == []] += 1

    tally()
    assert seen[True] >= 30 and seen[False] >= 30


def test_validate_accepts_float_keys_equal_to_pairs():
    T = IccTemplate(2, (1, 1), {(1.0, 2.0): 1}, {(1, 2): 1, (2.0, 1.0): 1})
    assert validate_template(T) == _reference_validate_template(T) == []
    assert T.coords() == _reference_coords(T) == [(1, 1), (2, 1), (1, 2, 1)]


# ---------- immutability: each verdict is computed once per value ----------


def test_template_maps_are_read_only():
    T = IccTemplate(2, (2, 1), {(1, 2): 1}, {(1, 2): 1, (2, 1): 1})
    for view in (T.attach, T.type_ii):
        with pytest.raises(TypeError):
            view[(1, 2)] = 2
        with pytest.raises(TypeError):
            del view[(1, 2)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        T.attach = {}
    assert T == GOOD and validate_template(T) == []


@pytest.mark.parametrize("read_first", [True, False], ids=["cached", "fresh"])
def test_constructor_dicts_are_copied(read_first):
    type_ii, attach = {(1, 2): 1}, {(1, 2): 1, (2, 1): 1}
    T = IccTemplate(2, [2, 1], type_ii, attach)
    if read_first:
        assert validate_template(T) == [] and T.coords() == [(1, 1), (1, 2), (2, 1), (1, 2, 1)]
    type_ii[(1, 2)] = 3
    type_ii[(2, 1)] = 1
    attach[(1, 2)] = 9
    del attach[(2, 1)]
    assert T == GOOD
    assert validate_template(T) == []
    assert T.coords() == [(1, 1), (1, 2), (2, 1), (1, 2, 1)]
    coords = T.coords()
    coords.append((3, 1))  # a caller's list, not the cache
    assert len(T.coords()) == 4


def test_replace_gets_its_own_verdict():
    assert validate_template(GOOD) == []
    broken = dataclasses.replace(GOOD, attach={(1, 2): 2, (2, 1): 1})
    assert validate_template(broken) == _reference_validate_template(broken) != []
    mended = dataclasses.replace(broken, attach={(1, 2): 1, (2, 1): 1})
    assert validate_template(mended) == [] and mended == GOOD
    longer = dataclasses.replace(GOOD, type_i=(3, 1))
    assert longer.coords() == _reference_coords(longer) != GOOD.coords()
    assert validate_template(GOOD) == []


BROKEN = IccTemplate(2, (1, 1), {(1, 1): 1}, {(1, 2): 1})


@pytest.mark.parametrize("T", [GOOD, BROKEN, random_template(5, 3, 0.5, seed=3)], ids=["good", "broken", "random"])
@pytest.mark.parametrize("read_first", [True, False], ids=["cached", "fresh"])
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda T: pickle.loads(pickle.dumps(T))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_and_pickle_round_trip(T, read_first, clone):
    T = dataclasses.replace(T)  # a new value, with nothing computed yet
    if read_first:
        validate_template(T), T.coords()
    U = clone(T)
    assert U == T and type(U) is IccTemplate
    assert validate_template(U) == validate_template(T)
    assert U._sound == T._sound == (validate_template(T) == [])
    assert U.coords() == T.coords()
    with pytest.raises(TypeError):
        U.attach[(1, 2)] = 1


# ---------- the index-form arc list against the coordinate walk ----------


def _reference_template_arcs(T):
    """template_arcs as the coordinate walk listed it before the index form."""
    arcs = []
    for i in range(1, T.k + 1):
        arcs += [((i, a), (i, a + 1)) for a in range(1, T.n_i(i))]
    for (i, j) in T.pairs():
        arcs += [((i, j, a), (i, j, a + 1)) for a in range(1, T.n_ij(i, j))]
    for (i, j) in T.pairs():
        nij, q = T.n_ij(i, j), T.q(i, j)
        if nij >= 1:
            arcs += [(T.terminal(i), (i, j, 1)), ((i, j, nij), (j, q))]
        else:
            arcs.append((T.terminal(i), (j, q)))
    return arcs


def _reference_check_embedding(D, T, labeling):
    """check_embedding as a scan of D's arc set over the coordinate walk."""
    try:
        ids = [labeling[c] for c in T.coords()]
    except KeyError:
        return False
    if len(set(ids)) != len(ids) or not all(_count(v) and 1 <= v <= D.n for v in ids):
        return False
    return all((labeling[a], labeling[b]) in D.arcs for a, b in _reference_template_arcs(T))


@st.composite
def sound_templates(draw):
    """random_template draws with zero-length connectors spelled out and
    some keys stored as equal float pairs."""
    k = draw(st.integers(1, 5))
    T = random_template(k, draw(st.integers(1, 3)), draw(st.sampled_from([0.0, 0.4, 1.0])), draw(st.integers(0, 2**16)))
    type_ii, attach = dict(T.type_ii), dict(T.attach)
    for p in T.pairs():
        if p not in type_ii and draw(st.booleans()):
            type_ii[p] = 0
    for store in (type_ii, attach):
        for p in list(store):
            if draw(st.integers(0, 3)) == 0:
                store[(float(p[0]), float(p[1]))] = store.pop(p)
    return IccTemplate(k, T.type_i, type_ii, attach)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sound_templates())
def test_arc_index_matches_coordinate_walk(T):
    assert validate_template(T) == []
    expected = _reference_template_arcs(T)
    pos = {c: p for p, c in enumerate(T.coords())}
    assert _arc_index(T) == tuple((pos[a], pos[b]) for a, b in expected)
    assert _arc_index(T) is _arc_index(T)  # set once, on the first call
    assert template_arcs(T) == expected
    D, lab = build_digraph(T)
    assert D.arcs == {(lab[a], lab[b]) for a, b in expected}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sound_templates(), st.data())
def test_check_embedding_matches_arc_set_scan(T, data):
    """Hosts are the built digraph relabeled into up to two more vertices,
    with arcs dropped and added; labelings may miss a key, repeat an id,
    hold a bool or an out-of-range id, or map arcs onto non-arcs."""
    built, lab = build_digraph(T)
    n = built.n + data.draw(st.integers(0, 2))
    perm = [0, *data.draw(st.permutations(range(1, n + 1)))]
    arcs = {(perm[u], perm[v]) for u, v in built.arcs}
    arcs -= set(data.draw(st.lists(st.sampled_from(sorted(arcs)), max_size=2))) if arcs else set()
    if n >= 2:
        extra = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda a: a[0] != a[1])
        arcs |= set(data.draw(st.lists(extra, max_size=3)))
    D = new_digraph(n, arcs)
    labeling = {c: perm[v] for c, v in lab.items()}
    coords = T.coords()
    for _ in range(data.draw(st.integers(0, 2))):
        c = data.draw(st.sampled_from(coords))
        defect = data.draw(st.sampled_from(["missing", "repeated", "bool", "low", "high", "swap"]))
        if defect == "missing":
            labeling.pop(c, None)
        elif defect == "repeated" and labeling:
            labeling[c] = data.draw(st.sampled_from(sorted(labeling.values(), key=repr)))
        elif defect == "bool":
            labeling[c] = True
        elif defect in ("low", "high"):
            labeling[c] = 0 if defect == "low" else n + 1
        elif c in labeling:
            d = data.draw(st.sampled_from(coords))
            if d in labeling:
                labeling[c], labeling[d] = labeling[d], labeling[c]
    expected = _reference_check_embedding(D, T, labeling)
    assert check_embedding(D, T, labeling) is expected
    assert check_embedding(D, T, labeling) is expected  # from the cached arc list
