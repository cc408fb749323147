import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import block_digraph, enumerate_cycles, lemma2_by_enumeration, lemma2_pins
from iccover.codec import IndexCode, CodedSymbol, encode
from iccover.digraph import full_mask, new_digraph, side_info
from iccover.finder import _exact_cover, find_icc_subgraphs
from iccover.schemes import assemble_code, clique_cover, compare, cycle_cover, gap_family, icc_cover
from iccover.errors import InvalidCode, SizeRefusal
from iccover.oracles import (
    Gf2Matrix,
    _min_cycle_cut,
    _pinned_cycles_hold,
    certify_optimality,
    check_lemma2,
    code_matrix,
    gf2_decodable,
    gf2_in_span,
    gf2_rank,
    mais,
    mais_exhaustive,
    verify_code,
)
from iccover.template import IccTemplate, build_digraph, random_template


def brute_rank(rows, ncols):
    # row space size by enumerating all combinations
    span = set()
    for bits in range(1 << len(rows)):
        acc = 0
        for i, r in enumerate(rows):
            if bits >> i & 1:
                acc ^= r
        span.add(acc)
    return len(span).bit_length() - 1


def test_gf2_rank_small_cases():
    assert gf2_rank([], 4) == 0
    assert gf2_rank([0b1010, 0b0101], 4) == 2
    assert gf2_rank([0b11, 0b10, 0b01], 2) == 2
    assert gf2_rank([0b111, 0b110, 0b001], 3) == 2


def test_gf2_rank_random_against_brute():
    rng = random.Random(21)
    for _ in range(60):
        ncols = rng.randint(1, 8)
        rows = [rng.randrange(1 << ncols) for _ in range(rng.randint(0, 6))]
        assert gf2_rank(rows, ncols) == brute_rank(rows, ncols)


def test_gf2_in_span():
    rows = [0b110, 0b011]
    assert gf2_in_span(rows, 0b101, 3)
    assert gf2_in_span(rows, 0b000, 3)
    assert not gf2_in_span(rows, 0b100, 3)


def test_gf2_matrix_validates():
    with pytest.raises(InvalidCode):
        Gf2Matrix((0b100,), 2)


def test_code_matrix(d1_template):
    T, lab = d1_template
    M = code_matrix(encode(T, lab), 6)
    assert M.ncols == 6 and len(M.rows) == 4
    bad = IndexCode((CodedSymbol({9}),))
    with pytest.raises(InvalidCode):
        code_matrix(bad, 6)


def test_gf2_in_span_against_rank():
    rng = random.Random(8)
    for _ in range(300):
        ncols = rng.randint(1, 8)
        rows = [rng.randrange(1 << (ncols + 2)) for _ in range(rng.randint(0, 6))]
        vec = rng.randrange(1 << (ncols + 2))
        # bits at or above ncols lie outside the matrix and are ignored
        assert gf2_in_span(rows, vec, ncols) == (gf2_rank(rows + [vec], ncols) == gf2_rank(rows, ncols))


def test_gf2_decodable_basics():
    # code x1+x2 with side {2} decodes 1, with nothing it does not
    M = Gf2Matrix((0b011,), 3)
    assert gf2_decodable(M, {2}, 1)
    assert not gf2_decodable(M, set(), 1)
    with pytest.raises(ValueError):
        gf2_decodable(M, {1}, 1)
    with pytest.raises(InvalidCode):
        gf2_decodable(M, {5}, 1)


def test_verify_code_reference(d1, d1_template):
    T, lab = d1_template
    code = encode(T, lab)
    res = verify_code(d1, code)
    assert res.valid and bool(res) and res.failing() == ()
    # dropping any symbol must break someone
    for i in range(code.length):
        pruned = IndexCode(tuple(s for j, s in enumerate(code.symbols) if j != i))
        res = verify_code(d1, pruned)
        assert not res.valid and res.failing() != ()


@pytest.mark.parametrize(
    "arcs,n,expected",
    [
        ([], 4, 4),
        ([(1, 2), (2, 3)], 3, 3),
        ([(1, 2), (2, 1)], 2, 1),
        ([(i, i % 5 + 1) for i in range(1, 6)], 5, 4),
        ([(u, v) for u in range(1, 5) for v in range(1, 5) if u != v], 4, 1),
    ],
)
def test_mais_known_values(arcs, n, expected):
    D = new_digraph(n, arcs)
    assert mais(D) == expected
    assert mais_exhaustive(D) == expected


def test_mais_reference_digraphs(d1, d2):
    assert mais(d1) == 4 == mais_exhaustive(d1)
    assert mais(d2) == 3 == mais_exhaustive(d2)


def test_mais_agrees_with_exhaustive_randomly():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 8)
        arcs = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if u != v and rng.random() < 0.3
        ]
        D = new_digraph(n, arcs)
        assert mais(D) == mais_exhaustive(D)


@st.composite
def seeded_digraphs(draw, max_n=12):
    # a drawn seed, not st.randoms(): that draws each of the n^2 coin flips
    n = draw(st.integers(0, max_n))
    rng, p = random.Random(draw(st.integers(0, 2**32))), draw(st.floats(0.0, 1.0))
    return new_digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and rng.random() < p])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seeded_digraphs())
def test_mais_matches_exhaustive_property(D):
    assert mais(D) == mais_exhaustive(D)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeded_digraphs(max_n=9))
def test_mais_paths_agree_after_exact_planning(D):
    # exact planning keeps mais(D) from its subset tables with its plan;
    # mais runs the branch and bound all the same, and gets that value
    find_icc_subgraphs(D)
    cut = D.n - _min_cycle_cut(D.out_masks, full_mask(D.n), 0, 0, D.n)
    assert mais(D) == cut == mais_exhaustive(D)


@st.composite
def seeded_block_digraphs(draw):
    # blocks of 1..6 vertices, at most 12 in all: strongly connected components inside the blocks
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=3).filter(lambda s: sum(s) <= 12))
    rng, p_in, p_cross = random.Random(draw(st.integers(0, 2**32))), draw(st.floats(0.3, 1.0)), draw(st.floats(0.0, 1.0))
    return block_digraph(rng, sizes, p_in, p_cross)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(seeded_digraphs(), seeded_block_digraphs()))
def test_compare_reports_the_mais_both_oracles_give(D):
    # exact compare reads mais from the ICC planner's subset tables; the
    # branch and bound and the subset scan are judged against it
    assert compare(D).mais == mais(D) == mais_exhaustive(D)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeded_digraphs(max_n=9))
def test_mais_is_the_same_whether_or_not_an_equal_digraph_was_planned(D):
    _exact_cover.cache_clear()
    cold = mais(D)
    icc_cover(new_digraph(D.n, D.arcs))  # an equal digraph, not the same object
    assert _exact_cover.cache_info().currsize == 1
    assert mais(D) == cold == _exact_cover(D)[1]


def test_oracles_import_no_planner():
    # the oracles judge the planners, so they may not read planner state
    path = Path(__file__).resolve().parents[1] / "src" / "iccover" / "oracles.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {part for alias in node.names for part in alias.name.split(".")}
        elif isinstance(node, ast.ImportFrom):
            imported |= set((node.module or "").split(".")) | {alias.name for alias in node.names}
    assert "digraph" in imported and not imported & {"finder", "schemes"}


@pytest.mark.parametrize(
    "D,expected",
    [(gap_family(k), k + 1) for k in range(2, 11)]
    + [
        (new_digraph(20, [(u, v) for u in range(1, 21) for v in range(1, 21) if u != v]), 1),
        (new_digraph(20, [(i, i % 20 + 1) for i in range(1, 21)]), 19),
        (new_digraph(20, [(u, v) for u in range(1, 21) for v in range(u + 1, 21)]), 20),  # transitive tournament
    ],
)
def test_mais_beyond_the_subset_scan(D, expected):
    # past mais_exhaustive's 12 vertices, up to mais's 20: gap_family(k) is
    # the paper's family on which ICC meets the bound with k + 1 symbols
    assert mais(D) == expected


def test_mais_bounds():
    D = new_digraph(13, [])
    with pytest.raises(SizeRefusal):
        mais_exhaustive(D)
    with pytest.raises(SizeRefusal):
        mais(new_digraph(21, []))
    assert mais(D) == 13


def test_certify_optimality(d1_template, d2_template):
    rep1 = certify_optimality(d1_template[0])
    assert rep1.optimal and rep1.length == 4 and rep1.mais_value == 4
    assert rep1.rate == 4
    rep2 = certify_optimality(d2_template[0])
    assert rep2.optimal and rep2.length == 3


def test_certify_optimality_crosses_oracles(corpus):
    for T in corpus[::7]:
        rep = certify_optimality(T)
        assert rep.optimal and rep.length == T.n - T.k + 1
        D, _ = build_digraph(T)
        if D.n <= 12:
            assert rep.mais_value == mais_exhaustive(D)


def test_check_lemma2(corpus, d1_template):
    assert check_lemma2(d1_template[0]) is True
    for T in corpus:
        D, lab = build_digraph(T)
        assert check_lemma2(T) is lemma2_by_enumeration(D, lemma2_pins(T, lab)) is True
    # 46 and 182 vertices: far more cycles than an enumeration can list
    assert check_lemma2(random_template(10, 3, 0.3, seed=1)) is True
    assert check_lemma2(random_template(12, 4, 0.5, seed=1)) is True


@st.composite
def templates_with_arcs(draw, max_n=30):
    """A random_template draw (k = 1..6, n <= max_n) and an arc (u, w), u != w, to add."""
    k = draw(st.integers(1, 6))
    T = random_template(k, draw(st.integers(1, max(1, 12 // k))), draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**32)))
    assume(2 <= T.n <= max_n)
    u = draw(st.integers(1, T.n))
    w = draw(st.integers(1, T.n - 1))
    return T, (u, w + (w >= u))


def test_lemma2_reachability_matches_enumeration_and_mutants_flip_it():
    verdicts = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(templates_with_arcs())
    def check(case):
        T, arc = case
        D, lab = build_digraph(T)
        pins = lemma2_pins(T, lab)
        assert check_lemma2(T) is _pinned_cycles_hold(D, pins) is lemma2_by_enumeration(D, pins)
        mutant = new_digraph(D.n, D.arcs | {arc})
        verdict = _pinned_cycles_hold(mutant, pins)
        assert verdict is lemma2_by_enumeration(mutant, pins), arc
        verdicts.append(verdict)

    check()
    # one added arc can close a cycle that misses a pinned terminal, so
    # the check is seen to fail as well as to pass
    assert False in verdicts and True in verdicts


def test_every_cycle_hits_two_terminals(corpus):
    # the structural fact behind the chain decoder's termination
    for T in corpus:
        D, lab = build_digraph(T)
        terminals = {lab[T.terminal(i)] for i in range(1, T.k + 1)}
        for c in enumerate_cycles(D):
            assert len(set(c.vertices) & terminals) >= min(2, T.k)


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def brute_minrank(D):
    """Least GF(2) rank over every matrix fitting D (Bar-Yossef, Birk, Jayram
    and Kol, "Index coding with side information", FOCS 2006): row i has
    bit i set, any bits of i's out-neighbours, and no others.  That is the
    shortest scalar linear index code over GF(2).

    Rows are chosen one at a time, each choice reduced against a basis of
    the rows chosen before it; every choice of every row is tried, except
    under a prefix whose rank already reaches the best found, as rank
    never falls when rows are added.
    """
    best = D.n

    def extend(i, basis):
        nonlocal best
        if len(basis) >= best:
            return
        if i > D.n:
            best = len(basis)
            return
        for sub in _submasks(D.out_masks[i]):
            row = 1 << (i - 1) | sub
            for b in basis:  # leading bits distinct and descending
                row = min(row, row ^ b)
            extend(i + 1, sorted([*basis, row], reverse=True) if row else basis)

    extend(1, [])
    return best


@st.composite
def sparse_digraphs(draw, max_n=6, max_arcs=12):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    arcs = draw(st.sets(st.sampled_from(pairs), max_size=max_arcs)) if pairs else set()
    return new_digraph(n, arcs)


def test_brute_minrank_known_values(d1, d2):
    # the reference digraphs: ICC meets mais, so minrank sits at both
    assert (brute_minrank(d1), brute_minrank(d2)) == (4, 3)
    assert brute_minrank(new_digraph(3, [(1, 2), (2, 3), (3, 1)])) == 2
    assert brute_minrank(new_digraph(3, [(u, v) for u in range(1, 4) for v in range(1, 4) if u != v])) == 1
    assert brute_minrank(new_digraph(4, [])) == 4


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_digraphs())
def test_minrank_sits_between_mais_and_every_planner(D):
    # a third judge: no scalar linear code beats mais, and every planner's
    # code is a scalar linear code, so none beats minrank (n <= 6 plans in
    # exact mode)
    r = compare(D)
    assert r.mais <= brute_minrank(D) <= r.l_icc <= min(r.l_cyc, r.l_cc)


def decodable_by_definition(rows, side, target, n):
    units = [1 << (j - 1) for j in side]
    base = gf2_rank(list(rows) + units, n)
    return gf2_rank(list(rows) + units + [1 << (target - 1)], n) == base


def assert_verdicts_match_definition(D, code):
    M = code_matrix(code, D.n)
    want = []
    for t in range(1, D.n + 1):
        side = side_info(D, t)
        ok = decodable_by_definition(M.rows, side, t, D.n)
        assert gf2_decodable(M, side, t) == ok, t
        want.append(ok)
    res = verify_code(D, code)
    assert res.verdicts == tuple(want) and res.valid == all(want)
    return res.valid


def test_decodability_matches_rank_definition_on_random_codes():
    rng = random.Random(17)
    invalid = 0
    for _ in range(400):
        n = rng.randint(1, 10)
        p = rng.random()
        D = new_digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and rng.random() < p])
        code = IndexCode(
            tuple(CodedSymbol(set(rng.sample(range(1, n + 1), rng.randint(1, n)))) for _ in range(rng.randint(0, n)))
        )
        invalid += not assert_verdicts_match_definition(D, code)
    assert 0 < invalid < 400


@pytest.mark.parametrize("n,cover", [(100, icc_cover), (110, cycle_cover), (120, clique_cover)])
def test_decodability_matches_rank_definition_on_greedy_codes(n, cover):
    rng = random.Random(n)
    D = new_digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and rng.random() < 7.0 / (n - 1)])
    code = assemble_code(D, cover(D, "greedy"))
    assert assert_verdicts_match_definition(D, code)
    # without its first symbol some receiver must fail
    assert not assert_verdicts_match_definition(D, IndexCode(code.symbols[1:]))


def reference_verdicts(D, code):
    """Verdicts by elimination over every symbol of the code, per receiver."""
    M = code_matrix(code, D.n)
    return tuple(gf2_decodable(M, side_info(D, t), t) for t in range(1, D.n + 1))


@st.composite
def digraphs_with_codes(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.floats(0.0, 1.0))
    D = new_digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and rng.random() < p])
    supports = draw(st.lists(st.frozensets(st.integers(1, n), max_size=n), max_size=n + 2))
    if supports:
        # repeated symbols
        supports += draw(st.lists(st.sampled_from(supports), max_size=3))
    return D, IndexCode(tuple(CodedSymbol(s) for s in supports))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(digraphs_with_codes())
def test_verify_code_matches_full_elimination(case):
    D, code = case
    res = verify_code(D, code)
    assert res.verdicts == reference_verdicts(D, code)
    assert res.valid == all(res.verdicts)


@pytest.mark.parametrize("n", [100, 130, 160])
@pytest.mark.parametrize("cover", [icc_cover, cycle_cover, clique_cover])
def test_verify_code_matches_full_elimination_on_greedy_codes(n, cover):
    rng = random.Random(n)
    D = new_digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and rng.random() < 7.0 / (n - 1)])
    code = assemble_code(D, cover(D, "greedy"))
    assert verify_code(D, code).verdicts == reference_verdicts(D, code)
    assert all(reference_verdicts(D, code))
    cut = IndexCode(code.symbols[1:])
    assert verify_code(D, cut).verdicts == reference_verdicts(D, cut)
