"""Acceptance gate: every criterion prints one PASS/FAIL line.

Each test computes its verdict fully before reporting, so a FAIL line
always reaches the terminal alongside the assertion detail.
"""

import random
import time

from conftest import rand_packets
from iccover.codec import (
    IndexCode,
    code_length,
    decode_receiver,
    encode,
    xor_op_count,
)
from iccover.digraph import Cycle, new_digraph, side_info
from iccover.errors import DecodeFailure, MissingCodedSymbol, MissingSidePacket
from iccover.oracles import (
    check_lemma2,
    code_matrix,
    gf2_decodable,
    gf2_rank,
    mais,
    verify_code,
)
from iccover.schemes import compare, gap_family, serialize_report
from iccover.template import build_digraph, clique_to_template, cycle_to_template


def report(capsys, num, label, ok):
    with capsys.disabled():
        print(f"acceptance {num} [{label}]: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_d1_regression(d1, d1_template, capsys):
    t0 = time.perf_counter()
    r = compare(d1)
    elapsed = time.perf_counter() - t0
    T, lab = d1_template
    supports = [sorted(s.support) for s in encode(T, lab).symbols]
    ok = (
        serialize_report(r) == '{"n":6,"l_cyc":5,"l_cc":6,"l_icc":4,"mais":4,"optimal":true}'
        and supports == [[1, 4], [2, 5], [3, 6], [1, 2, 3]]
        and elapsed < 1.0
    )
    assert report(capsys, 1, "d1 regression", ok), (serialize_report(r), supports, elapsed)


def test_criterion_2_d2_regression(d2, d2_template, capsys):
    r = compare(d2)
    T, lab = d2_template
    supports = [sorted(s.support) for s in encode(T, lab).symbols]
    ok = (
        r.l_icc == 3
        and r.mais == 3
        and r.optimal is True
        and supports == [[2, 4], [3, 5], [1, 2, 3]]
    )
    assert report(capsys, 2, "d2 regression", ok), (serialize_report(r), supports)


def test_criterion_3_length_equals_mais(corpus, capsys):
    t0 = time.perf_counter()
    failures = []
    for T in corpus:
        D, _ = build_digraph(T)
        want = T.n - T.k + 1
        if mais(D) != want or code_length(T) != want:
            failures.append(T)
    elapsed = time.perf_counter() - t0
    ok = len(corpus) >= 100 and not failures and elapsed < 60.0
    assert report(capsys, 3, "code length = acyclic bound", ok), (len(failures), elapsed)


def test_criterion_4_decode_validity(corpus, capsys):
    rng = random.Random(42)
    failures = []
    for T in corpus:
        D, lab = build_digraph(T)
        if not verify_code(D, encode(T, lab)).valid:
            failures.append((T, "verify"))
            continue
        for t in (1, 8, 64):
            pv = rand_packets(t, T.n, rng)
            code = encode(T, lab, pv)
            for v in range(1, D.n + 1):
                side = {m: pv.packet(m) for m in side_info(D, v)}
                if decode_receiver(T, lab, code, v, side) != pv.packet(v):
                    failures.append((T, t, v))
    ok = not failures
    assert report(capsys, 4, "decode everywhere", ok), failures[:3]


def structural_decode_ok(T, lab, code, v, side):
    try:
        return decode_receiver(T, lab, code, v, side) is not None
    except (MissingCodedSymbol, MissingSidePacket, DecodeFailure):
        return False


def test_criterion_5_oracle_equivalence(corpus, capsys):
    rng = random.Random(43)
    mismatches = []
    for T in corpus:
        D, lab = build_digraph(T)
        pv = rand_packets(1, T.n, rng)
        full = encode(T, lab, pv)
        full_rank = gf2_rank(list(code_matrix(full, D.n).rows), D.n)
        variants = [full]
        variants.extend(
            IndexCode(tuple(s for j, s in enumerate(full.symbols) if j != i))
            for i in range(full.length)
        )
        for code in variants:
            M = code_matrix(code, D.n)
            res = verify_code(D, code)
            for v in range(1, D.n + 1):
                side_ids = side_info(D, v)
                side = {m: pv.packet(m) for m in side_ids}
                structural = structural_decode_ok(T, lab, code, v, side)
                by_rank = gf2_decodable(M, side_ids, v)
                if structural != by_rank:
                    mismatches.append((T, v, structural, by_rank))
            if code.length < full.length:
                rank_drops = gf2_rank(list(M.rows), D.n) < full_rank
                if rank_drops != (res.failing() != ()):
                    mismatches.append((T, "rank-drop", rank_drops))
    ok = not mismatches
    assert report(capsys, 5, "rank oracle agreement", ok), mismatches[:3]


def test_criterion_6_cycle_clique_reduction(capsys):
    bad = []
    for L in range(2, 11):
        cycle_rows = [(1 << (i - 1)) | (1 << i) for i in range(1, L)]
        for split in range(1, L):
            T, lab = cycle_to_template(Cycle(tuple(range(1, L + 1))), split)
            icc_rows = list(code_matrix(encode(T, lab), L).rows)
            if len(icc_rows) != L - 1:
                bad.append((L, split, "rows"))
                continue
            joint = gf2_rank(cycle_rows + icc_rows, L)
            if not (gf2_rank(cycle_rows, L) == gf2_rank(icc_rows, L) == joint == L - 1):
                bad.append((L, split, "span"))
    for L in range(1, 9):
        K = new_digraph(L, [(u, v) for u in range(1, L + 1) for v in range(1, L + 1) if u != v])
        T, lab = clique_to_template(K, range(1, L + 1))
        code = encode(T, lab)
        if code.length != 1 or code.symbols[0].support != frozenset(range(1, L + 1)):
            bad.append((L, "clique"))
    ok = not bad
    assert report(capsys, 6, "cycle and clique reductions", ok), bad


def test_criterion_7_savings_and_cycle_structure(corpus, capsys):
    bad = []
    for T in corpus:
        if T.n - code_length(T) != T.k - 1:
            bad.append((T, "savings"))
        if check_lemma2(T) is not True:
            bad.append((T, "cycles"))
    ok = not bad
    assert report(capsys, 7, "savings and cycle structure", ok), bad[:3]


def test_criterion_8_xor_budget(corpus, capsys):
    rng = random.Random(44)
    bad = []
    for T in corpus:
        lab = build_digraph(T)[1]
        for t in (1, 8, 64):
            measured = encode(T, lab, rand_packets(t, T.n, rng)).xor_bit_ops
            if not (measured == xor_op_count(T, t) and measured <= t * (T.n - 1)):
                bad.append((T, t, measured))
    ok = not bad
    assert report(capsys, 8, "xor budget", ok), bad[:3]


def test_criterion_9_gap_growth(capsys):
    gaps = []
    ok = True
    for k in range(2, 7):
        D = gap_family(k)
        r = compare(D)
        if r.mais is None or r.l_icc != r.mais or not r.optimal:
            ok = False
            break
        gaps.append(r.l_cyc - r.l_icc)
    if ok:
        ok = (
            all(a <= b for a, b in zip(gaps, gaps[1:]))
            and all(g >= 1 for g in gaps[1:])
        )
    assert report(capsys, 9, "cycle-cover gap growth", ok), gaps
