import copy
import pickle
import random
import sys
from dataclasses import replace
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_packets, template_arcs
from iccover import codec
from iccover.codec import (
    TAG_BRIDGE,
    TAG_PATH_I,
    TAG_PATH_II,
    TAG_SUM,
    TAG_UNCODED,
    IndexCode,
    CodedSymbol,
    PacketVector,
    code_length,
    decode_receiver,
    encode,
    new_packet_vector,
    packet_bytes,
    parse_code,
    parse_packets,
    parse_side,
    serialize_code,
    serialize_packets,
    serialize_side,
    xor_bytes,
    xor_op_count,
)
from iccover.digraph import new_digraph, side_info
from iccover.errors import (
    DecodeFailure,
    EmbeddingError,
    FormatError,
    InvalidCode,
    InvalidTemplate,
    MissingCodedSymbol,
    MissingSidePacket,
)
from iccover import finder
from iccover.finder import make_plan
from iccover.schemes import assemble_code, clique_cover, cycle_cover, icc_cover
from iccover.template import (
    FrozenLabeling,
    IccTemplate,
    _clique_shape,
    _cycle_shape,
    build_digraph,
    check_embedding,
    random_template,
    validate_template,
)


def test_packet_vector_validation():
    pv = new_packet_vector(8, [b"\x01", b"\x02"])
    assert pv.packet(2) == b"\x02"
    with pytest.raises(InvalidCode):
        pv.packet(0)
    with pytest.raises(InvalidCode):
        pv.packet(3)
    for bad_id in (1.5, "1", True):
        with pytest.raises(InvalidCode, match=f"^message id {bad_id!r} outside"):
            pv.packet(bad_id)
    with pytest.raises(InvalidCode, match="^message id .* outside"):
        pv.packet(10**5000)  # beyond the digit limit of str()
    with pytest.raises(InvalidCode):
        new_packet_vector(0, [])
    with pytest.raises(InvalidCode):
        new_packet_vector(8, [b"\x01\x02"])  # wrong width
    with pytest.raises(InvalidCode):
        new_packet_vector(3, [b"\x09"])  # padding bit set
    with pytest.raises(InvalidCode):
        new_packet_vector(8, ["ff"])


def test_xor_bytes():
    assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"
    # leading and trailing zero bytes survive the int round trip
    assert xor_bytes(b"\x00\x01\x00", b"\x00\x00\x00") == b"\x00\x01\x00"
    assert xor_bytes(b"", b"") == b""
    with pytest.raises(InvalidCode):
        xor_bytes(b"\x00", b"\x00\x00")
    with pytest.raises(InvalidCode):
        xor_bytes(b"\xff\xff", b"\xff")


def _reference_xor(packets):
    """Byte-at-a-time XOR, the codec's definition before it moved to ints."""
    return reduce(lambda a, b: bytes(x ^ y for x, y in zip(a, b)), packets)


def test_d1_emission_order(d1_template):
    T, lab = d1_template
    code = encode(T, lab)
    assert [sorted(s.support) for s in code.symbols] == [[1, 4], [2, 5], [3, 6], [1, 2, 3]]
    assert [s.tag for s in code.symbols] == [TAG_PATH_I] * 3 + [TAG_SUM]
    assert code.length == code_length(T) == 4


def test_d2_emission_order(d2_template):
    T, lab = d2_template
    code = encode(T, lab)
    assert [sorted(s.support) for s in code.symbols] == [[2, 4], [3, 5], [1, 2, 3]]
    assert code.length == code_length(T) == 3


def test_connector_rows_and_tags():
    T = IccTemplate(2, (2, 1), {(1, 2): 2}, {(1, 2): 1, (2, 1): 1})
    D, lab = build_digraph(T)
    code = encode(T, lab)
    tags = [s.tag for s in code.symbols]
    # pair rows along both kinds of path, one bridge, then the terminal sum
    assert tags == [TAG_PATH_I, TAG_PATH_II, TAG_BRIDGE, TAG_SUM]
    assert code.length == T.n - T.k + 1 == 4


def test_encode_validations(d1_template):
    T, lab = d1_template
    bad = dict(lab)
    bad[(1, 1)] = lab[(1, 2)]
    with pytest.raises(InvalidTemplate):
        encode(IccTemplate(0, ()), {})
    with pytest.raises(InvalidCode):
        encode(T, bad)
    with pytest.raises(InvalidCode):
        encode(T, lab, new_packet_vector(1, [b"\x00"] * 5))  # too few packets
    # support-only ids become the listing's supports, so each must be a positive int
    for bad_id in (0, -3, True, "a"):
        with pytest.raises(InvalidCode, match="is not a positive integer"):
            encode(T, {**lab, (1, 2): bad_id})
    with pytest.raises(InvalidCode, match="^message id 1.0 outside"):
        encode(T, {**lab, (1, 2): 1.0}, rand_packets(8, T.n))
    # a labeling that check_embedding rejects only for an id's type
    D, canon = build_digraph(T)
    one = next(c for c, v in canon.items() if v == 1)
    assert check_embedding(D, T, canon) and not check_embedding(D, T, {**canon, one: True})
    with pytest.raises(InvalidCode):
        encode(T, {**canon, one: True})


@pytest.mark.parametrize("odd", [b"\x01", b"\x01\x02\x03"], ids=["short", "long"])
def test_encode_rejects_odd_width_packet(d1_template, odd):
    # a hand-built vector skips new_packet_vector's width check
    T, lab = d1_template
    raw = [bytes([m, m]) for m in range(1, T.n + 1)]
    raw[lab[(2, 1)] - 1] = odd
    vec = PacketVector(16, tuple(raw))
    with pytest.raises(InvalidCode, match="packet length mismatch"):
        encode(T, lab, vec)
    # the first mismatching pair in row order, with the reference's message
    assert _outcome(encode, T, lab, vec) == _outcome(_reference_encode, T, lab, vec)


def test_op_count_formula(corpus):
    for T in corpus[:30]:
        for t in (1, 9):
            assert xor_op_count(T, t) <= t * (T.n - 1)
    with pytest.raises(InvalidCode):
        xor_op_count(corpus[0], 0)


def test_encode_counts_ops(d1_template):
    T, lab = d1_template
    pv = rand_packets(8, T.n)
    code = encode(T, lab, pv)
    # three 2-supports and one 3-support: 1+1+1+2 word XORs of 8 bits
    assert code.xor_bit_ops == 5 * 8 == xor_op_count(T, 8)


def decode_everywhere(T, lab, pv):
    D, _ = build_digraph(T)
    code = encode(T, lab, pv)
    for v in range(1, D.n + 1):
        side = {m: pv.packet(m) for m in side_info(D, v)}
        assert decode_receiver(T, lab, code, v, side) == pv.packet(v)


def test_decode_identity_on_corpus(corpus):
    rng = random.Random(11)
    for T in corpus[::5]:
        lab = build_digraph(T)[1]
        for t in (1, 8, 13):
            decode_everywhere(T, lab, rand_packets(t, T.n, rng))


def test_decode_error_paths(d1_template):
    T, lab = d1_template
    pv = rand_packets(8, T.n)
    code = encode(T, lab, pv)
    D, _ = build_digraph(T)
    recv = lab[(1, 1)]
    side = {m: pv.packet(m) for m in side_info(D, recv)}

    with pytest.raises(DecodeFailure):
        decode_receiver(T, lab, code, 99, side)
    every = {m: pv.packet(m) for m in range(1, T.n + 1)}
    for not_an_id in (True, 1.0):  # both equal 1, the id of (1, 2)
        with pytest.raises(DecodeFailure, match="is not a message id"):
            decode_receiver(T, lab, code, not_an_id, every)
    with pytest.raises(MissingSidePacket):
        decode_receiver(T, lab, code, recv, {})
    pruned = IndexCode(tuple(code.symbols[1:]), code.xor_bit_ops)
    with pytest.raises(MissingCodedSymbol):
        decode_receiver(T, lab, pruned, recv, side)
    hollow = encode(T, lab)  # supports only
    with pytest.raises(DecodeFailure):
        decode_receiver(T, lab, hollow, recv, side)


def test_unhashable_id_is_a_typed_error(d1_template):
    T, lab = d1_template
    pv = rand_packets(8, T.n)
    code = encode(T, lab, pv)
    D, canon = build_digraph(T)
    every = {m: pv.packet(m) for m in range(1, T.n + 1)}
    bad = {**lab, (1, 2): [1]}
    for packets in (None, pv):
        with pytest.raises(InvalidCode, match="unhashable message id"):
            encode(T, bad, packets)
    one = next(c for c, v in canon.items() if v == 1)
    assert not check_embedding(D, T, {**canon, one: [1]})
    with pytest.raises(InvalidCode, match="unhashable message id"):
        decode_receiver(T, bad, code, lab[(1, 1)], every)


def _with_payload(code, index, payload):
    symbols = list(code.symbols)
    symbols[index] = CodedSymbol(symbols[index].support, payload, symbols[index].tag)
    return IndexCode(tuple(symbols), code.xor_bit_ops)


@pytest.mark.parametrize("coord", [(1, 1), (1, 2)], ids=["path", "terminal"])
def test_decode_rejects_width_mismatch(d1_template, coord):
    T, _ = d1_template
    D, lab = build_digraph(T)
    pv = rand_packets(16, T.n)
    code = encode(T, lab, pv)
    recv = lab[coord]
    side = {m: pv.packet(m) for m in side_info(D, recv)}
    assert decode_receiver(T, lab, code, recv, side) == pv.packet(recv)

    for m in side:
        short = dict(side)
        short[m] = side[m][:1]
        with pytest.raises(InvalidCode, match="packet length mismatch"):
            decode_receiver(T, lab, code, recv, short)
    # each symbol widened by one byte in turn
    read = 0
    for idx, sym in enumerate(code.symbols):
        wide = _with_payload(code, idx, sym.payload + b"\x00")
        try:
            got = decode_receiver(T, lab, wide, recv, side)
        except InvalidCode as exc:
            assert "packet length mismatch" in str(exc)
            read += 1
        else:
            assert got == pv.packet(recv)  # a symbol the receiver does not read
    assert read == (1 if coord == (1, 1) else 3)


def test_code_roundtrip_preserves_wire(d1_template):
    T, lab = d1_template
    pv = rand_packets(13, T.n)
    code = encode(T, lab, pv)
    s = serialize_code(code)
    back = parse_code(s)
    assert [(x.support, x.payload) for x in back.symbols] == [
        (x.support, x.payload) for x in code.symbols
    ]
    assert serialize_code(back) == s
    # tags are annotations, not wire data
    assert all(x.tag is None for x in back.symbols)


@pytest.mark.parametrize(
    "text",
    [
        "x1+x2 zz\n",
        "x1+ 00\n",
        "y1 00\n",
        "x1 00 00\n",
        "x1+x1 00\n",
        "\n",
        "x1 00\nx2 0000\n",  # inconsistent widths
        "x1+x2  ab\n",  # only the single space serialize_code writes
        "x1+x2\tab\n",
        "x1\r\nx2\n",  # line feeds alone end lines
    ],
)
def test_parse_code_rejects(text):
    with pytest.raises(FormatError):
        parse_code(text)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit on this Python")
def test_parse_code_reports_overlong_id_by_line():
    # int() refuses more than sys.get_int_max_str_digits() digits with a plain ValueError
    with pytest.raises(FormatError, match="^line 2: message id has too many digits$"):
        parse_code("x1\nx" + "1" * (sys.get_int_max_str_digits() + 1) + "\n")


def test_packets_roundtrip():
    pv = rand_packets(13, 6)
    s = serialize_packets(pv)
    assert s.startswith("t=13\n")
    assert parse_packets(s) == pv


@pytest.mark.parametrize(
    "text",
    [
        "",
        "t=0\n",
        "t=8\nzz\n",
        "t=8\n0000\n",
        "8\n00\n",
        "t=0_8\nab\n",  # int() would read 8 from each of these
        "t= 8\nab\n",
        "t=+8\nab\n",
        "t=08\nab\n",
        "t=\u0668\nab\n",  # an Arabic-Indic digit
        "t=8\n 11 \n22\r\n",  # no whitespace or CR is stripped
        "t=8\n11\x0c22\n",  # a form feed does not end a line
    ],
)
def test_parse_packets_rejects(text):
    with pytest.raises((FormatError, InvalidCode)):
        parse_packets(text)


def test_side_roundtrip():
    side = {3: b"\x07", 1: b"\x00"}
    s = serialize_side(3, side)
    t, back = parse_side(s)
    assert t == 3 and back == side
    assert serialize_side(t, back) == s


@pytest.mark.parametrize(
    "text",
    [
        "t=8\n1=00\n1=11\n",  # duplicate id
        "t=8\n0=00\n",
        "t=8\nx=00\n",
        "t=3\n1=ff\n",  # padding bits set
        "t=8\n1_0=ab\n",  # int() would read 10 here and 3 in the next two
        "t=8\n+3=cd\n",
        "t=8\n\u0663=ab\n",
        "t=8\n 3=ab\n",
        "t=0_8\n1=ab\n",
        "t= 8\n1=ab\n",
        "t=8\n2= 22 \n",
        "t=8\r\n2=22\r\n",
    ],
)
def test_parse_side_rejects(text):
    with pytest.raises((FormatError, InvalidCode)):
        parse_side(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("t=0_8\n1=ab\n", "line 1: bad bit count '0_8'"),
        ("t= 8\n1=ab\n", "line 1: bad bit count ' 8'"),
        ("t=0\n", "line 1: bad bit count '0'"),
        ("t=8\n1_0=ab\n", "line 2: bad message id '1_0'"),
        ("t=8\n+3=cd\n", "line 2: bad message id '+3'"),
        ("t=8\n\u0663=ab\n", "line 2: bad message id '\u0663'"),
        ("t=8\n0=00\n", "line 2: bad message id '0'"),
        ("t=8\n" + "1" * 5000 + "=00\n", "line 2: bad message id '111"),
    ],
)
def test_side_numbers_are_plain_ascii_decimal(text, message):
    # only the form serialize_side writes, so every accepted file round-trips byte for byte
    with pytest.raises(FormatError) as exc:
        parse_side(text)
    assert str(exc.value).startswith(message)


def test_coded_symbol_freezes_support():
    s = CodedSymbol({2, 1})
    assert s.support == frozenset({1, 2})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 5),
    max_path_len=st.integers(1, 3),
    density=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
    t=st.integers(1, 40),
)
def test_int_xor_matches_byte_reference(k, max_path_len, density, seed, t):
    T = random_template(k, max_path_len, density, seed)
    D, lab = build_digraph(T)
    pv = rand_packets(t, T.n, random.Random(seed))
    code = encode(T, lab, pv)
    assert code.xor_bit_ops == xor_op_count(T, t)
    for sym in code.symbols:
        assert sym.payload == _reference_xor([pv.packet(m) for m in sorted(sym.support)])
    for v in range(1, D.n + 1):
        side = {m: pv.packet(m) for m in side_info(D, v)}
        assert decode_receiver(T, lab, code, v, side) == pv.packet(v)


# ---------- differential checks against the codec before its caches ----------


def _reference_labeling_ids(T, labeling):
    problems = validate_template(T)
    if problems:
        raise InvalidTemplate(problems)
    coords = T.coords()
    try:
        ids = [labeling[c] for c in coords]
    except KeyError:
        missing = next(c for c in coords if c not in labeling)
        raise InvalidCode(f"labeling missing coordinate {missing}") from None
    if len(set(ids)) != len(ids):
        raise InvalidCode("labeling is not injective")
    return ids


def _reference_encode(T, labeling, packets=None):
    ids = _reference_labeling_ids(T, labeling)
    if packets is not None:
        for m in ids:
            if not 1 <= m <= len(packets.packets):
                raise InvalidCode(f"message id {m} outside packet vector of size {len(packets.packets)}")
    ops = 0
    symbols = []
    for row, tag in _layout(T):
        row_ids = [labeling[c] for c in row]
        payload = None
        if packets is not None:
            payload = reduce(xor_bytes, [packets.packets[m - 1] for m in row_ids])
            ops += (len(row) - 1) * packets.t
        symbols.append(CodedSymbol(frozenset(row_ids), payload, tag))
    return IndexCode(tuple(symbols), xor_bit_ops=ops if packets is not None else None)


def _reference_decode(T, labeling, code, receiver, side_packets):
    """decode_receiver inverting the labeling and indexing the code on every call."""
    _reference_labeling_ids(T, labeling)
    inverse = {labeling[c]: c for c in T.coords()}
    coord = inverse.get(receiver)
    if coord is None:
        raise DecodeFailure(f"receiver {receiver} is not covered by the labeling")
    by_support = {s.support: s for s in code.symbols}

    def fetch(*row):
        support = frozenset(labeling[c] for c in row)
        sym = by_support.get(support)
        if sym is None:
            raise MissingCodedSymbol(support)
        if sym.payload is None:
            ids = "+".join(f"x{i}" for i in sorted(support))
            raise DecodeFailure(f"coded symbol {ids} carries no payload")
        return sym.payload

    def side(message_id):
        if message_id not in side_packets:
            raise MissingSidePacket(message_id)
        return side_packets[message_id]

    if len(coord) == 2:
        i, a = coord
        if a < T.n_i(i):
            return reduce(xor_bytes, (fetch((i, a), (i, a + 1)), side(labeling[(i, a + 1)])))

        def parity_operands():
            yield fetch(*(T.terminal(h) for h in range(1, T.k + 1)))
            for h in range(1, T.k + 1):
                if h == i:
                    continue
                q = T.q(i, h)
                for b in range(q, T.n_i(h)):
                    yield fetch((h, b), (h, b + 1))
                nih = T.n_ij(i, h)
                if nih == 0:
                    yield side(labeling[(h, q)])
                else:
                    for b in range(1, nih):
                        yield fetch((i, h, b), (i, h, b + 1))
                    yield fetch((i, h, nih), (h, q))
                    yield side(labeling[(i, h, 1)])

        return reduce(xor_bytes, parity_operands())
    i, j, a = coord
    nij = T.n_ij(i, j)
    if a < nij:
        return reduce(xor_bytes, (fetch((i, j, a), (i, j, a + 1)), side(labeling[(i, j, a + 1)])))
    return reduce(xor_bytes, (fetch((i, j, nij), (j, T.q(i, j))), side(labeling[(j, T.q(i, j))])))


def _outcome(fn, *args):
    """The value a call returns, or the class and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # every failure is compared, not handled
        return type(exc), str(exc)


def _encoded(outcome):
    # IndexCode equality leaves xor_bit_ops out
    return outcome if isinstance(outcome, tuple) else (outcome.symbols, outcome.xor_bit_ops)


# keys that are not coordinates of any template drawn below
FOREIGN_KEYS = [(9, 1), (1, 9), (1, 2, 9), (2, 1, 1), (1, 1, 1), None, "x"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 5),
    max_path_len=st.integers(1, 3),
    density=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_codec_matches_reference(k, max_path_len, density, seed, data):
    """Same bytes, or the same exception class and message, for templates
    (one in ten unsound), labelings with foreign keys, a missing key or a
    repeated id, packet vectors with mixed widths, codes with a
    duplicated, dropped or payload-free symbol, and every receiver id,
    covered or not, with one side packet withheld."""
    rng = random.Random(seed)
    T = random_template(k, max_path_len, density, seed)
    if k >= 2 and data.draw(st.integers(0, 9)) == 0:
        T = replace(T, attach={**T.attach, (2, 1): 0})
    coords = T.coords() if validate_template(T) == [] else []
    ids = list(range(1, len(coords) + 1))
    rng.shuffle(ids)
    labeling = dict(zip(coords, ids))
    top = len(ids) + 2
    pv = rand_packets(data.draw(st.integers(1, 20)), top, rng)
    code = _reference_encode(T, labeling, pv) if coords else IndexCode(())

    for _ in range(data.draw(st.integers(0, 2))):
        labeling[data.draw(st.sampled_from(FOREIGN_KEYS))] = data.draw(st.integers(1, top))  # may repeat an id
    defect = data.draw(st.sampled_from([None, None, "missing", "repeated"]))
    if labeling and defect == "missing":
        del labeling[data.draw(st.sampled_from(sorted(labeling, key=repr)))]
    elif coords and defect == "repeated":
        labeling[data.draw(st.sampled_from(coords))] = labeling[data.draw(st.sampled_from(coords))]
    odd = list(pv.packets)  # a hand-built vector skips new_packet_vector's width check
    for m in data.draw(st.lists(st.integers(0, top - 1), min_size=1, max_size=3)):
        odd[m] += b"\x00"
    for packets in (None, pv, PacketVector(pv.t, tuple(odd))):
        assert _encoded(_outcome(encode, T, labeling, packets)) == _encoded(
            _outcome(_reference_encode, T, labeling, packets)
        )

    symbols = list(code.symbols)
    code_defect = data.draw(st.sampled_from([None, "duplicated", "dropped", "hollow"]))
    if symbols and code_defect:
        i = data.draw(st.integers(0, len(symbols) - 1))
        s = symbols[i]
        if code_defect == "duplicated":  # a zeroed copy, before or after: the last one wins
            symbols.insert(data.draw(st.integers(0, len(symbols))), CodedSymbol(s.support, bytes(len(s.payload))))
        elif code_defect == "dropped":
            del symbols[i]
        else:
            symbols[i] = CodedSymbol(s.support, None, s.tag)
    code = IndexCode(tuple(symbols))
    withheld = data.draw(st.integers(0, top))
    for _ in range(2):  # the second pass reads the code's cached support index
        for v in range(0, top + 1):
            side = {m: pv.packet(m) for m in range(1, top + 1) if m not in (v, withheld)}
            assert _outcome(decode_receiver, T, labeling, code, v, side) == _outcome(
                _reference_decode, T, labeling, code, v, side
            )


def test_every_call_validates_through_the_codec_binding(d1_template, monkeypatch):
    """Each entry point looks validate_template up in codec on every call,
    so a wrapper on that name counts every call."""
    T, lab = d1_template
    calls = []
    monkeypatch.setattr(codec, "validate_template", lambda t: calls.append(t) or validate_template(t))
    pv = rand_packets(8, T.n)
    code = encode(T, lab, pv)
    for _ in range(2):
        for coord, v in lab.items():
            side = {lab[b]: pv.packet(lab[b]) for a, b in template_arcs(T) if a == coord}
            assert decode_receiver(T, lab, code, v, side) == pv.packet(v)
    assert code_length(T) == 4 and xor_op_count(T, 8) == 40
    assert len(calls) == 1 + 2 * len(lab) + 2 and all(t is T for t in calls)


def test_parse_packets_reports_padding_by_line():
    with pytest.raises(FormatError) as exc:
        parse_packets("t=3\n07\n0f\n")
    assert type(exc.value) is FormatError
    assert str(exc.value) == "line 3: padding bits beyond t=3 must be zero"
    with pytest.raises(FormatError, match="^line 2: padding bits beyond t=3 must be zero$"):
        parse_packets("t=3\nff\n")
    with pytest.raises(InvalidCode, match="^packet 1: padding bits beyond t=3 must be zero$"):
        new_packet_vector(3, [b"\xff"])


def _layout(T):
    """The compiled emission rows in coordinate form."""
    coords = T.coords()
    return [(tuple([coords[p] for p in row]), tag) for row, tag in codec._compiled(T)[0]]


def _reference_layout(T):
    """The emission rows as the coordinate walk listed them before they were compiled."""
    rows = []
    for i in range(1, T.k + 1):
        rows += [(((i, a), (i, a + 1)), TAG_PATH_I) for a in range(1, T.n_i(i))]
    for (i, j) in T.pairs():
        rows += [(((i, j, a), (i, j, a + 1)), TAG_PATH_II) for a in range(1, T.n_ij(i, j))]
    for (i, j) in T.pairs():
        if T.n_ij(i, j) >= 1:
            rows.append((((i, j, T.n_ij(i, j)), (j, T.q(i, j))), TAG_BRIDGE))
    rows.append((tuple((i, T.n_i(i)) for i in range(1, T.k + 1)), TAG_SUM))
    return rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(k=st.integers(1, 6), max_path_len=st.integers(1, 4), density=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**16))
def test_compiled_rows_match_coordinate_walk(k, max_path_len, density, seed):
    T = random_template(k, max_path_len, density, seed)
    expected = _reference_layout(T)
    assert _layout(T) == expected
    pos = {c: p for p, c in enumerate(T.coords())}
    rows, xor_terms = codec._compiled(T)[:2]
    assert [(tuple(pos[c] for c in row), tag) for row, tag in expected] == list(rows)
    assert xor_terms * 7 == xor_op_count(T, 7) == sum((len(row) - 1) * 7 for row, _ in expected)


def _reference_walk(T, coord):
    """Decoding steps of the receiver at coord, in coordinate form, as the
    codec walked them from n_i, n_ij and q before it read the arc list.

    (row, None) reads the coded symbol of a row, (None, c) the side packet
    of c.
    """
    if len(coord) != 2:
        i, j, a = coord
        nij = T.n_ij(i, j)
        row = ((i, j, a), (i, j, a + 1)) if a < nij else ((i, j, nij), (j, T.q(i, j)))
    elif coord[1] < T.n_i(coord[0]):
        row = (coord, (coord[0], coord[1] + 1))
    else:
        i = coord[0]
        yield tuple([T.terminal(h) for h in range(1, T.k + 1)]), None
        for h in range(1, T.k + 1):
            if h != i:
                q, nih = T.q(i, h), T.n_ij(i, h)
                for b in range(q, T.n_i(h)):
                    yield ((h, b), (h, b + 1)), None
                for b in range(1, nih):
                    yield ((i, h, b), (i, h, b + 1)), None
                if nih:
                    yield ((i, h, nih), (h, q)), None
                yield None, (i, h, 1) if nih else (h, q)
        return
    yield row, None
    yield None, row[1]


def _assert_chains_match_walk(T):
    coords = T.coords()
    pos = {c: p for p, c in enumerate(coords)}
    for p, coord in enumerate(coords):
        expected = tuple(
            (None, pos[c]) if row is None else (tuple(pos[x] for x in row), None) for row, c in _reference_walk(T, coord)
        )
        assert codec._chain(T, p) == expected, (T, coord)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(k=st.integers(1, 6), max_path_len=st.integers(1, 4), density=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**16))
def test_chains_match_reference_walk(k, max_path_len, density, seed):
    _assert_chains_match_walk(random_template(k, max_path_len, density, seed))


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (3, 2), (5, 5), 1, 2, 5, 12])
def test_shared_shape_chains_match_reference_walk(shape):
    _assert_chains_match_walk(_cycle_shape(*shape) if isinstance(shape, tuple) else _clique_shape(shape))


@pytest.mark.parametrize("key", [(1, 9), (9, 1), None, (1, 1, 1)])
def test_foreign_labeling_keys_do_not_name_receivers(key):
    """Only coordinates are looked up: a foreign key repeating a
    coordinate's id decodes that coordinate's packet, and a receiver held
    only by a foreign key is not covered."""
    T = IccTemplate(2, (2, 1), {(1, 2): 2}, {(1, 2): 1, (2, 1): 1})
    _, lab = build_digraph(T)
    pv = new_packet_vector(8, [bytes([0x11 * m]) for m in range(1, T.n + 2)])
    code = encode(T, lab, pv)
    side = {m: pv.packet(m) for m in range(1, T.n + 2) if m != 5}
    assert lab[(1, 2, 2)] == 5
    assert decode_receiver(T, {**lab, key: 5}, code, 5, side) == b"\x55"
    with pytest.raises(DecodeFailure, match="^receiver 6 is not covered by the labeling$"):
        decode_receiver(T, {**lab, key: 6}, code, 6, side)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(k=st.integers(1, 5), seed=st.integers(0, 2**16), data=st.data())
def test_payload_free_symbol_fails_on_every_call(k, seed, data):
    """A symbol without payload is never cached as an int: every receiver
    that reads it fails, on every pass, while the others decode from the
    ints the earlier receivers cached."""
    rng = random.Random(seed)
    T = random_template(k, 3, 0.3, seed)
    D, lab = build_digraph(T)
    pv = rand_packets(8, T.n, rng)
    full = encode(T, lab, pv)
    hole = data.draw(st.integers(0, full.length - 1))
    symbols = list(full.symbols)
    symbols[hole] = CodedSymbol(symbols[hole].support, None, symbols[hole].tag)
    code = IndexCode(tuple(symbols))
    ids = "+".join(f"x{i}" for i in sorted(symbols[hole].support))
    receivers = data.draw(st.permutations(range(1, T.n + 1)))
    failed = []
    for _ in range(2):
        failed.append(set())
        for v in receivers:
            side = {m: pv.packet(m) for m in side_info(D, v)}
            fresh = _outcome(decode_receiver, T, lab, IndexCode(tuple(symbols)), v, side)
            got = _outcome(decode_receiver, T, lab, code, v, side)
            assert got == fresh
            if got == (DecodeFailure, f"coded symbol {ids} carries no payload"):
                failed[-1].add(v)
            else:
                assert got == pv.packet(v)
    assert failed[0] == failed[1] != set()
    assert symbols[hole].support not in code._ints
    assert code._ints or failed[0] == set(receivers)  # the other receivers filled the cache


# ---------- payload ints handed from the encoder to its code ----------


@st.composite
def coded_plans(draw):
    """A random template's own plan, or a cycle, clique or ICC plan of a
    random host: greedy with n <= 40, exact with n <= 10."""
    seed = draw(st.integers(0, 2**16))
    mode = draw(st.sampled_from(["template", "greedy", "exact"]))
    if mode == "template":
        T = random_template(draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.sampled_from([0.0, 0.3, 1.0])), seed)
        D, lab = build_digraph(T)
        return D, make_plan(D, [(T, lab)])
    rng = random.Random(seed)
    n, p = draw(st.integers(1, 40 if mode == "greedy" else 10)), draw(st.floats(0.0, 1.0))
    D = new_digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and rng.random() < p])
    return D, draw(st.sampled_from([cycle_cover, clique_cover, icc_cover]))(D, mode)


def _flip(payload, j):
    return payload[:j] + bytes([payload[j] ^ 1]) + payload[j + 1 :]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(coded_plans(), st.integers(1, 40), st.data())
def test_handed_ints_decode_as_the_lazy_path_does(plan_of, t, data):
    """assemble_code's code carries the int of every coded payload and of
    every packet its pieces read, and nothing else; every receiver
    decodes from it as from the reference and from the parsed listing,
    which converts lazily; an equal copy of the side packets decodes the
    same, and a flipped one as the reference does; and a new IndexCode with a flipped
    payload byte starts with no ints, so it decodes the flipped bytes."""
    D, plan = plan_of
    pv = rand_packets(t, D.n, random.Random(t))
    code = assemble_code(D, plan, pv)
    lazy = parse_code(serialize_code(code))
    supports = {s.support for s in code.symbols if s.tag != TAG_UNCODED}
    read = {pv.packet(m) for _, lab in plan.pieces for m in lab.values()}
    assert {key for key in code._ints if type(key) is frozenset} == supports
    assert {key for key in code._ints if type(key) is bytes} == read
    assert len(code._ints) == len(supports) + len(read)  # no other key
    for key, carried in code._ints.items():
        x = code._by_support[key].payload if type(key) is frozenset else key
        assert carried == (int.from_bytes(x, "little"), len(x))
    receivers = [(T, lab, v, {m: pv.packet(m) for m in side_info(D, v)}) for T, lab in plan.pieces for v in lab.values()]
    j = data.draw(st.integers(0, packet_bytes(t) - 1))
    for T, lab, v, side in receivers:
        got = decode_receiver(T, lab, code, v, side)
        assert got == pv.packet(v) == _reference_decode(T, lab, code, v, side) == decode_receiver(T, lab, lazy, v, side)
        assert decode_receiver(T, lab, code, v, {m: bytes(bytearray(p)) for m, p in side.items()}) == got
        flipped_side = {m: _flip(p, j) for m, p in side.items()}
        assert decode_receiver(T, lab, code, v, flipped_side) == _reference_decode(T, lab, code, v, flipped_side)
    coded = [i for i, s in enumerate(code.symbols) if s.tag != TAG_UNCODED]
    if not coded:
        return
    i = data.draw(st.sampled_from(coded))
    symbols = list(code.symbols)
    symbols[i] = CodedSymbol(symbols[i].support, _flip(symbols[i].payload, j), symbols[i].tag)
    flipped = IndexCode(tuple(symbols), code.xor_bit_ops)
    affected = 0
    for T, lab, v, side in receivers:
        got = decode_receiver(T, lab, flipped, v, side)
        assert got == _reference_decode(T, lab, flipped, v, side)
        assert got in (pv.packet(v), _flip(pv.packet(v), j))
        affected += got != pv.packet(v)
    assert affected  # every coded symbol is read by some receiver


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(1, 4), max_path_len=st.integers(1, 3), seed=st.integers(0, 2**16), t=st.integers(1, 24))
def test_side_packets_changed_after_encoding_are_read_as_they_are(k, max_path_len, seed, t):
    """A PacketVector built directly may hold bytearrays; one changed in
    place after encode decodes as the reference decoder reads it then."""
    T = random_template(k, max_path_len, 0.3, seed)
    D, lab = build_digraph(T)
    pv = PacketVector(t, tuple(bytearray(p) for p in rand_packets(t, T.n, random.Random(seed)).packets))
    code = encode(T, lab, pv)
    for v in lab.values():
        side = {m: pv.packet(m) for m in side_info(D, v)}
        own = bytes(pv.packet(v))
        assert decode_receiver(T, lab, code, v, side) == own
        read = set()
        for m, p in side.items():
            p[0] ^= 1
            got = decode_receiver(T, lab, code, v, side)
            assert got == _reference_decode(T, lab, code, v, side) in (own, _flip(own, 0))
            if got != own:
                read.add(m)
            p[0] ^= 1
        assert read or not side  # a receiver reads some side packet whenever it holds one


# ---------- serializer output round-trips byte for byte ----------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 5),
    max_path_len=st.integers(1, 3),
    density=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
    t=st.integers(1, 40),
)
def test_serializer_output_round_trips_byte_for_byte(k, max_path_len, density, seed, t):
    T = random_template(k, max_path_len, density, seed)
    D, lab = build_digraph(T)
    pv = rand_packets(t, T.n, random.Random(seed))
    for code in (encode(T, lab), encode(T, lab, pv)):
        text = serialize_code(code)
        back = parse_code(text)
        assert [(s.support, s.payload) for s in back.symbols] == [(s.support, s.payload) for s in code.symbols]
        assert serialize_code(back) == text
    text = serialize_packets(pv)
    assert parse_packets(text) == pv and serialize_packets(parse_packets(text)) == text
    for v in range(1, T.n + 1):
        side = {m: pv.packet(m) for m in side_info(D, v)}
        text = serialize_side(t, side)
        assert parse_side(text) == (t, side) and serialize_side(*parse_side(text)) == text


# ---------- read-only plans: checked once, packets converted once ----------


def _random_host(seed, n, p):
    rng = random.Random(seed)
    return new_digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and rng.random() < p])


@st.composite
def read_only_plans(draw):
    """A random template's own plan through make_plan, or a greedy ICC plan of a random host with n <= 40."""
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        T = random_template(draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.sampled_from([0.0, 0.3, 1.0])), seed)
        D, lab = build_digraph(T)
        return D, make_plan(D, [(T, lab)])
    D = _random_host(seed, draw(st.integers(1, 40)), draw(st.floats(0.0, 0.5)))
    return D, icc_cover(D, "greedy")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(read_only_plans(), st.integers(1, 40), st.data())
def test_receivers_decode_as_the_reference_whatever_side_packets_they_hold(plan_of, t, data):
    """Every receiver of a plan decodes as the reference decoder does from
    the encoder's own bytes objects, from fresh copies, from bytearrays
    changed after encode, and with one wrong side packet, which is either
    a flipped copy or another message's packet; the first two give the
    receiver's own packet."""
    D, plan = plan_of
    pv = rand_packets(t, D.n, random.Random(t))
    code = assemble_code(D, plan, pv)
    j = data.draw(st.integers(0, packet_bytes(t) - 1))
    for T, lab in plan.pieces:
        for v in lab.values():
            own = {m: pv.packet(m) for m in side_info(D, v)}
            copies = {m: bytes(bytearray(p)) for m, p in own.items()}
            assert decode_receiver(T, lab, code, v, own) == decode_receiver(T, lab, code, v, copies) == pv.packet(v)
            assert decode_receiver(T, lab, code, v, own) == _reference_decode(T, lab, code, v, own)
            if not own:
                continue
            m = data.draw(st.sampled_from(sorted(own)))
            changed = {i: bytearray(p) for i, p in own.items()}
            changed[m][j] ^= 1
            other = pv.packet(data.draw(st.integers(1, D.n)))
            for wrong in (changed, {**own, m: _flip(own[m], j)}, {**own, m: other}):
                got = _outcome(decode_receiver, T, lab, code, v, wrong)
                assert got == _outcome(_reference_decode, T, lab, code, v, wrong)


def test_plan_labelings_are_read_only(d1):
    T = random_template(3, 2, 0.3, seed=4)
    D, lab = build_digraph(T)
    plans = [make_plan(D, [(T, lab)])] + [planner(d1) for planner in (cycle_cover, clique_cover, icc_cover)]
    for plan in plans:
        for _, frozen in plan.pieces:
            assert type(frozen) is FrozenLabeling
            plain = dict(frozen)
            key = next(iter(plain))
            mutations = [
                lambda: frozen.__setitem__(key, 99),
                lambda: frozen.__delitem__(key),
                lambda: frozen.pop(key),
                frozen.popitem,
                frozen.clear,
                lambda: frozen.setdefault(("extra",), 99),
                lambda: frozen.update({key: 99}),
                lambda: frozen.__ior__({key: 99}),
            ]
            for mutate in mutations:
                with pytest.raises(TypeError, match="^a plan's labeling is read-only$"):
                    mutate()
            assert frozen == plain and plain == frozen and repr(frozen) == repr(plain)


def test_make_plan_keeps_a_copy_of_the_callers_labeling():
    """A later change to the caller's dict reaches neither the plan nor its
    code, while the codec still checks the changed plain dict on every call."""
    T = random_template(3, 2, 0.3, seed=5)
    D, lab = build_digraph(T)
    plan = make_plan(D, [(T, lab)])
    pv = rand_packets(16, D.n, random.Random(5))
    listing = serialize_code(assemble_code(D, plan, pv))
    kept = dict(lab)
    a, b = T.coords()[:2]
    lab[a], lab[b] = lab[b], lab[a]
    assert plan.pieces[0][1] == kept != lab
    assert serialize_code(assemble_code(D, plan, pv)) == listing
    assert check_embedding(D, T, plan.pieces[0][1]) and not check_embedding(D, T, lab)
    del lab[a]
    with pytest.raises(InvalidCode, match=r"^labeling missing coordinate \(1, 1\)$"):
        encode(T, lab, pv)
    with pytest.raises(EmbeddingError, match="^piece 1 does not embed in the digraph$"):
        make_plan(D, [(T, lab)])


@pytest.mark.parametrize("seed", range(4))
def test_a_plan_checked_on_one_digraph_is_checked_again_on_another(seed, monkeypatch):
    """assemble_code checks a plan once per digraph: again for an equal
    digraph it checks nothing, and a digraph without one of the plan's arcs
    still fails, then and after."""
    D = _random_host(seed, 30, 0.15)
    plan = icc_cover(D, "greedy")
    assert plan.pieces
    calls = []
    monkeypatch.setattr(finder, "check_embedding", lambda *a: calls.append(a) or check_embedding(*a))
    first = assemble_code(D, plan)
    assert len(calls) == len(plan.pieces)
    assert assemble_code(new_digraph(D.n, D.arcs), plan, rand_packets(8, D.n)).length == first.length
    assert len(calls) == len(plan.pieces)
    T, lab = plan.pieces[seed % len(plan.pieces)]
    u, v = template_arcs(T)[0]
    D2 = new_digraph(D.n, D.arcs - {(lab[u], lab[v])})
    for _ in range(2):
        with pytest.raises(EmbeddingError, match=r"^piece \d+ does not embed in the digraph$"):
            assemble_code(D2, plan)
    assert assemble_code(D, plan) == first


@pytest.mark.parametrize("clone", [lambda plan: pickle.loads(pickle.dumps(plan)), copy.deepcopy])
def test_plans_survive_pickle_and_deepcopy(clone):
    D = _random_host(7, 30, 0.2)
    plan = icc_cover(D, "greedy")
    pv = rand_packets(12, D.n, random.Random(7))
    code = assemble_code(D, plan, pv)  # the plan and its labelings now carry their memos
    twin, twin_code = clone(plan), clone(code)
    assert twin == plan and twin is not plan
    assert all(type(lab) is FrozenLabeling for _, lab in twin.pieces)
    assert assemble_code(D, twin, pv) == code == twin_code
    assert twin_code.xor_bit_ops == code.xor_bit_ops and "_ints" not in vars(twin_code)  # the int caches stay behind
    for T, lab in twin.pieces:
        for v in lab.values():
            side = {m: pv.packet(m) for m in side_info(D, v)}
            assert decode_receiver(T, lab, code, v, side) == decode_receiver(T, lab, twin_code, v, side) == pv.packet(v)
        with pytest.raises(TypeError):
            lab[next(iter(lab))] = 0
