"""Scalar-linear XOR codec for interlinked-cycle templates.

The code for a template has one pair symbol per consecutive path edge,
one bridge symbol per nonempty connector, and a single combined parity
of all main-path terminals, for n - k + 1 symbols total.  Packets are
t-bit strings packed little-endian into ceil(t/8) bytes with zero
padding bits.  The XOR runs on Python ints: byte i of a packet is bits
8i..8i+7 of ``int.from_bytes(p, "little")``, so the padding bits stay
the top bits and stay zero.

Each immutable template compiles its codec work once, as coordinate
positions read off its arc list: the emission rows and each position's
decoding chain (``_chain``).  ``encode`` calls ``from_bytes`` once per
packet of the piece and ``to_bytes`` once per symbol, and the code it
(or ``assemble_code``) returns carries one int cache: the int of each
payload, by support, and of each ``bytes`` packet it read, by value.
``decode_receiver`` calls ``to_bytes`` once, and ``from_bytes`` only for
a side packet equal to none of those (a ``bytearray``, a wrong packet,
or any packet for a code built another way, such as ``parse_code``'s,
whose payloads it converts once, on their first fetch).  Every entry
point calls ``validate_template``, which reads the verdict the immutable
template keeps.  A plan's ``FrozenLabeling`` is checked once per
template and keeps its ids, their largest value, one support per row and
each receiver's decoding operands; a plain dict is checked on every call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import accumulate
from operator import xor

from .errors import (
    DecodeFailure,
    FormatError,
    InvalidCode,
    InvalidTemplate,
    MissingCodedSymbol,
    MissingSidePacket,
    _is_count,
    echo,
)
from .template import IccTemplate, Labeling, _arc_index, _labeled, validate_template

TAG_PATH_I = "path-I"
TAG_PATH_II = "path-II"
TAG_BRIDGE = "bridge"
TAG_SUM = "terminal-sum"
TAG_UNCODED = "uncoded"


def packet_bytes(t: int) -> int:
    return (t + 7) // 8


def xor_bytes(a: bytes, b: bytes) -> bytes:
    width, x = len(a), int.from_bytes(a, "little")
    if len(b) != width:
        raise InvalidCode(f"packet length mismatch: {width} vs {len(b)} bytes")
    return (x ^ int.from_bytes(b, "little")).to_bytes(width, "little")


@dataclass(frozen=True)
class PacketVector:
    """One t-bit packet per message id, 1-indexed through packet(id)."""

    t: int
    packets: tuple[bytes, ...]

    def packet(self, message_id: int) -> bytes:
        if not (_is_count(message_id) and 1 <= message_id <= len(self.packets)):
            raise InvalidCode(f"message id {echo(message_id)} outside packet vector of size {len(self.packets)}")
        return self.packets[message_id - 1]


def new_packet_vector(t: int, packets) -> PacketVector:
    """Validate packet shapes: ceil(t/8) bytes each, padding bits zero."""
    if not _is_count(t) or t < 1:
        raise InvalidCode(f"packet width must be a positive bit count, got {t!r}")
    width = packet_bytes(t)
    used = t - 8 * (width - 1)
    pad_mask = 0xFF ^ ((1 << used) - 1)
    out = []
    for idx, p in enumerate(packets, start=1):
        if not isinstance(p, (bytes, bytearray)):
            raise InvalidCode(f"packet {idx}: expected bytes, got {type(p).__name__}")
        p = bytes(p)
        if len(p) != width:
            raise InvalidCode(f"packet {idx}: expected {width} bytes for t={t}, got {len(p)}")
        if p[-1] & pad_mask:
            raise InvalidCode(f"packet {idx}: padding bits beyond t={t} must be zero")
        out.append(p)
    return PacketVector(t, tuple(out))


@dataclass(frozen=True)
class CodedSymbol:
    """Broadcast symbol: XOR of the messages in its support."""

    support: frozenset[int]
    payload: bytes | None = None
    tag: str | None = None

    def __init__(self, support: frozenset[int], payload: bytes | None = None, tag: str | None = None):
        # one dict update, not a setattr call per field; frozenset() returns a frozenset as is
        self.__dict__.update(support=frozenset(support), payload=payload, tag=tag)


@dataclass(frozen=True)
class IndexCode:
    """Ordered coded symbols; xor_bit_ops counts encoder work when payloads exist."""

    symbols: tuple[CodedSymbol, ...]
    xor_bit_ops: int | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))

    @property
    def length(self) -> int:
        return len(self.symbols)

    @cached_property
    def _by_support(self) -> dict[frozenset[int], CodedSymbol]:
        """Symbol of each support, the last one winning; built on first use."""
        return {s.support: s for s in self.symbols}

    @cached_property
    def _ints(self) -> dict[frozenset[int] | bytes, tuple[int, int]]:
        """Int and byte width of each payload, by support, and of each bytes packet the encoder read, by value."""
        return {}

    def __getstate__(self):  # pickle and deepcopy leave the int cache behind
        return {"symbols": self.symbols, "xor_bit_ops": self.xor_bit_ops}


def _carrying(code: IndexCode, ints: dict) -> IndexCode:
    """code, holding the ints its encoder converted."""
    code.__dict__["_ints"] = ints
    return code


def _joined(codes: list[IndexCode], uncovered: tuple[int, ...], packets: PacketVector | None) -> IndexCode:
    """The pieces' codes, then an uncoded symbol per uncovered id, as one code carrying the pieces' ints."""
    symbols, ints = [], {}
    for c in codes:
        symbols += c.symbols
        if packets is not None:  # a code without payloads carries no ints
            ints.update(c._ints)
    for v in uncovered:
        symbols.append(CodedSymbol(frozenset({v}), None if packets is None else packets.packet(v), TAG_UNCODED))
    ops = None if packets is None else sum([c.xor_bit_ops for c in codes])
    return _carrying(IndexCode(tuple(symbols), xor_bit_ops=ops), ints)


def _compiled(T: IccTemplate) -> tuple[list[tuple[tuple[int, ...], str]], int, dict, dict, dict]:
    """T's rows as coordinate positions, their XOR count, each non-terminal's successor, each main-path
    terminal's out-arc heads and the decoding chains built so far, set on first use.  The pair symbols
    are T's arcs that leave no terminal, in arc order; the terminals' parity comes last."""
    if T._codec is None:
        ends = list(accumulate(T.type_i))
        main, fans = ends[-1], {e - 1: [] for e in ends}
        rows = []
        for arc in _arc_index(T):
            if arc[0] in fans:
                fans[arc[0]].append(arc[1])
            else:
                rows.append((arc, TAG_PATH_I if arc[0] < main else TAG_BRIDGE if arc[1] < main else TAG_PATH_II))
        succ = dict(row for row, _ in rows)
        rows.append((tuple(fans), TAG_SUM))  # the terminals, in path order
        object.__setattr__(T, "_codec", (rows, sum(len(row) - 1 for row, _ in rows), succ, fans, {}))
    return T._codec


def _require_valid(T: IccTemplate) -> None:
    problems = validate_template(T)
    if problems:
        raise InvalidTemplate(problems)


def encode(T: IccTemplate, labeling: Labeling, packets: PacketVector | None = None) -> IndexCode:
    """Produce the template's index code; payloads are filled when packets are given."""
    _require_valid(T)
    memo, (rows, xor_terms) = _labeled(T, labeling), _compiled(T)[:2]
    if memo[2] is None:  # each row's support, in row order, kept for the decoders
        memo[2] = {row: frozenset(map(memo[1].__getitem__, row)) for row, _ in rows}
    ids, top, supports = memo[1], memo[4], memo[2].values()
    if packets is None:  # the ids become the listing's supports
        for m in () if top else ids:  # a nonzero top vouches for every id
            if not _is_count(m) or m < 1:
                raise InvalidCode(f"message id {echo(m)} is not a positive integer")
        return IndexCode(tuple([CodedSymbol(support, None, tag) for support, (_, tag) in zip(supports, rows)]))
    vec = packets.packets
    own = [vec[m - 1] for m in ids] if 0 < top <= len(vec) else list(map(packets.packet, ids))  # packet() raises at a bad id
    width = len(own[0])
    if len(set(map(len, own))) > 1:
        for row, _ in rows:  # the rows connect every coordinate, so one raises
            for p in row:
                if len(own[p]) != len(own[row[0]]):
                    raise InvalidCode(f"packet length mismatch: {len(own[row[0]])} vs {len(own[p])} bytes")
    xs = [int.from_bytes(p, "little") for p in own]
    symbols, ints = [], {p: (x, width) for p, x in zip(own, xs) if type(p) is bytes}
    for support, (row, tag) in zip(supports, rows):
        x = reduce(xor, map(xs.__getitem__, row))
        ints[support] = (x, width)
        symbols.append(CodedSymbol(support, x.to_bytes(width, "little"), tag))
    return _carrying(IndexCode(tuple(symbols), xor_bit_ops=xor_terms * packets.t), ints)


def code_length(T: IccTemplate) -> int:
    """Number of broadcast symbols the template's code needs: n - k + 1."""
    _require_valid(T)
    return T.n - T.k + 1


def xor_op_count(T: IccTemplate, t: int) -> int:
    """Exact bit-XOR operations the encoder spends on t-bit packets."""
    _require_valid(T)
    if not _is_count(t) or t < 1:
        raise InvalidCode(f"packet width must be a positive bit count, got {t!r}")
    return _compiled(T)[1] * t


def _chain(T: IccTemplate, p: int) -> tuple:
    """Decoding steps of the receiver at position p, cached on the template:
    (row, None) reads a row's coded symbol, (None, c) the side packet at c.

    A non-terminal cancels its successor's packet out of its row.  A
    main-path terminal starts from the parity; per out-arc, it folds in
    the rows along the successor path from the arc's head to the next
    terminal (sorted tails: main-path rows first, as positions list main
    paths first), then cancels the head's packet, which it holds by
    construction.
    """
    rows, _, succ, fans, chains = _compiled(T)
    if p not in chains:
        if p in succ:
            steps = [((p, succ[p]), None), (None, succ[p])]
        else:
            steps = [(rows[-1][0], None)]
            for head in fans[p]:
                tails, v = [], head
                while v in succ:
                    tails.append(v)
                    v = succ[v]
                steps += [((v, succ[v]), None) for v in sorted(tails)]
                steps.append((None, head))
        chains[p] = tuple(steps)
    return chains[p]


def _fold(ops: tuple, code: IndexCode, side_packets: dict[int, bytes]) -> bytes:
    """XOR a receiver's operands, each width checked in turn: (support, None) reads a coded symbol, (None, id) a side packet."""
    ints, width, acc = code._ints, None, 0
    for support, m in ops:
        if support is None:
            try:
                p = side_packets[m]
            except KeyError:
                raise MissingSidePacket(m) from None
            x, w = type(p) is bytes and ints.get(p) or (int.from_bytes(p, "little"), len(p))
        else:
            try:
                x, w = ints[support]
            except KeyError:
                sym = code._by_support.get(support)
                if sym is None:
                    raise MissingCodedSymbol(support) from None
                if sym.payload is None:
                    names = "+".join(f"x{i}" for i in sorted(support))
                    raise DecodeFailure(f"coded symbol {names} carries no payload") from None
                x, w = ints[support] = int.from_bytes(sym.payload, "little"), len(sym.payload)
        if w != width and width is not None:
            raise InvalidCode(f"packet length mismatch: {width} vs {w} bytes")
        width, acc = w, acc ^ x
    return acc.to_bytes(width, "little")


def decode_receiver(
    T: IccTemplate,
    labeling: Labeling,
    code: IndexCode,
    receiver: int,
    side_packets: dict[int, bytes],
) -> bytes:
    """Recover the receiver's packet from the code and its side packets only.

    side_packets maps message ids to packets and must cover the receiver's
    out-neighbors in the built digraph; a superset is fine.  Raises
    MissingCodedSymbol or MissingSidePacket when a dependency is absent.
    """
    _require_valid(T)
    memo = _labeled(T, labeling)
    if not _is_count(receiver):
        raise DecodeFailure(f"receiver {echo(receiver)} is not a message id")
    ops = memo[3].get(receiver)
    if ops is None:  # on the receiver's first decode: the supports of its chain's rows, unless encode built all
        ids, supports = memo[1], memo[2] or {}
        if receiver not in ids:
            raise DecodeFailure(f"receiver {receiver} is not covered by the labeling")
        ops = memo[3][receiver] = tuple([
            (None, ids[c]) if row is None else (supports.get(row) or frozenset(map(ids.__getitem__, row)), None)
            for row, c in _chain(T, ids.index(receiver))])
    return _fold(ops, code, side_packets)


# ---------- text formats ----------

_SUPPORT_TOKEN = re.compile(r"^x([1-9][0-9]*)$")
_HEX_TOKEN = re.compile(r"^(?:[0-9a-f]{2})+$")
_POSITIVE_TOKEN = re.compile(r"[1-9][0-9]*")


def serialize_code(code: IndexCode) -> str:
    """One symbol per line: sorted "+"-joined ids, then payload hex when present.

    Tags are in-memory annotations and do not survive a roundtrip.
    """
    lines = []
    for s in code.symbols:
        head = "+".join(f"x{i}" for i in sorted(s.support))
        lines.append(head if s.payload is None else f"{head} {s.payload.hex()}")
    return "\n".join(lines) + ("\n" if lines else "")


def _lines(text: str) -> list[str]:
    """Lines split at line feeds alone, less one final empty piece; no CR,
    other line break or whitespace is stripped, so what serialize_* writes
    round-trips byte for byte, and a stray space or CR is an error."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def parse_code(text: str) -> IndexCode:
    """Parse a code listing; payload hex is optional per line."""
    symbols = []
    width: int | None = None
    for no, line in enumerate(_lines(text), start=1):
        if not line:
            raise FormatError(f"line {no}: empty line")
        parts = line.split(" ")
        if len(parts) > 2:
            raise FormatError(f"line {no}: expected 'support [hex]', got {echo(line)}")
        ids = []
        for token in parts[0].split("+"):
            m = _SUPPORT_TOKEN.match(token)
            if not m:
                raise FormatError(f"line {no}: bad message id token {echo(token)}")
            try:
                ids.append(int(m.group(1)))
            except ValueError:  # beyond CPython's digit limit for int conversion
                raise FormatError(f"line {no}: message id has too many digits") from None
        if len(set(ids)) != len(ids):
            raise FormatError(f"line {no}: duplicate message id in support")
        payload = None
        if len(parts) == 2:
            if not _HEX_TOKEN.match(parts[1]):
                raise FormatError(f"line {no}: bad payload hex {echo(parts[1])}")
            payload = bytes.fromhex(parts[1])
            if width is None:
                width = len(payload)
            elif len(payload) != width:
                raise FormatError(f"line {no}: payload width {len(payload)} differs from {width}")
        symbols.append(CodedSymbol(frozenset(ids), payload))
    return IndexCode(tuple(symbols))


def serialize_packets(X: PacketVector) -> str:
    """Header "t=<bits>", then one lowercase hex packet per message id."""
    lines = [f"t={X.t}"]
    lines.extend(p.hex() for p in X.packets)
    return "\n".join(lines) + "\n"


def _positive_int(no: int, what: str, token: str) -> int:
    """A count or id only as serialize_* writes it, so files round-trip byte for byte."""
    if _POSITIVE_TOKEN.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # beyond CPython's digit limit for int conversion
            pass
    raise FormatError(f"line {no}: bad {what} {echo(token)}")


def _parse_header(lines: list[str]) -> int:
    if not lines or not lines[0].startswith("t="):
        raise FormatError("line 1: expected header 't=<bits>'")
    return _positive_int(1, "bit count", lines[0][2:])


def _parse_hex(no: int, token: str, t: int) -> bytes:
    """One t-bit packet from hex: ceil(t/8) bytes, padding bits zero."""
    width = packet_bytes(t)
    if not re.fullmatch(r"[0-9a-f]*", token) or len(token) % 2:
        raise FormatError(f"line {no}: bad packet hex {echo(token)}")
    raw = bytes.fromhex(token)
    if len(raw) != width:
        raise FormatError(f"line {no}: expected {width} bytes, got {len(raw)}")
    if raw[-1] >> (t - 8 * (width - 1)):
        raise FormatError(f"line {no}: padding bits beyond t={t} must be zero")
    return raw


def parse_packets(text: str) -> PacketVector:
    """Parse a packet file into a validated vector (ids follow line order)."""
    lines = _lines(text)
    t = _parse_header(lines)
    pkts = [_parse_hex(no, line, t) for no, line in enumerate(lines[1:], start=2)]
    return new_packet_vector(t, pkts)


def serialize_side(t: int, side_packets: dict[int, bytes]) -> str:
    """Side packets as "id=hex" lines under the usual "t=" header."""
    lines = [f"t={t}"]
    lines.extend(f"{i}={side_packets[i].hex()}" for i in sorted(side_packets))
    return "\n".join(lines) + "\n"


def parse_side(text: str) -> tuple[int, dict[int, bytes]]:
    lines = _lines(text)
    t = _parse_header(lines)
    out: dict[int, bytes] = {}
    for no, line in enumerate(lines[1:], start=2):
        if "=" not in line:
            raise FormatError(f"line {no}: expected 'id=hex', got {echo(line)}")
        left, right = line.split("=", 1)
        mid = _positive_int(no, "message id", left)
        if mid in out:
            raise FormatError(f"line {no}: duplicate message id {echo(mid)}")
        out[mid] = _parse_hex(no, right, t)
    return t, out
