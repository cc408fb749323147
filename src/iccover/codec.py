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
packet of the piece and ``to_bytes`` once per symbol.
``decode_receiver`` finds the receiver among the labeling's coordinates,
reads a payload's int from the code, which converts each payload once,
on its first fetch, and calls ``to_bytes`` once per receiver.  Every
entry point calls ``validate_template``, which reads the verdict the
immutable template keeps; a labeling is the caller's dict, so it is
checked on every call.
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
    echo,
)
from .template import IccTemplate, Labeling, _arc_index, _coord_tuple, validate_template

TAG_PATH_I = "path-I"
TAG_PATH_II = "path-II"
TAG_BRIDGE = "bridge"
TAG_SUM = "terminal-sum"
TAG_UNCODED = "uncoded"


def packet_bytes(t: int) -> int:
    return (t + 7) // 8


def _xor_all(operands) -> bytes:
    """XOR equal-width packets, consuming `operands` lazily in order.

    Each operand's width is checked before the next one is drawn, so a
    generator that fetches operands raises in the same order as a chain
    of pairwise XORs would.  Equal widths keep the int below 256**width,
    so ``to_bytes`` cannot overflow.
    """
    it = iter(operands)
    first = next(it)
    width = len(first)
    acc = int.from_bytes(first, "little")
    for p in it:
        if len(p) != width:
            raise InvalidCode(f"packet length mismatch: {width} vs {len(p)} bytes")
        acc ^= int.from_bytes(p, "little")
    return acc.to_bytes(width, "little")


def xor_bytes(a: bytes, b: bytes) -> bytes:
    return _xor_all((a, b))


@dataclass(frozen=True)
class PacketVector:
    """One t-bit packet per message id, 1-indexed through packet(id)."""

    t: int
    packets: tuple[bytes, ...]

    def packet(self, message_id: int) -> bytes:
        if not 1 <= message_id <= len(self.packets):
            raise InvalidCode(f"message id {message_id} outside packet vector of size {len(self.packets)}")
        return self.packets[message_id - 1]


def new_packet_vector(t: int, packets) -> PacketVector:
    """Validate packet shapes: ceil(t/8) bytes each, padding bits zero."""
    if not isinstance(t, int) or isinstance(t, bool) or t < 1:
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

    def __post_init__(self):
        object.__setattr__(self, "support", frozenset(self.support))


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
    def _ints(self) -> dict[frozenset[int], tuple[int, int]]:
        """Payload int and byte width of each support a decoder has fetched."""
        return {}


def _compiled(T: IccTemplate) -> tuple[list[tuple[tuple[int, ...], str]], int, dict, dict, dict]:
    """T's rows as coordinate positions, their XOR count, each non-terminal's
    successor, each main-path terminal's out-arc heads and the decoding
    chains built so far, set on first use.  The pair symbols are T's arcs
    that leave no terminal, in arc order; the terminals' parity comes last."""
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


def _checked_labeling(T: IccTemplate, labeling: Labeling) -> list[int]:
    """Message ids of T's coordinates in coords() order; complete and injective."""
    coords = _coord_tuple(T)
    try:
        ids = list(map(labeling.__getitem__, coords))
    except KeyError:
        missing = next(c for c in coords if c not in labeling)
        raise InvalidCode(f"labeling missing coordinate {missing}") from None
    if len(set(ids)) != len(ids):
        raise InvalidCode("labeling is not injective")
    return ids


def encode(T: IccTemplate, labeling: Labeling, packets: PacketVector | None = None) -> IndexCode:
    """Produce the template's index code; payloads are filled when packets are given."""
    _require_valid(T)
    ids = _checked_labeling(T, labeling)
    rows, xor_terms = _compiled(T)[:2]
    if packets is not None:
        for m in ids:
            if not 1 <= m <= len(packets.packets):
                raise InvalidCode(f"message id {m} outside packet vector of size {len(packets.packets)}")
        own = [packets.packets[m - 1] for m in ids]
        width = len(own[0])
        if any(len(p) != width for p in own):
            for row, _ in rows:  # the rows connect every coordinate, so one raises
                _xor_all([own[p] for p in row])
        xs = [int.from_bytes(p, "little") for p in own]
    symbols = []
    for row, tag in rows:
        payload = None if packets is None else reduce(xor, map(xs.__getitem__, row)).to_bytes(width, "little")
        symbols.append(CodedSymbol(frozenset([ids[p] for p in row]), payload, tag))
    return IndexCode(tuple(symbols), xor_bit_ops=None if packets is None else xor_terms * packets.t)


def code_length(T: IccTemplate) -> int:
    """Number of broadcast symbols the template's code needs: n - k + 1."""
    _require_valid(T)
    return T.n - T.k + 1


def xor_op_count(T: IccTemplate, t: int) -> int:
    """Exact bit-XOR operations the encoder spends on t-bit packets."""
    _require_valid(T)
    if not isinstance(t, int) or isinstance(t, bool) or t < 1:
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


def _fold(steps, ids: list[int], code: IndexCode, side_packets: dict[int, bytes]) -> bytes:
    """XOR the operands of decoding steps, positions read through `ids`;
    each operand's width is checked before the next step."""
    ints, width, acc = code._ints, None, 0
    for row, c in steps:
        if row is None:
            m = ids[c]
            if m not in side_packets:
                raise MissingSidePacket(m)
            x, w = int.from_bytes(side_packets[m], "little"), len(side_packets[m])
        else:
            support = frozenset([ids[p] for p in row])
            if support not in ints:
                sym = code._by_support.get(support)
                if sym is None:
                    raise MissingCodedSymbol(support)
                if sym.payload is None:
                    names = "+".join(f"x{i}" for i in sorted(support))
                    raise DecodeFailure(f"coded symbol {names} carries no payload")
                ints[support] = (int.from_bytes(sym.payload, "little"), len(sym.payload))
            x, w = ints[support]
        if width is not None and w != width:
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
    ids = _checked_labeling(T, labeling)
    try:
        p = ids.index(receiver)
    except ValueError:
        raise DecodeFailure(f"receiver {receiver} is not covered by the labeling") from None
    return _fold(_chain(T, p), ids, code, side_packets)


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


def parse_code(text: str) -> IndexCode:
    """Parse a code listing; payload hex is optional per line."""
    symbols = []
    width: int | None = None
    for no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            raise FormatError(f"line {no}: empty line")
        parts = line.split()
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
    lines = text.splitlines()
    t = _parse_header(lines)
    pkts = [_parse_hex(no, line.strip(), t) for no, line in enumerate(lines[1:], start=2)]
    return new_packet_vector(t, pkts)


def serialize_side(t: int, side_packets: dict[int, bytes]) -> str:
    """Side packets as "id=hex" lines under the usual "t=" header."""
    lines = [f"t={t}"]
    lines.extend(f"{i}={side_packets[i].hex()}" for i in sorted(side_packets))
    return "\n".join(lines) + "\n"


def parse_side(text: str) -> tuple[int, dict[int, bytes]]:
    lines = text.splitlines()
    t = _parse_header(lines)
    out: dict[int, bytes] = {}
    for no, line in enumerate(lines[1:], start=2):
        if "=" not in line:
            raise FormatError(f"line {no}: expected 'id=hex', got {echo(line)}")
        left, right = line.split("=", 1)
        mid = _positive_int(no, "message id", left)
        if mid in out:
            raise FormatError(f"line {no}: duplicate message id {echo(mid)}")
        out[mid] = _parse_hex(no, right.strip(), t)
    return t, out
