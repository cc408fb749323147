"""Interlinked-cycle structures described parametrically.

A template lists k terminal-anchored main paths (Type-I), an optional
connector path (Type-II) for every ordered pair of main paths, and an
attachment map saying at which position each pair's connection re-enters
the target path.  Building the template yields a digraph in which every
main-path terminal fans out to all other main paths, either directly or
through its connector, which is what makes the single combined parity
symbol decodable everywhere.

Template coordinates name vertices structurally: ``(i, a)`` is position a
of main path i, ``(i, j, a)`` is position a of the connector for the
ordered pair (i, j).  A labeling maps coordinates to host vertex ids.

An ``IccTemplate`` is immutable (``type_ii`` and ``attach`` are read-only
views of private copies), so what is derived from it cannot go stale: its
soundness verdict, coordinate tuple and arc list (in coordinate-index
form) are each computed once, on first use, and the codec keeps its
compiled rows and decoding chains on it the same way.  A plan's labeling
is a read-only ``FrozenLabeling``, checked (its id range too) once per
template; a plain dict may change, so it is checked on every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, permutations
from types import MappingProxyType
from typing import Iterable, Mapping

from .digraph import MAX_N, Cycle, Digraph, _check_vertex, _load_json, new_digraph
from .errors import EmbeddingError, FormatError, InvalidCode, InvalidTemplate, _is_count, echo

Coord = tuple  # (i, a) for Type-I, (i, j, a) for Type-II
Labeling = dict


class FrozenLabeling(dict):
    """A read-only labeling, as plans hold it: equal to, printed and
    serialized as the dict it copies; _labeled keeps its memo."""

    __slots__ = ("_memo",)

    def _read_only(self, *args, **kwargs):
        raise TypeError("a plan's labeling is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):  # pickle and deepcopy rebuild it without its memo
        return type(self), (dict(self),)


@dataclass(frozen=True)
class IccTemplate:
    """Parametric description of an interlinked-cycle digraph.

    type_i[i-1] is the length of main path i (at least 1).  type_ii maps
    an ordered pair (i, j) to its connector length; missing pairs mean no
    connector.  attach maps (i, j) to the 1-based position on path j where
    the pair's connection lands.  Both maps are stored read-only.
    """

    k: int
    type_i: tuple[int, ...]
    type_ii: Mapping[tuple[int, int], int] = field(default_factory=dict)
    attach: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "type_i", tuple(self.type_i))
        object.__setattr__(self, "type_ii", MappingProxyType(dict(self.type_ii)))
        object.__setattr__(self, "attach", MappingProxyType(dict(self.attach)))
        # filled on first use; plain attributes, not cached_property, which
        # makes CPython 3.11 build the instance __dict__ and slows every read
        for name in ("_sound", "_coords", "_arcs", "_codec"):
            object.__setattr__(self, name, None)

    def __reduce__(self):
        # a mappingproxy cannot be pickled; rebuild from plain dicts
        return type(self), (self.k, self.type_i, dict(self.type_ii), dict(self.attach))

    @property
    def n(self) -> int:
        """Total vertex count: main-path lengths plus connector lengths."""
        return sum(self.type_i) + sum(self.type_ii.values())

    def n_i(self, i: int) -> int:
        return self.type_i[i - 1]

    def n_ij(self, i: int, j: int) -> int:
        return self.type_ii.get((i, j), 0)

    def q(self, i: int, j: int) -> int:
        return self.attach[(i, j)]

    def pairs(self) -> list[tuple[int, int]]:
        """Ordered pairs (i, j), i != j, in lexicographic order."""
        return list(permutations(range(1, self.k + 1), 2))

    def terminal(self, i: int) -> Coord:
        return (i, self.n_i(i))

    def coords(self) -> list[Coord]:
        """All vertex coordinates: main paths by index, then connectors by pair."""
        return list(_coord_tuple(self))


def _coord_tuple(T: IccTemplate) -> tuple[Coord, ...]:
    """T.coords() as a tuple, computed on the first call.

    Only nonzero connectors are walked: keys that are not one of pairs()
    contribute nothing, and sorting the rest gives the pairs() order.
    """
    if T._coords is None:
        span = range(1, T.k + 1)
        out: list[Coord] = [(i, a) for i in span for a in range(1, T.type_i[i - 1] + 1)]
        linked = sorted(
            (p, ln)
            for p, ln in T.type_ii.items()
            if ln and isinstance(p, tuple) and len(p) == 2 and p[0] in span and p[1] in span and p[0] != p[1]
        )
        out += [(i, j, a) for (i, j), ln in linked for a in range(1, ln + 1)]
        object.__setattr__(T, "_coords", tuple(out))
    return T._coords


def validate_template(T: IccTemplate) -> list[str]:
    """Return all structural violations, empty when the template is sound.

    For k >= 2 every ordered pair needs an attachment point in range, and
    every main path's first vertex must be targeted by some attachment so
    that it has an incoming arc in the built digraph.  A single-path
    template (k = 1) has no pairs and is exempt from those checks.  A
    template has at most MAX_N vertices, like the digraphs it embeds in.

    The verdict is kept on the template: a sound template is checked
    once, and an unsound one lists its problems, in a fixed order, on
    every call.
    """
    if T._sound is None:
        problems = _template_problems(T)
        object.__setattr__(T, "_sound", not problems)
        return problems
    return [] if T._sound else _template_problems(T)


def _template_problems(T: IccTemplate) -> list[str]:
    if not _is_count(T.k) or T.k < 1:
        return [f"k must be a positive integer, got {echo(T.k)}"]
    problems: list[str] = []
    if len(T.type_i) != T.k:
        problems.append(f"expected {T.k} main-path lengths, got {len(T.type_i)}")
    else:
        for idx, ln in enumerate(T.type_i, start=1):
            if not _is_count(ln) or ln < 1:
                problems.append(f"main path {idx}: length must be >= 1, got {echo(ln)}")
    if problems:
        return problems
    if sum(T.type_i) > MAX_N:  # before any walk over the k(k - 1) pairs
        return [f"template has at least {sum(T.type_i)} vertices, above the limit of {MAX_N}"]
    valid_pairs = set(T.pairs())
    for key in sorted(T.type_ii, key=repr):
        val = T.type_ii[key]
        if key not in valid_pairs:
            problems.append(f"connector for nonexistent pair {echo(key)}")
        elif not _is_count(val) or val < 0:
            problems.append(f"connector {key}: length must be >= 0, got {echo(val)}")
    # a clique's k(k - 1) attachments: sort only the foreign keys
    for key in sorted([key for key in T.attach if key not in valid_pairs], key=repr):
        problems.append(f"attachment for nonexistent pair {echo(key)}")
    for (i, j) in T.pairs():
        if (i, j) not in T.attach:
            problems.append(f"pair ({i},{j}): no attachment point")
            continue
        q = T.attach[(i, j)]
        if not _is_count(q) or not 1 <= q <= T.n_i(j):
            problems.append(f"pair ({i},{j}): attachment {echo(q)} out of range 1..{T.n_i(j)}")
    if problems:
        return problems
    if T.k >= 2:
        for j in range(1, T.k + 1):
            if not any(T.attach[(i, j)] == 1 for i in range(1, T.k + 1) if i != j):
                problems.append(f"main path {j}: first vertex never targeted by an attachment")
    if T.n > MAX_N:
        problems.append(f"template has {T.n} vertices, above the limit of {MAX_N}")
    return problems


def _arc_index(T: IccTemplate) -> tuple[tuple[int, int], ...]:
    """Main-path arcs, connector arcs, then each pair's links, as positions
    in _coord_tuple(T); one walk of position arithmetic, on the first call."""
    if T._arcs is None:
        starts = [0, *accumulate(T.type_i)]  # (i, 1) sits at starts[i - 1]
        path = [(p, p + 1) for i in range(T.k) for p in range(starts[i], starts[i + 1] - 1)]
        links, at = [], starts[-1]  # at: position of the next connector's first vertex
        for i, j in T.pairs():
            nij, end = T.n_ij(i, j), starts[j - 1] + T.attach[(i, j)] - 1
            path += [(p, p + 1) for p in range(at, at + nij - 1)]
            links += [(starts[i] - 1, at), (at + nij - 1, end)] if nij else [(starts[i] - 1, end)]
            at += nij
        object.__setattr__(T, "_arcs", tuple(path + links))
    return T._arcs


def canonical_labeling(T: IccTemplate) -> Labeling:
    """Number coordinates 1..n in their canonical order.

    Raises InvalidTemplate for an unsound template, whose coordinates
    are not defined.
    """
    problems = validate_template(T)
    if problems:
        raise InvalidTemplate(problems)
    return {coord: idx for idx, coord in enumerate(_coord_tuple(T), start=1)}


def build_digraph(T: IccTemplate) -> tuple[Digraph, Labeling]:
    """Materialize the template as a standalone digraph on vertices 1..n.

    The returned digraph carries exactly the template's arcs; the labeling
    records which vertex realizes which coordinate.
    """
    lab = canonical_labeling(T)
    return new_digraph(T.n, [(a + 1, b + 1) for a, b in _arc_index(T)]), lab


def _labeled(T: IccTemplate, labeling: Labeling) -> list:
    """[T, ids, supports, operands, top]: T's coordinates' message ids, checked complete and injective, and top,
    their largest if all are exact positive ints, else 0; a FrozenLabeling keeps it under T's identity."""
    frozen = type(labeling) is FrozenLabeling
    memo = getattr(labeling, "_memo", None) if frozen else None
    if memo is not None and memo[0] is T:
        return memo
    coords = _coord_tuple(T)
    try:
        ids = list(map(labeling.__getitem__, coords))
    except KeyError:
        missing = next(c for c in coords if c not in labeling)
        raise InvalidCode(f"labeling missing coordinate {missing}") from None
    try:
        if len(set(ids)) != len(ids):
            raise InvalidCode("labeling is not injective")
    except TypeError:
        raise InvalidCode("labeling has an unhashable message id") from None
    memo = [T, ids, None, {}, max(ids) if set(map(type, ids)) == {int} and min(ids) > 0 else 0]
    if frozen:
        labeling._memo = memo
    return memo


def check_embedding(D: Digraph, T: IccTemplate, labeling: Labeling) -> bool:
    """True iff the labeling maps every template arc onto an arc of D.

    Extra arcs of D between labeled vertices are tolerated; the labeling
    must be injective and cover every coordinate.
    """
    problems = validate_template(T)
    if problems:
        raise InvalidTemplate(problems)
    try:
        _, ids, _, _, top = _labeled(T, labeling)
    except InvalidCode:
        return False
    if not 0 < top <= D.n and not all(_is_count(v) and 1 <= v <= D.n for v in ids):
        return False
    out = D.out_masks
    return all(out[ids[a]] >> (ids[b] - 1) & 1 for a, b in _arc_index(T))


def cycle_to_template(cycle: Cycle, split: int) -> tuple[IccTemplate, Labeling]:
    """View a directed cycle as two main paths closed by their terminals.

    The first `split` vertices form path 1 and the rest path 2; both
    attachments land on position 1, which reproduces the cycle's arcs.
    Cycles of one shape share one template; the labeling is read-only.
    """
    L = len(cycle.vertices)
    if L < 2:
        raise InvalidTemplate(f"cycle must have at least 2 vertices, got {L}")
    if not _is_count(split) or not 1 <= split < L:
        raise InvalidTemplate(f"split must lie in 1..{L - 1}, got {split!r}")
    shape = _cycle_shape if L <= SHARED_SHAPE_MAX else _cycle_shape.__wrapped__
    T = shape(split, L - split)
    return T, FrozenLabeling(zip(_coord_tuple(T), cycle.vertices))


def clique_to_template(D: Digraph, vertices: Iterable[int]) -> tuple[IccTemplate, Labeling]:
    """View a bidirectionally complete vertex set as single-vertex main
    paths.  Cliques of one size share one template; the labeling is read-only."""
    vs = sorted(set(vertices))
    if not vs:
        raise EmbeddingError("clique must contain at least one vertex")
    mask = 0
    for v in vs:
        _check_vertex(D.n, v)
        mask |= 1 << (v - 1)
    out = D.out_masks
    for u in vs:
        missing = mask & ~out[u] & ~(1 << (u - 1))
        if missing:
            v = (missing & -missing).bit_length()
            raise EmbeddingError(f"vertices {vs} are not a clique: missing arc ({u},{v})")
    shape = _clique_shape if len(vs) <= SHARED_SHAPE_MAX else _clique_shape.__wrapped__
    T = shape(len(vs))
    return T, FrozenLabeling(zip(_coord_tuple(T), vs))


# One template per shape, shared by every piece of that shape: a template
# is immutable, so it is validated, indexed and compiled once per process.
# A cached clique template holds L(L - 1) attachments for good (28 MiB at
# L = 400), so only pieces of at most SHARED_SHAPE_MAX vertices share one;
# all shared shapes together then hold under 3 MB.
SHARED_SHAPE_MAX = 32


@lru_cache(maxsize=128)
def _cycle_shape(first: int, second: int) -> IccTemplate:
    return IccTemplate(k=2, type_i=(first, second), attach={(1, 2): 1, (2, 1): 1})


@lru_cache(maxsize=SHARED_SHAPE_MAX)
def _clique_shape(L: int) -> IccTemplate:
    attach = {(i, j): 1 for i in range(1, L + 1) for j in range(1, L + 1) if i != j}
    return IccTemplate(k=L, type_i=(1,) * L, attach=attach)


def random_template(k: int, max_path_len: int = 4, density: float = 0.3, seed: int = 0) -> IccTemplate:
    """Draw a valid template; density, in [0, 1], is the chance a pair gets a connector."""
    if not _is_count(k) or k < 1:
        raise InvalidTemplate(f"k must be a positive integer, got {k!r}")
    if k > MAX_N:
        raise InvalidTemplate(f"k = {k} main paths need more than the limit of {MAX_N} vertices")
    if not _is_count(max_path_len) or max_path_len < 1:
        raise InvalidTemplate(f"max_path_len must be >= 1, got {max_path_len!r}")
    # the chained comparison is also false for NaN
    if not isinstance(density, (int, float)) or not 0 <= density <= 1:
        raise InvalidTemplate(f"density must be a number in [0, 1], got {density!r}")
    rng = random.Random(seed)
    type_i = tuple(rng.randint(1, max_path_len) for _ in range(k))
    pairs = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j]
    type_ii: dict[tuple[int, int], int] = {}
    for pair in pairs:
        if rng.random() < density:
            type_ii[pair] = rng.randint(1, max_path_len)
    attach = {(i, j): rng.randint(1, type_i[j - 1]) for (i, j) in pairs}
    # every main path needs some attachment on its first vertex (k >= 2 only)
    for j in range(1, k + 1) if k >= 2 else ():
        others = [i for i in range(1, k + 1) if i != j]
        if not any(attach[(i, j)] == 1 for i in others):
            attach[(rng.choice(others), j)] = 1
    T = IccTemplate(k=k, type_i=type_i, type_ii=type_ii, attach=attach)
    if T.n > MAX_N:
        raise InvalidTemplate(f"drawn template has {T.n} vertices, above the limit of {MAX_N}")
    return T


def serialize_template(T: IccTemplate) -> str:
    """Canonical JSON with "i,j" pair keys; zero-length connectors are omitted."""
    type_ii = {f"{i},{j}": T.type_ii[(i, j)] for (i, j) in sorted(T.type_ii) if T.type_ii[(i, j)] > 0}
    attach = {f"{i},{j}": T.attach[(i, j)] for (i, j) in sorted(T.attach)}
    obj = {"k": T.k, "typeI": list(T.type_i), "typeII": type_ii, "attach": attach}
    return json.dumps(obj, separators=(",", ":"))


def _parse_pair_key(field_name: str, key: str) -> tuple[int, int]:
    parts = key.split(",")
    if len(parts) != 2:
        raise FormatError(f"field {field_name!r}: key {echo(key)} is not of the form \"i,j\"")
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"field {field_name!r}: key {echo(key)} is not of the form \"i,j\"") from None
    return i, j


def parse_template(text: str) -> IccTemplate:
    """Parse the JSON template format; missing typeII entries default to 0."""
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise FormatError("top-level value must be an object")
    extra = set(obj) - {"k", "typeI", "typeII", "attach"}
    if extra:
        raise FormatError(f"unknown field {echo(sorted(extra)[0])}")
    if "k" not in obj or "typeI" not in obj:
        raise FormatError("object must carry fields 'k' and 'typeI'")
    k = obj["k"]
    if not _is_count(k):
        raise FormatError(f"field 'k': expected an integer, got {echo(k)}")
    type_i = obj["typeI"]
    if not isinstance(type_i, list) or not all(_is_count(x) for x in type_i):
        raise FormatError("field 'typeI': expected a list of integers")
    for name in ("typeII", "attach"):
        if not isinstance(obj.get(name, {}), dict):
            raise FormatError(f"field {name!r}: expected an object")
    type_ii: dict[tuple[int, int], int] = {}
    for key, val in obj.get("typeII", {}).items():
        if not _is_count(val):
            raise FormatError(f"field 'typeII': length for {echo(key)} must be an integer, got {echo(val)}")
        type_ii[_parse_pair_key("typeII", key)] = val
    attach: dict[tuple[int, int], int] = {}
    for key, val in obj.get("attach", {}).items():
        if not _is_count(val):
            raise FormatError(f"field 'attach': position for {echo(key)} must be an integer, got {echo(val)}")
        attach[_parse_pair_key("attach", key)] = val
    return IccTemplate(k=k, type_i=tuple(type_i), type_ii=type_ii, attach=attach)
