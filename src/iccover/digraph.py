"""Directed side-information graphs with canonical JSON I/O.

A digraph on receivers 1..n records, as an arc (u, v), that receiver u
already holds message v, so the out-neighborhood of a vertex is exactly
its side-information set.  Digraph values are immutable after
construction and safe to share; every function in this module is pure.

A Digraph is stored as its adjacency bitmasks and nothing else:
``out_masks[u]`` has bit v-1 set iff (u, v) is an arc, and ``in_masks``
is the transpose, both built by ``new_digraph`` in one pass over the
arcs.  The arc set ``arcs`` is derived from ``out_masks`` on each read.
The bitmask helpers at the bottom (``shortest_cycle_mask`` and friends)
and the covering and oracle modules traverse the masks directly.

One BFS, ``_start_cycle``, finds the shortest cycle through a start
vertex, capped at a given length.  ``shortest_cycle_mask`` runs it from
every start in ascending order, the cap one below the best length found
so far.  ``pack_cycles`` is the greedy planners' incremental form of
repeated ``shortest_cycle_mask`` calls, each found cycle deleted before
the next; it runs the same BFS, capped at the first length in its queue.
``_greedy_cycles`` (its packing of all of D) and ``_greedy_cliques`` keep
their result for the last Digraph value asked, so that a greedy
``compare`` computes each once for all of its planners; so does
``_cyclic_parts``, the strong components that exact cycle and ICC planners
solve (the exact clique DP runs ``_strong_parts`` on the mutual-arc graph,
a Digraph whose out- and in-masks are both ``_mutual_masks``, unvalidated).
"""

from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import FormatError, InvalidDigraph, _is_count, echo

# Size bounds.  Every digraph has at most MAX_N vertices, so a mask tuple
# holds at most MAX_N + 1 ints of MAX_N bits; exact mode fills lists of 2^|C|
# entries per strongly connected component C, 2^n when C spans D, about
# 8 GB each at n = 30, so it refuses n > EXACT_LIMIT whatever the bound.
MAX_N = 1024
EXACT_LIMIT = 20


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph with 1-indexed vertices and no self-arcs, as
    adjacency bitmasks (index 0 unused); build one with new_digraph.

    Two digraphs are equal iff they have the same n and the same arcs.
    """

    n: int
    out_masks: tuple[int, ...]
    in_masks: tuple[int, ...] = field(compare=False)

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """The arc set, read off out_masks."""
        return frozenset(_sorted_arcs(self.out_masks))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={_sorted_arcs(self.out_masks)})"

    def out_neighbors(self, u: int) -> set[int]:
        _check_vertex(self.n, u)
        return set(iter_mask_vertices(self.out_masks[u]))


@dataclass(frozen=True)
class Cycle:
    """Elementary directed cycle; the closing arc back to vertices[0] is implied."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(self.vertices)
        if len(vs) < 2:
            raise InvalidDigraph(f"a cycle needs at least 2 vertices, got {len(vs)}")
        if len(set(vs)) != len(vs):
            raise InvalidDigraph(f"cycle repeats a vertex: {vs}")
        object.__setattr__(self, "vertices", vs)

    def __len__(self) -> int:
        return len(self.vertices)


def _check_vertex(n: int, v) -> None:
    if not (_is_count(v) and 1 <= v <= n):
        raise InvalidDigraph(f"vertex id {v!r} out of range 1..{n}")


def new_digraph(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    """Build a digraph, rejecting bad endpoints, self-arcs and n above
    MAX_N; duplicates collapse."""
    if not _is_count(n) or n < 0:
        raise InvalidDigraph(f"vertex count must be a non-negative integer, got {n!r}")
    if n > MAX_N:
        raise InvalidDigraph(f"vertex count {n} is above the limit of {MAX_N}")
    out = [0] * (n + 1)
    inn = [0] * (n + 1)
    for arc in arcs:
        try:
            u, v = arc
        except (TypeError, ValueError):
            raise InvalidDigraph(f"arc {arc!r} is not a pair") from None
        if not (type(u) is int and type(v) is int and 0 < u <= n and 0 < v <= n and u != v):
            _check_vertex(n, u)  # the checks that raise; int subclasses pass them
            _check_vertex(n, v)
            if u == v:
                raise InvalidDigraph(f"self-arc ({u},{v}) is not allowed")
        out[u] |= 1 << (v - 1)
        inn[v] |= 1 << (u - 1)
    return Digraph(n, tuple(out), tuple(inn))


def _sorted_arcs(out_masks: tuple[int, ...]) -> list[tuple[int, int]]:
    """Every arc (u, v) in lexicographic order: each mask lists its v ascending."""
    return [(u, v) for u, m in enumerate(out_masks) for v in iter_mask_vertices(m)]


def side_info(D: Digraph, i: int) -> set[int]:
    """Message ids receiver i already holds (its out-neighborhood)."""
    return D.out_neighbors(i)


def serialize_digraph(D: Digraph) -> str:
    """Canonical JSON: arcs sorted lexicographically, no whitespace variation."""
    obj = {"n": D.n, "arcs": _sorted_arcs(D.out_masks)}  # json writes a tuple as an array
    return json.dumps(obj, separators=(",", ":"))


def _load_json(text: str):
    """json.loads, every failure a FormatError; a plain ValueError is an
    integer beyond CPython's digit limit for int conversion."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None
    except ValueError:
        raise FormatError("invalid JSON: an integer has too many digits") from None


def parse_digraph(text: str) -> Digraph:
    """Parse the JSON digraph format, reporting the offending field on error."""
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise FormatError("top-level value must be an object")
    extra = set(obj) - {"n", "arcs"}
    if extra:
        raise FormatError(f"unknown field {echo(sorted(extra)[0])}")
    if "n" not in obj or "arcs" not in obj:
        raise FormatError("object must carry fields 'n' and 'arcs'")
    n = obj["n"]
    if not _is_count(n) or n < 0:
        raise FormatError(f"field 'n': expected a non-negative integer, got {echo(n)}")
    if n > MAX_N:
        raise FormatError(f"field 'n': {echo(n)} vertices is above the limit of {MAX_N}")
    raw = obj["arcs"]
    if not isinstance(raw, list):
        raise FormatError("field 'arcs': expected a list")
    arcs = []
    for idx, entry in enumerate(raw):
        if not isinstance(entry, list) or len(entry) != 2:
            raise FormatError(f"arcs[{idx}]: expected a pair [u,v], got {echo(entry)}")
        u, v = entry
        for end in (u, v):
            if not _is_count(end) or not 1 <= end <= n:
                raise FormatError(f"arcs[{idx}]: endpoint {echo(end)} out of range 1..{n}")
        if u == v:
            raise FormatError(f"arcs[{idx}]: self-arc ({u},{v}) is not allowed")
        arcs.append((u, v))
    return new_digraph(n, arcs)


# ---------- bitmask traversal utilities ----------


def full_mask(n: int) -> int:
    return (1 << n) - 1


def iter_mask_vertices(mask: int) -> Iterator[int]:
    """Vertices of a bitmask in ascending order."""
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length()


def is_acyclic_mask(in_m: tuple[int, ...], mask: int) -> bool:
    """True iff the subgraph induced on the bitmask has no directed cycle."""
    remaining = mask
    while remaining:
        progressed = False
        m = remaining
        while m:
            b = m & -m
            m ^= b
            if in_m[b.bit_length()] & remaining == 0:
                remaining ^= b
                progressed = True
        if not progressed:
            return False
    return True


def shortest_cycle_mask(out_m: tuple[int, ...], mask: int) -> tuple[int, ...] | None:
    """Deterministic shortest directed cycle inside the induced bitmask, or None.

    Tie rule: among the shortest cycles, the one whose start vertex s is
    smallest; the cycle starts at s, so s is also its smallest vertex.
    Through s, the closing vertex u (the last vertex before the arc back
    to s) is the smallest of the in-neighbours of s nearest to s, and the
    path s -> u is the lexicographically smallest shortest such path.

    Start vertices go in ascending order, each with one _start_cycle BFS
    through the mask's vertices above s: a shortest cycle through s that
    contains a smaller vertex v was already found from v, at no greater
    length, and on equal length the earlier start wins.  The BFS is capped
    at cap levels, which starts at |mask| and falls to one below the
    length of each cycle found, so a later start wins only when strictly
    shorter; the search ends once cap < 2, since no cycle is shorter
    than 2.
    """
    best: tuple[int, ...] | None = None
    cap = mask.bit_count()
    rest = mask
    while rest and cap >= 2:
        sbit = rest & -rest
        rest ^= sbit  # now exactly the mask's vertices above s
        got = _start_cycle(out_m, sbit, rest, cap)
        if got is not None and got[1] is not None:
            cap, best = got[0] - 1, got[1]
    return best


def pack_cycles(out_m: tuple[int, ...], mask: int) -> list[tuple[int, ...]]:
    """The cycles, in order, that repeated shortest_cycle_mask calls give
    when each cycle found is deleted from mask before the next call.

    A sorted queue holds per start s an entry (length, s, cycle): the
    smallest shortest cycle from s, or None and a lower bound on its
    length (initially 2).  Deleting vertices never shortens a cycle, so a
    popped cycle whose vertices all remain is what shortest_cycle_mask
    returns; other popped starts are searched again in the pool, the BFS
    capped at the first length in the queue.
    """
    # a sorted list, not heapq: random has loaded bisect already, heapq adds a module
    queue = [(2, s, None) for s in iter_mask_vertices(mask)]
    cycles: list[tuple[int, ...]] = []
    pool = mask
    while queue:
        _, s, cyc = queue.pop(0)
        sbit = 1 << (s - 1)
        if not pool & sbit:
            continue
        if cyc is not None and all(pool >> (v - 1) & 1 for v in cyc):
            cycles.append(cyc)
            for v in cyc:
                pool &= ~(1 << (v - 1))
            continue
        # with the queue empty no BFS from s has more than |mask| levels
        got = _start_cycle(out_m, sbit, pool & -(sbit << 1), queue[0][0] if queue else mask.bit_count())
        if got is not None:
            insort(queue, (got[0], s, got[1]))
    return cycles


@lru_cache(maxsize=1)
def _greedy_cycles(D: Digraph) -> tuple[tuple[int, ...], ...]:
    return tuple(pack_cycles(D.out_masks, full_mask(D.n)))


def _start_cycle(out_m: tuple[int, ...], sbit: int, above: int, cap: int) -> tuple[int, tuple[int, ...] | None] | None:
    """(length, cycle) for s through above, by shortest_cycle_mask's tie
    rule; (cap + 1, None) when longer than cap; None when there is none."""
    levels = [sbit]
    seen = frontier = sbit
    while True:
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            f ^= b
            arcs = out_m[b.bit_length()]
            if arcs & sbit:
                return len(levels), _lexmin_path(out_m, levels, b)
            nxt |= arcs
        frontier = nxt & above & ~seen
        if not frontier:
            return None
        if len(levels) == cap:
            return cap + 1, None
        seen |= frontier
        levels.append(frontier)


def _lexmin_path(out_m: tuple[int, ...], levels: list[int], u: int) -> tuple[int, ...]:
    """Lexicographically smallest path levels[0] -> u through one vertex per BFS level.

    u lies in levels[-1].  Backward reachability marks, on each level, the
    vertices with a shortest path on to u; the forward walk then takes the
    lowest marked successor at every step.  This is the path that FIFO
    parent pointers with ascending neighbour order would give.
    """
    reach = [u]
    for level in reversed(levels[:-1]):
        target = reach[-1]
        marked = 0
        m = level
        while m:
            b = m & -m
            m ^= b
            if out_m[b.bit_length()] & target:
                marked |= b
        reach.append(marked)
    reach.reverse()
    v = levels[0]
    path = [v.bit_length()]
    for marked in reach[1:]:
        succ = out_m[v.bit_length()] & marked
        v = succ & -succ
        path.append(v.bit_length())
    return tuple(path)


def _reach_mask(masks: tuple[int, ...], mask: int, start_bit: int) -> int:
    seen = start_bit
    frontier = start_bit
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            m ^= b
            nxt |= masks[b.bit_length()] & mask
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def strongly_connected_mask(out_m: tuple[int, ...], in_m: tuple[int, ...], mask: int) -> bool:
    """True iff the subgraph induced on the bitmask is strongly connected (and nonempty)."""
    if mask == 0:
        return False
    start = mask & -mask
    return _reach_mask(out_m, mask, start) == mask and _reach_mask(in_m, mask, start) == mask


def _strong_parts(D: Digraph) -> tuple[tuple[Digraph, tuple[int, ...]], ...]:
    """D's strongly connected components C of two or more vertices, by lowest vertex, each as
    (D[C] relabelled 1..|C| in ascending vertex order, C's vertices), D itself when C is all
    of D.  Every cycle lies inside one of them, and the other vertices lie on none."""
    parts, rest = [], full_mask(D.n)
    while rest:
        comp = _reach_mask(D.out_masks, rest, rest & -rest) & _reach_mask(D.in_masks, rest, rest & -rest)
        rest ^= comp
        if comp & (comp - 1):  # two or more vertices
            vs = tuple(iter_mask_vertices(comp))
            at = {v: i for i, v in enumerate(vs, start=1)}
            arcs = ((at[u], at[w]) for u in vs for w in iter_mask_vertices(D.out_masks[u] & comp))  # read only for a copy
            parts.append((D if len(vs) == D.n else new_digraph(len(vs), arcs), vs))
    return tuple(parts)


_cyclic_parts = lru_cache(maxsize=1)(_strong_parts)  # the parts that exact cycle and ICC planners solve


def _mutual_masks(D: Digraph) -> list[int]:
    return [o & i for o, i in zip(D.out_masks, D.in_masks)]


def _greedy_clique_partition(D: Digraph) -> list[list[int]]:
    """Maximal groups, each seeded by the highest mutual degree among the
    remaining vertices (ties to the lowest id), members added in the
    same order.

    Degrees are kept incrementally: removing a group lowers only its
    members' remaining mutual neighbors, and a vertex of degree 0 leaves
    live, where seeds are sought.  Once live is empty, every remaining
    vertex is a group of its own, in ascending order.
    """
    mut = _mutual_masks(D)
    deg = [m.bit_count() for m in mut]
    remaining = full_mask(D.n)
    live = sum(1 << (v - 1) for v in range(1, D.n + 1) if deg[v])
    groups: list[list[int]] = []
    while live:
        # max returns the first maximal vertex, that is the lowest id
        seed = max(iter_mask_vertices(live), key=deg.__getitem__)
        cmask = 1 << (seed - 1)
        for u in sorted(iter_mask_vertices(mut[seed] & remaining), key=lambda v: (-deg[v], v)):
            if (mut[u] & cmask) == cmask:
                cmask |= 1 << (u - 1)
        remaining &= ~cmask
        live &= ~cmask
        group = list(iter_mask_vertices(cmask))
        for u in group:
            for w in iter_mask_vertices(mut[u] & remaining):
                deg[w] -= 1
                if not deg[w]:
                    live &= ~(1 << (w - 1))
        groups.append(group)
    return groups + [[v] for v in iter_mask_vertices(remaining)]


@lru_cache(maxsize=1)
def _greedy_cliques(D: Digraph) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, _greedy_clique_partition(D)))
