"""Search for vertex-disjoint interlinked-cycle subgraphs of a host digraph.

A spanning k-path template on a vertex subset saves k - 1 broadcast
symbols, so exact mode picks a disjoint family of embeddings maximizing
total savings by dynamic programming over bitmasks.  No index code on a
subset S is shorter than mais(S), the order of its largest acyclic
induced subgraph, so a piece on S saves at most |S| - mais(S).  Subsets
are visited in ascending mask order, which settles the best partition b
of S into smaller pieces first; S is searched for an embedding only when
|S| - mais(S) > b, and then only for k in b + 2 .. |S| - mais(S) + 1,
and only on terminal sets in which every terminal reaches every other.
Greedy mode packs shortest cycles first (each a k = 2 piece) and then
tries to merge pieces pairwise into higher-k templates, skipping pairs
with arcs one way only between them: two disjoint such pieces have a
union that is not strongly connected, where max_piece finds nothing.

Host arcs beyond the template's own are allowed inside a piece; extra
side information never hurts decodability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_

from .digraph import (
    EXACT_LIMIT,
    Cycle,
    Digraph,
    _reach_mask,
    full_mask,
    is_acyclic_mask,
    iter_mask_vertices,
    pack_cycles,
    shortest_cycle_mask,  # unused; iccbench/tracer.py wraps this binding
    strongly_connected_mask,
)
from .errors import EmbeddingError, SizeRefusal
from .template import IccTemplate, Labeling, check_embedding, cycle_to_template

DEFAULT_EXACT_BOUND = 12

Piece = tuple[IccTemplate, Labeling]
# internal: (k, template, labeling) for one spanning embedding
Embedding = tuple[int, IccTemplate, Labeling]


@dataclass(frozen=True)
class CoverPlan:
    """Vertex-disjoint template embeddings plus the vertices left uncoded."""

    pieces: tuple[Piece, ...]
    uncovered: tuple[int, ...]

    @property
    def savings(self) -> int:
        return sum(T.k - 1 for T, _ in self.pieces)


def make_plan(D: Digraph, pieces: list[Piece]) -> CoverPlan:
    """Check a caller's pieces, then sort them by lowest vertex into a
    CoverPlan whose uncovered vertices are the rest of 1..n, ascending.

    The one check of a plan's pieces, for assemble_code too: raises
    EmbeddingError when a piece does not embed in D, labels keys beyond
    its template's coordinates, or shares a vertex with another.
    """
    pieces = list(pieces)  # read an iterator once
    covered: set[int] = set()
    for idx, (T, lab) in enumerate(pieces, start=1):
        if not check_embedding(D, T, lab):
            raise EmbeddingError(f"piece {idx} does not embed in the digraph")
        if len(lab) != T.n:  # every coordinate is labeled, so a key is extra
            raise EmbeddingError(f"piece {idx} labels keys beyond its template's coordinates")
        vs = set(lab.values())
        if vs & covered:
            raise EmbeddingError(f"piece {idx} overlaps an earlier piece at {sorted(vs & covered)}")
        covered |= vs
    return _unchecked_plan(D, pieces)


def _unchecked_plan(D: Digraph, pieces: list[Piece]) -> CoverPlan:
    """make_plan without its checks, for planners, which build pieces from
    D's own arcs: the tests check their plans (the planner-piece property
    and the plan goldens), and caller plans meet make_plan."""
    covered = {v for _, lab in pieces for v in lab.values()}
    ordered = sorted(pieces, key=lambda piece: min(piece[1].values()))
    # built from a list, not a generator: tuple() of a generator takes a
    # 10-slot tuple and resizes it, so each call would move one block into
    # the free list of another size, and CPython empties those lists (up
    # to 2,000 tuples per size) only in a full gc pass
    uncovered = tuple([v for v in range(1, D.n + 1) if v not in covered])
    return CoverPlan(tuple(ordered), uncovered)


def exact_mode(D: Digraph, mode: str, exact_bound: int, what: str) -> bool:
    """True for exact mode, False for greedy; exact mode refuses n > min(exact_bound, EXACT_LIMIT)."""
    if mode == "exact":
        limit, hint = (exact_bound, " or raise the bound") if exact_bound <= EXACT_LIMIT else (EXACT_LIMIT, "")
        if D.n > limit:
            raise SizeRefusal(f"exact {what} is limited to {limit} vertices (digraph has {D.n}); use greedy mode{hint}")
        return True
    if mode == "greedy":
        return False
    raise ValueError(f"mode must be 'exact' or 'greedy', got {mode!r}")


def pack_pieces(n: int, value: dict[int, int], new_piece=None) -> list[int]:
    """Most valuable disjoint pieces, by a DP over vertex masks in ascending
    order; returns the chosen pieces' masks.

    value maps each candidate's vertex mask to what it saves.  best[mask]
    either skips mask's lowest vertex ("skip low") or takes the first
    candidate p through that vertex, in ascending order, that strictly
    beats every earlier choice.  Proper submasks come first, so b, the best
    split of mask into smaller pieces, is settled when new_piece(mask, b)
    may add to value a piece on exactly mask worth more than b (it returns
    that worth, or 0).  A piece worth no more than b never wins the strict
    >, here or at a larger mask, where that split scores as much, earlier.

    So candidates may leave out pieces the strict > never picks.  Cycles
    need only induced ones: a chorded cycle p holds a shorter cycle, so a
    shortest cycle q of D[p] lies on a proper subset of p and is induced.
    If q avoids the lowest vertex, skip low already scores at least
    1 + best[mask ^ p]; otherwise q is a smaller candidate through it, met
    earlier with a score at least as high.
    """
    full = full_mask(n)
    by_low: dict[int, list[int]] = {}
    for p in sorted(value):
        by_low.setdefault(p & -p, []).append(p)
    best = [0] * (full + 1)
    take = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        b, t = best[mask ^ low], 0
        for p in by_low.get(low, ()):
            if p & ~mask:
                continue
            c = value[p] + best[mask ^ p]
            if c > b:
                b, t = c, p
        if new_piece is not None:
            c = new_piece(mask, b)
            if c:
                value[mask] = c
                by_low.setdefault(low, []).append(mask)
                b, t = c, mask
        best[mask], take[mask] = b, t
    chosen: list[int] = []
    mask = full
    while mask:
        p = take[mask]
        if p:
            chosen.append(p)
        mask ^= p or mask & -mask  # the piece, or the skipped lowest vertex
    return chosen


class _EmbeddingSearch:
    """Backtracking search for a maximum-k spanning template on one subset.

    Terminals are tried as ascending combinations (path indices are
    interchangeable, so sorted terminals lose nothing), main paths grow
    backward from their terminals with "stop" tried before "extend", and
    leftover vertices are assigned to connector paths pivot-first.  The
    first embedding found under this order is the canonical one.  Branches
    are cut only where they must fail: a terminal lacking k - 1 out-arcs
    inside the subset, a terminal set in which some terminal cannot reach
    another through non-terminals, or fewer leftover vertices than the
    ordered pairs whose terminal has no arc onto the other path (each such
    pair needs a nonempty connector path of its own).

    The attempt in progress (terminals and their mask, main paths, ordered
    pairs) lives on the object, so the recursive steps are methods, not nested
    closures, which would reference themselves and leave every search as
    cyclic garbage.
    """

    def __init__(self, out_m: tuple[int, ...], in_m: tuple[int, ...]):
        self.out_m = out_m
        self.in_m = in_m
        self.terms: tuple[int, ...] = ()
        self.term_mask = 0
        self.paths: list[list[int]] = []
        self.allpairs: list[tuple[int, int]] = []

    def max_piece(self, mask: int, kmin: int = 2, kmax: int | None = None) -> Embedding | None:
        """Largest-k spanning embedding on the subset with kmin <= k <= kmax."""
        out_m, in_m = self.out_m, self.in_m
        verts = list(iter_mask_vertices(mask))
        if len(verts) < 2 or not strongly_connected_mask(out_m, in_m, mask):
            return None
        # a terminal needs k-1 outgoing arcs inside the subset
        deg = {v: (out_m[v] & mask).bit_count() for v in verts}
        degs = sorted(deg.values(), reverse=True)
        top = len(verts) if kmax is None else min(kmax, len(verts))
        for k in range(top, kmin - 1, -1):
            if degs[k - 1] < k - 1:
                continue
            cands = [v for v in verts if deg[v] >= k - 1]
            for terms in combinations(cands, k):
                if self._linked(mask, terms):
                    found = self._embed(mask, terms)
                    if found is not None:
                        return (k, *found)
        return None

    def _linked(self, mask: int, terms: tuple[int, ...]) -> bool:
        # terminal i reaches terminal j through connector (i, j) and then
        # main path j, and neither holds another terminal: so the out-arcs
        # of what i reaches through non-terminals must hit every terminal
        out_m = self.out_m
        term_mask = sum([1 << (t - 1) for t in terms])
        inner = mask & ~term_mask
        for t in terms:
            hit = 0
            for v in iter_mask_vertices(_reach_mask(out_m, inner, 1 << (t - 1))):
                hit |= out_m[v]
            if term_mask & ~hit & ~(1 << (t - 1)):
                return False
        return True

    def _embed(self, mask: int, terms: tuple[int, ...]) -> tuple[IccTemplate, Labeling] | None:
        k = len(terms)
        self.terms = terms
        self.term_mask = sum([1 << (t - 1) for t in terms])
        self.paths = [[t] for t in terms]
        self.allpairs = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j]
        return self._grow(0, mask & ~self.term_mask)

    def _finalize(self, conn: dict[tuple[int, int], list[int]]) -> tuple[IccTemplate, Labeling] | None:
        out_m, terms, paths = self.out_m, self.terms, self.paths
        k = len(terms)
        type_ii: dict[tuple[int, int], int] = {}
        attach: dict[tuple[int, int], int] = {}
        for (i, j) in self.allpairs:
            vs = conn.get((i, j))
            src = vs[-1] if vs else terms[i - 1]
            opts = [a for a, v in enumerate(paths[j - 1], start=1) if out_m[src] >> (v - 1) & 1]
            if not opts:
                return None
            attach[(i, j)] = opts[0]
            if vs:
                type_ii[(i, j)] = len(vs)
        for j in range(1, k + 1):
            # some connection must land on path j's first vertex
            if not any(attach[(i, j)] == 1 for i in range(1, k + 1) if i != j):
                return None
        T = IccTemplate(k, tuple([len(p) for p in paths]), type_ii, attach)
        lab: Labeling = {}
        for i, p in enumerate(paths, start=1):
            for a, v in enumerate(p, start=1):
                lab[(i, a)] = v
        for (i, j), vs in conn.items():
            for a, v in enumerate(vs, start=1):
                lab[(i, j, a)] = v
        return (T, lab)

    def _forward(self, chain: list[int], left: int, targets: int):
        # extensions of chain inside left that end with an arc into targets
        out_m = self.out_m
        if out_m[chain[-1]] & targets:
            yield list(chain)
        for w in iter_mask_vertices(out_m[chain[-1]] & left):
            chain.append(w)
            yield from self._forward(chain, left & ~(1 << (w - 1)), targets)
            chain.pop()

    def _pivot_paths(self, chain: list[int], left: int, starts: int, targets: int):
        # directed paths inside left plus chain, through chain (first the
        # pivot alone), starting at a start vertex and ending with an arc
        # into the target set
        if starts >> (chain[0] - 1) & 1:
            yield from self._forward(list(chain), left, targets)
        for u in iter_mask_vertices(self.in_m[chain[0]] & left):
            chain.insert(0, u)
            yield from self._pivot_paths(chain, left & ~(1 << (u - 1)), starts, targets)
            chain.pop(0)

    def _place(self, conn, pool: int, path_sets: list[int], enter: list[int]):
        if pool == 0:
            return self._finalize(conn)
        out_m, in_m, terms = self.out_m, self.in_m, self.terms
        pivot_bit = pool & -pool
        pivot = pivot_bit.bit_length()
        rest = pool & ~pivot_bit
        # cheap necessary conditions: the pivot's connector path must
        # start at some terminal's out-neighbor and end next to its pair's
        # target path, all within the remaining pool
        back = _reach_mask(in_m, pool, pivot_bit)
        fwd = _reach_mask(out_m, pool, pivot_bit)
        for (i, j) in self.allpairs:
            if (i, j) in conn:
                continue
            if not back & out_m[terms[i - 1]] or not fwd & enter[j - 1]:
                continue
            for vs in self._pivot_paths([pivot], rest, out_m[terms[i - 1]], path_sets[j - 1]):
                left = pool
                for v in vs:
                    left &= ~(1 << (v - 1))
                conn[(i, j)] = vs
                got = self._place(conn, left, path_sets, enter)
                if got is not None:
                    return got
                del conn[(i, j)]
        return None

    def _connectors(self, pool: int):
        out_m, in_m, terms, paths, term_mask = self.out_m, self.in_m, self.terms, self.paths, self.term_mask
        k = len(terms)
        path_sets = []
        allp = 0
        for p in paths:
            m = 0
            for v in p:
                m |= 1 << (v - 1)
            path_sets.append(m)
            allp |= m
        # every leftover vertex must be enterable (from the pool or a
        # terminal) and exitable (into the pool or onto a main path)
        m = pool
        while m:
            b = m & -m
            v = b.bit_length()
            if not in_m[v] & (pool | term_mask) or not out_m[v] & (pool | allp):
                return None
            m ^= b
        # a pair whose terminal has no arc onto the other path needs a
        # nonempty connector path of its own, drawn from the pool
        bare = sum(1 for (i, j) in self.allpairs if not out_m[terms[i - 1]] & path_sets[j - 1])
        if bare > pool.bit_count():
            return None
        enter = []
        for ps in path_sets:
            e = 0
            s = pool
            while s:
                b = s & -s
                if out_m[b.bit_length()] & ps:
                    e |= b
                s ^= b
            enter.append(e)
        # every ordered pair needs a possible attach source, and every
        # path's first vertex needs one landing on it exactly
        for jdx in range(k):
            if not enter[jdx]:
                for idx in range(k):
                    if idx != jdx and not out_m[terms[idx]] & path_sets[jdx]:
                        return None
            tj = 1 << (terms[jdx] - 1)
            if not in_m[paths[jdx][0]] & ((term_mask ^ tj) | pool):
                return None
        return self._place({}, pool, path_sets, enter)

    def _grow(self, i: int, pool: int):
        # grow main path i backward from its first vertex, "stop" first
        paths = self.paths
        if i == len(paths):
            return self._connectors(pool)
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


def _mais_table(out_m: tuple[int, ...], in_m: tuple[int, ...], n: int) -> list[int]:
    """mais(S) for every vertex subset S of an n-vertex digraph, by bitmask.

    A source or a sink of the induced subgraph lies on no cycle, so it
    joins every acyclic subset: mais(S) = mais(S - v) + 1.  Without one,
    some vertex is left out: mais(S) = max over v of mais(S - v).  Since
    mais(S - v) <= mais(S) <= mais(S - v) + 1 for every v, the scan stops
    at the first mais(S - v) that differs from mais(S - low): the larger
    of the two is mais(S).
    """
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        m = mask
        best = table[mask ^ (mask & -mask)]
        while m:
            b = m & -m
            m ^= b
            got = table[mask ^ b]
            if got != best:
                if got > best:
                    best = got
                break
            v = b.bit_length()
            if not in_m[v] & mask or not out_m[v] & mask:
                best += 1
                break
        table[mask] = best
    return table


def _exact_cover(D: Digraph) -> list[Piece]:
    if is_acyclic_mask(D.in_masks, full_mask(D.n)):
        return []
    mais_of = _mais_table(D.out_masks, D.in_masks, D.n)
    search = _EmbeddingSearch(D.out_masks, D.in_masks)
    emb: dict[int, Embedding] = {}

    def new_piece(mask: int, b: int) -> int:
        # a piece on S saves at most |S| - mais(S)
        bound = mask.bit_count() - mais_of[mask]
        if bound > b:
            got = search.max_piece(mask, b + 2, bound + 1)
            if got is not None:
                emb[mask] = got
                return got[0] - 1
        return 0

    return [emb[p][1:] for p in pack_pieces(D.n, {}, new_piece)]


def _greedy_cover(D: Digraph, merge_bound: int) -> list[Piece]:
    out_m, in_m = D.out_masks, D.in_masks
    cycles = pack_cycles(out_m, full_mask(D.n))
    found: list[Embedding] = [(2, *cycle_to_template(Cycle(c), (len(c) + 1) // 2)) for c in cycles]
    # each piece's vertex mask, and the union of its vertices' out-masks
    verts = [sum(1 << (v - 1) for v in c) for c in cycles]
    outs = [reduce(or_, [out_m[v] for v in c]) for c in cycles]
    search = _EmbeddingSearch(out_m, in_m)
    merged = True
    while merged:
        merged = False
        for a in range(len(found)):
            for b in range(a + 1, len(found)):
                union = verts[a] | verts[b]
                if union.bit_count() > merge_bound or not (outs[a] & verts[b] and outs[b] & verts[a]):
                    continue
                # a merge must save at least what the two pieces save apart
                got = search.max_piece(union, found[a][0] + found[b][0])
                if got is not None:
                    found[a], verts[a], outs[a] = got, union, outs[a] | outs[b]
                    del found[b], verts[b], outs[b]
                    merged = True
                    break
            if merged:
                break
    return [(T, lab) for _, T, lab in found]


def find_icc_subgraphs(D: Digraph, mode: str = "exact", exact_bound: int = DEFAULT_EXACT_BOUND) -> CoverPlan:
    """Best disjoint family of template embeddings found under the given mode.

    Exact mode maximizes total savings and refuses digraphs larger than
    min(exact_bound, EXACT_LIMIT) vertices; greedy mode handles any size
    and reuses the bound as its piece-merge size cap.  Both are deterministic.
    """
    pieces = _exact_cover(D) if exact_mode(D, mode, exact_bound, "subgraph search") else _greedy_cover(D, exact_bound)
    return _unchecked_plan(D, pieces)
