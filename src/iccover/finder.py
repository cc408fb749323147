"""Search for vertex-disjoint interlinked-cycle subgraphs of a host digraph.

A spanning k-path template on a vertex subset saves k - 1 broadcast
symbols, so exact mode picks a disjoint family of embeddings maximizing
total savings by dynamic programming over bitmasks, run on each strongly
connected component C of two or more vertices alone, over its 2^|C|
masks: a template's digraph is strongly connected, so no piece crosses
two.  No index code on a subset S is shorter than mais(S), the order of
its largest acyclic induced subgraph, so a piece on S saves at most
|S| - mais(S), its cap.  Subsets are visited in ascending mask order,
which settles the best partition b of S into smaller pieces first; S is
searched for an embedding only when its cap exceeds b, and then only for
k in b + 2 .. cap + 1, and only on terminal sets in which every terminal
reaches every other; a main-path shape is dropped as soon as more
(terminal, finished path) pairs lack an arc than vertices are left for
connector paths.  The DP keeps a worth per piece and embeds only the
chosen masks, once, after it.  Greedy mode packs shortest cycles first
(each a k = 2 piece) and then tries to merge pieces pairwise into
higher-k templates, skipping pairs with arcs one way only between them:
two disjoint such pieces have a union that is not strongly connected,
where max_piece finds nothing, and unions already refused at the same
kmin.  Cliques are templates too, so greedy mode returns the greedy
clique partition's groups of two or more when they save strictly more.
The last digraph's exact plan is kept by value, with mais(D) = n minus
the sum of each C's last cap, |C| - mais(C), which compare reports.

Host arcs beyond the template's own are allowed inside a piece; extra
side information never hurts decodability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_

from .digraph import (
    EXACT_LIMIT,
    Cycle,
    Digraph,
    _cyclic_parts,
    _greedy_cliques,
    _greedy_cycles,
    _reach_mask,
    iter_mask_vertices,
    shortest_cycle_mask,  # unused; iccbench/tracer.py wraps this binding
    strongly_connected_mask,
)
from .errors import EmbeddingError, SizeRefusal
from .template import FrozenLabeling, IccTemplate, Labeling, _coord_tuple, check_embedding, clique_to_template, cycle_to_template

DEFAULT_EXACT_BOUND = 12

Piece = tuple[IccTemplate, Labeling]


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
    its template's coordinates, or shares a vertex with another.  The
    plan holds read-only copies of the caller's labelings.
    """
    pieces = list(pieces)  # read an iterator once
    covered: set[int] = set()
    for idx, (T, lab) in enumerate(pieces, start=1):
        if not check_embedding(D, T, lab):
            raise EmbeddingError(f"piece {idx} does not embed in the digraph")
        if len(lab) != len(_coord_tuple(T)):  # every coordinate is labeled, so a key is extra
            raise EmbeddingError(f"piece {idx} labels keys beyond its template's coordinates")
        vs = set(lab.values())
        if vs & covered:
            raise EmbeddingError(f"piece {idx} overlaps an earlier piece at {sorted(vs & covered)}")
        covered |= vs
    return _unchecked_plan(D, pieces)


def _unchecked_plan(D: Digraph, pieces: list[Piece]) -> CoverPlan:
    """make_plan without its checks, for planners, which build pieces from
    D's own arcs: the tests check their plans (the planner-piece property
    and the plan goldens), and caller plans meet make_plan.  Its plans
    hold read-only labelings (the planners build them so) in tuples."""
    pieces = [(T, lab if type(lab) is FrozenLabeling else FrozenLabeling(lab)) for T, lab in pieces]
    covered = {v for _, lab in pieces for v in lab.values()}
    ordered = sorted(pieces, key=lambda piece: min(piece[1].values()))
    # built from a list, not a generator: tuple() of a generator takes a
    # 10-slot tuple and resizes it, so each call would move one block into
    # the free list of another size, and CPython empties those lists (up
    # to 2,000 tuples per size) only in a full gc pass
    uncovered = tuple([v for v in range(1, D.n + 1) if v not in covered])
    plan = CoverPlan(tuple(ordered), uncovered)
    plan.__dict__["_checked"] = None  # it cannot change, so assemble_code checks it once per digraph
    return plan


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


def pack_pieces(caps: list[int], new_piece) -> list[int]:
    """Most valuable disjoint pieces, by a DP over the 2^n = len(caps)
    vertex masks in ascending order; returns the chosen pieces' masks.

    best[mask] either skips mask's lowest vertex ("skip low") or takes the
    first piece p through that vertex, in ascending order, that strictly
    beats every earlier choice.  Proper submasks come first, so b, the best
    split of mask into smaller pieces, is settled when new_piece(mask, b)
    may add a piece on exactly mask worth more than b (it returns that
    worth, or 0).  A piece worth no more than b never wins the strict >,
    here or at a larger mask, where that split scores as much, earlier; so
    the DP asks only when caps[mask], the most a piece on mask saves, exceeds b.
    """
    full = len(caps) - 1
    by_low: dict[int, list[tuple[int, int]]] = {}  # (mask, worth) of each piece, by lowest vertex
    best = [0] * (full + 1)
    take = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        b, t = best[mask ^ low], 0
        for p, w in by_low.get(low, ()):
            if p & ~mask:
                continue
            c = w + best[mask ^ p]
            if c > b:
                b, t = c, p
        if caps[mask] > b:
            c = new_piece(mask, b)
            if c:
                by_low.setdefault(low, []).append((mask, c))
                b, t = c, mask
        best[mask], take[mask] = b, t
    return _taken(take, full)


def _taken(take: list[int], mask: int) -> list[int]:
    """The pieces a DP's take table holds for mask, in walk order; a 0 entry skips mask's lowest vertex."""
    chosen = []
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
    are cut only where they must fail, by five tests: the degree bound (k
    terminals each need k - 1 out-arcs inside the subset), the SCC test
    (the subset must be strongly connected), the linked-terminal test (each
    terminal reaches every other through non-terminals), the bare-pair
    count (each ordered pair whose terminal has no arc onto the other path
    needs a leftover vertex of its own; checked as each main path stops,
    before the later paths grow), and the pivot reach test (a pair takes
    the pivot only if, within the leftover vertices, the pivot is reached
    from the terminal's out-neighbors and reaches an arc onto the target
    path).  _finalize then checks every pair's attachment.

    The attempt in progress (terminals, main paths, ordered pairs) lives on
    the object, so the recursive steps are methods, not nested closures,
    which would reference themselves and leave every search as cyclic
    garbage.
    """

    def __init__(self, out_m: tuple[int, ...], in_m: tuple[int, ...]):
        self.out_m = out_m
        self.in_m = in_m
        self.terms: tuple[int, ...] = ()
        self.paths: list[list[int]] = []
        self.allpairs: list[tuple[int, int]] = []

    def max_piece(self, mask: int, kmin: int = 2, kmax: int | None = None) -> Piece | None:
        """Largest-k spanning embedding on the subset with kmin <= k <= kmax."""
        out_m = self.out_m
        verts = list(iter_mask_vertices(mask))
        # a terminal needs k-1 outgoing arcs inside the subset; degs[i] - i
        # falls strictly as i grows, so the k that allow it form a prefix
        deg = {v: (out_m[v] & mask).bit_count() for v in verts}
        degs = sorted(deg.values(), reverse=True)
        top = sum(1 for i, d in enumerate(degs) if d >= i)
        if kmax is not None:
            top = min(top, kmax)
        if top < kmin or not strongly_connected_mask(out_m, self.in_m, mask):
            return None
        for k in range(top, kmin - 1, -1):
            cands = [v for v in verts if deg[v] >= k - 1]
            for terms in combinations(cands, k):
                if self._linked(mask, terms):
                    found = self._embed(mask, terms)
                    if found is not None:
                        return found
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

    def _embed(self, mask: int, terms: tuple[int, ...]) -> Piece | None:
        k = len(terms)
        self.terms = terms
        self.paths = [[t] for t in terms]
        self.allpairs = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j]
        return self._grow(0, mask & ~sum([1 << (t - 1) for t in terms]))

    def _finalize(self, conn: dict[tuple[int, int], list[int]]) -> Piece | None:
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
        lab = [((i, a), v) for i, p in enumerate(paths, start=1) for a, v in enumerate(p, start=1)]
        lab += [((i, j, a), v) for (i, j), vs in conn.items() for a, v in enumerate(vs, start=1)]
        return (T, FrozenLabeling(lab))

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

    def _place(self, conn, pool: int, path_sets: list[int]):
        if pool == 0:
            return self._finalize(conn)
        out_m, terms = self.out_m, self.terms
        pivot_bit = pool & -pool
        pivot = pivot_bit.bit_length()
        rest = pool & ~pivot_bit
        # cheap necessary conditions: the pivot's connector path must
        # start at some terminal's out-neighbor and end next to its pair's
        # target path, all within the remaining pool
        back = _reach_mask(self.in_m, pool, pivot_bit)
        exits = 0
        for v in iter_mask_vertices(_reach_mask(out_m, pool, pivot_bit)):
            exits |= out_m[v]
        for (i, j) in self.allpairs:
            if (i, j) in conn:
                continue
            if not back & out_m[terms[i - 1]] or not exits & path_sets[j - 1]:
                continue
            for vs in self._pivot_paths([pivot], rest, out_m[terms[i - 1]], path_sets[j - 1]):
                conn[(i, j)] = vs
                got = self._place(conn, pool & ~sum([1 << (v - 1) for v in vs]), path_sets)
                if got is not None:
                    return got
                del conn[(i, j)]
        return None

    def _grow(self, i: int, pool: int, bare: int = 0, sets: tuple[int, ...] = ()):
        # grow main path i backward from its first vertex, "stop" first; each
        # bare pair (a, j), terminal a with no arc onto finished path j (its
        # mask in sets), needs a vertex of its own from the shrinking pool
        if bare > pool.bit_count():
            return None
        paths = self.paths
        if i == len(paths):
            return self._place({}, pool, sets)
        out_m, done = self.out_m, sum([1 << (v - 1) for v in paths[i]])
        missed = sum([not out_m[t] & done for a, t in enumerate(self.terms) if a != i])
        got = self._grow(i + 1, pool, bare + missed, (*sets, done))
        if got is not None:
            return got
        for u in iter_mask_vertices(self.in_m[paths[i][0]] & pool):
            paths[i].insert(0, u)
            got = self._grow(i, pool & ~(1 << (u - 1)), bare, sets)
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


@lru_cache(maxsize=1)
def _exact_cover(D: Digraph) -> tuple[tuple[Piece, ...], int]:
    """(the pieces, by part, mais(D)): the DP keeps a worth per piece and embeds only the chosen masks, once, after it."""
    pieces, saved = [], 0
    for P, vs in _cyclic_parts(D):
        caps = [mask.bit_count() - m for mask, m in enumerate(_mais_table(P.out_masks, P.in_masks, P.n))]
        saved += caps[-1]  # mais is additive over the parts
        search = _EmbeddingSearch(P.out_masks, P.in_masks)

        def new_piece(mask: int, b: int) -> int:
            got = search.max_piece(mask, b + 2, caps[mask] + 1)
            return got[0].k - 1 if got else 0

        for p in pack_pieces(caps, new_piece):  # labels mapped back to D's ids
            T, lab = search.max_piece(p, kmax=caps[p] + 1)  # the hook's find: its kmin cut only smaller k
            pieces.append((T, FrozenLabeling({c: vs[v - 1] for c, v in lab.items()})))
    return tuple(pieces), D.n - saved


def _greedy_cover(D: Digraph, merge_bound: int) -> list[Piece]:
    out_m, in_m = D.out_masks, D.in_masks
    cycles = _greedy_cycles(D)
    found = [cycle_to_template(Cycle(c), (len(c) + 1) // 2) for c in cycles]
    # each piece's vertex mask, and the union of its vertices' out-masks
    verts = [sum(1 << (v - 1) for v in c) for c in cycles]
    outs = [reduce(or_, [out_m[v] for v in c]) for c in cycles]
    search = _EmbeddingSearch(out_m, in_m)
    failed: set[tuple[int, int]] = set()  # (union, kmin) that max_piece refused
    while True:  # after each merge, scan the pairs again from the first
        for a, b in combinations(range(len(found)), 2):
            union = verts[a] | verts[b]
            if union.bit_count() > merge_bound or not (outs[a] & verts[b] and outs[b] & verts[a]):
                continue
            # a merge must save at least what the two pieces save apart
            tried = (union, found[a][0].k + found[b][0].k)
            got = None if tried in failed else search.max_piece(*tried)
            if got is not None:
                found[a], verts[a], outs[a] = got, union, outs[a] | outs[b]
                del found[b], verts[b], outs[b]
                break
            failed.add(tried)
        else:
            groups = [g for g in _greedy_cliques(D) if len(g) > 1]
            if sum(map(len, groups)) - len(groups) > sum(T.k - 1 for T, _ in found):
                return [clique_to_template(D, g) for g in groups]
            return found


def find_icc_subgraphs(D: Digraph, mode: str = "exact", exact_bound: int = DEFAULT_EXACT_BOUND) -> CoverPlan:
    """Best disjoint family of template embeddings found under the given mode.

    Exact mode maximizes total savings and refuses digraphs larger than
    min(exact_bound, EXACT_LIMIT) vertices; greedy mode handles any size
    and reuses the bound as its piece-merge size cap.  Both are deterministic.
    """
    pieces = _exact_cover(D)[0] if exact_mode(D, mode, exact_bound, "subgraph search") else _greedy_cover(D, exact_bound)
    return _unchecked_plan(D, pieces)
