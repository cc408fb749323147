"""Independent certification: GF(2) decodability, exact acyclic bounds,
and structural cycle checks.

Everything here re-derives properties from first principles so the codec
and the planners can be cross-checked rather than trusted: decodability
by rank over GF(2) instead of the structural chains, the broadcast lower
bound by brute force over induced subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import IndexCode, code_length
from .digraph import (
    DEFAULT_CYCLE_CAP,
    Digraph,
    enumerate_cycles,
    full_mask,
    is_acyclic_mask,
    iter_mask_vertices,
    shortest_cycle_mask,
)
from .errors import InvalidCode, SizeRefusal
from .template import IccTemplate, build_digraph

DEFAULT_MAIS_BOUND = 20
EXHAUSTIVE_MAIS_BOUND = 12


@dataclass(frozen=True)
class Gf2Matrix:
    """Support vectors as int bitsets; bit i-1 stands for message id i."""

    rows: tuple[int, ...]
    ncols: int

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        for row in self.rows:
            if row < 0 or row >> self.ncols:
                raise InvalidCode(f"matrix row {row:#x} does not fit in {self.ncols} columns")


def gf2_rank(rows: list[int], ncols: int) -> int:
    """Rank over GF(2) by Gaussian elimination on int bitsets."""
    work = [r for r in rows if r]
    rank = 0
    for col in range(ncols):
        bit = 1 << col
        pivot = next((i for i in range(rank, len(work)) if work[i] & bit), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i] & bit:
                work[i] ^= work[rank]
        rank += 1
        if rank == len(work):
            break
    return rank


def _in_span(rows, vec: int) -> bool:
    """True iff vec lies in the GF(2) span of rows (non-negative int bitsets).

    One XOR-basis pass keyed by top bit, then vec is reduced against it.
    """
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length()
            b = basis.get(top)
            if b is None:
                basis[top] = r
                break
            r ^= b
    while vec:
        b = basis.get(vec.bit_length())
        if b is None:
            return False
        vec ^= b
    return True


def gf2_in_span(rows: list[int], vec: int, ncols: int) -> bool:
    """True iff vec lies in the GF(2) row span of rows, over columns 0..ncols-1."""
    cols = full_mask(ncols)
    return _in_span((r & cols for r in rows), vec & cols)


def code_matrix(code: IndexCode, n: int) -> Gf2Matrix:
    """Support rows of a code over messages 1..n, in symbol order."""
    rows = []
    for s in code.symbols:
        row = 0
        for m in s.support:
            if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= n:
                raise InvalidCode(f"coded symbol references message {m!r} outside 1..{n}")
            row |= 1 << (m - 1)
        rows.append(row)
    return Gf2Matrix(tuple(rows), n)


def gf2_decodable(M: Gf2Matrix, side: set[int], target: int) -> bool:
    """Can a receiver holding the side messages recover the target from M?

    True iff the target's unit vector e_t lies in the span of M's rows
    joined with the side messages' unit vectors e_j, j in S.  Since t is
    not in S, that holds iff e_t lies in the span of the rows with the
    columns of S cleared: project onto the coordinates outside S, which
    sends every e_j to 0 and fixes e_t; conversely, if e_t equals a sum of
    projected rows, the same sum of full rows differs from e_t only on S,
    and side unit vectors cancel that difference.  So one elimination over
    the projected rows decides it.
    """
    if any(not isinstance(j, int) or isinstance(j, bool) or not 1 <= j <= M.ncols for j in side):
        raise InvalidCode(f"side message ids must lie in 1..{M.ncols}")
    if not isinstance(target, int) or isinstance(target, bool) or not 1 <= target <= M.ncols:
        raise InvalidCode(f"target message must lie in 1..{M.ncols}, got {target!r}")
    if target in side:
        raise ValueError(f"target message {target} is already side information")
    return _decodable(M.rows, sum(1 << (j - 1) for j in set(side)), target)


def _decodable(rows: tuple[int, ...], side_mask: int, target: int) -> bool:
    keep = ~side_mask
    return _in_span((r & keep for r in rows), 1 << (target - 1))


@dataclass(frozen=True)
class VerifyResult:
    """Overall validity plus one verdict per receiver (index i-1 is receiver i)."""

    valid: bool
    verdicts: tuple[bool, ...]

    def __bool__(self) -> bool:
        return self.valid

    def failing(self) -> tuple[int, ...]:
        return tuple(i for i, ok in enumerate(self.verdicts, start=1) if not ok)


def verify_code(D: Digraph, code: IndexCode) -> VerifyResult:
    """Rank-certify that every receiver can decode its message from the code.

    Columns sharing a nonzero row are joined by union-find into blocks with
    disjoint column sets, whose spans add up as a direct sum.  Clearing a
    receiver's side columns (see gf2_decodable) only splits blocks further,
    so e_t is in the projected span iff it is in that of t's block alone.
    """
    rows = code_matrix(code, D.n).rows
    parent = list(range(D.n + 1))
    for r in rows:
        for v in iter_mask_vertices(r):
            parent[_root(parent, v)] = _root(parent, r.bit_length())
    blocks: dict[int, list[int]] = {}
    for r in filter(None, rows):
        blocks.setdefault(_root(parent, r.bit_length()), []).append(r)
    # a list first, as in finder._unchecked_plan: no free-list drift
    verdicts = tuple([_decodable(blocks.get(_root(parent, i), ()), D.out_masks[i], i) for i in range(1, D.n + 1)])
    return VerifyResult(all(verdicts), verdicts)


def _root(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def mais(D: Digraph, bound: int = DEFAULT_MAIS_BOUND) -> int:
    """Order of a largest acyclic induced subgraph, exact.

    Branch and bound on the complement problem (fewest vertices whose
    removal kills every cycle): branch over the vertices of a shortest
    cycle, the i-th branch removing its i-th vertex and keeping the ones
    before it, so that no cut is searched twice; prune with a greedy
    disjoint-cycle lower bound.  The first leaf deletes the first vertex
    of each shortest cycle in turn, so the search starts from that greedy
    cut.
    """
    if D.n > bound:
        raise SizeRefusal(f"exact acyclic-set search is limited to {bound} vertices (digraph has {D.n})")
    return D.n - _min_cycle_cut(D.out_masks, full_mask(D.n), 0, 0, D.n)


def _disjoint_cycles(out_m: tuple[int, ...], mask: int) -> tuple[int, tuple[int, ...] | None]:
    """Greedily packed disjoint shortest cycles inside mask: count and first."""
    # not digraph.pack_cycles: on small masks its queue costs more than it saves (mais 38-43 ms vs 53-73 ms, 28 n <= 14 inputs)
    count, first = 0, None
    while True:
        cyc = shortest_cycle_mask(out_m, mask)
        if cyc is None:
            return count, first
        if first is None:
            first = cyc
        count += 1
        for v in cyc:
            mask &= ~(1 << (v - 1))


def _min_cycle_cut(out_m: tuple[int, ...], mask: int, keep: int, removed: int, best: int) -> int:
    """Fewest removals (already removed ones counted) leaving mask acyclic
    without removing a vertex of keep, or best when no cut beats it."""
    lb, first = _disjoint_cycles(out_m, mask)
    if removed + lb >= best:
        return best
    if first is None:
        return removed
    # branch i removes the i-th vertex and keeps the ones before it, so
    # no two branches search the same cut
    for v in first:
        bit = 1 << (v - 1)
        if not keep & bit:
            best = _min_cycle_cut(out_m, mask & ~bit, keep, removed + 1, best)
            keep |= bit
    return best


def mais_exhaustive(D: Digraph, bound: int = EXHAUSTIVE_MAIS_BOUND) -> int:
    """Same value as mais, re-derived by scanning every vertex subset."""
    if D.n > bound:
        raise SizeRefusal(f"subset scan is limited to {bound} vertices (digraph has {D.n})")
    in_m = D.in_masks
    best = 0
    for mask in range(full_mask(D.n) + 1):
        size = mask.bit_count()
        if size > best and is_acyclic_mask(in_m, mask):
            best = size
    return best


@dataclass(frozen=True)
class OptimalityReport:
    """Certificate comparing a template's code length to the acyclic bound.

    No valid code can use fewer symbols than the bound, so equality pins
    the best achievable broadcast rate at every packet width.
    """

    n: int
    k: int
    length: int
    mais_value: int

    @property
    def optimal(self) -> bool:
        return self.length == self.mais_value

    @property
    def rate(self) -> int | None:
        """Certified best rate (any packet width, and in the limit), or None."""
        return self.length if self.optimal else None


def certify_optimality(T: IccTemplate, bound: int = DEFAULT_MAIS_BOUND) -> OptimalityReport:
    """Build the template's digraph and test its code length against mais.

    The two always agree for sound inputs; a mismatch in the report would
    point at an implementation bug, which is why the check exists.
    """
    D, _ = build_digraph(T)
    return OptimalityReport(D.n, T.k, code_length(T), mais(D, bound))


@dataclass(frozen=True)
class Lemma2Result:
    """holds: no counterexample found; conclusive: enumeration was complete."""

    holds: bool
    conclusive: bool

    def __bool__(self) -> bool:
        return self.holds and self.conclusive


def check_lemma2(T: IccTemplate, max_count: int = DEFAULT_CYCLE_CAP) -> Lemma2Result:
    """Check that every cycle through a path vertex contains the right terminal.

    Main-path vertices pin their own path's terminal; connector vertices
    pin the terminal of the path their pair attaches to.  A truncated
    cycle enumeration makes the verdict inconclusive.
    """
    D, lab = build_digraph(T)
    cycles, truncated = enumerate_cycles(D, max_count)
    coord = {v: c for c, v in lab.items()}
    terminal_id = {i: lab[(i, T.n_i(i))] for i in range(1, T.k + 1)}
    holds = True
    for cyc in cycles:
        members = set(cyc.vertices)
        for v in cyc.vertices:
            c = coord[v]
            need = terminal_id[c[0]] if len(c) == 2 else terminal_id[c[1]]
            if need not in members:
                holds = False
                break
        if not holds:
            break
    return Lemma2Result(holds, not truncated)
