"""Shared fixtures: the two reference digraphs with their hand-checked
templates, plus a deterministic corpus of random templates, and the
references that planners and oracles are judged against.
"""

import random
from pathlib import Path

import pytest

from iccover import Cycle, IccTemplate, new_digraph, random_template
from iccover.codec import new_packet_vector, packet_bytes
from iccover.digraph import _reach_mask, full_mask, is_acyclic_mask
from iccover.finder import _EmbeddingSearch, _mais_table, pack_pieces
from iccover.template import _arc_index

DATA = Path(__file__).parent / "data"

# per-k (max_path_len, density) pairs tuned so n stays small without
# collapsing every draw to the same shape
CORPUS_PARAMS = {1: (8, 0.0), 2: (4, 0.35), 3: (3, 0.2), 4: (2, 0.1), 5: (2, 0.05)}
CORPUS_SIZE = 100
CORPUS_MAX_N = 12


def build_corpus(size=CORPUS_SIZE):
    templates = []
    seed = 0
    while len(templates) < size:
        k = (seed % 5) + 1
        T = random_template(k, *CORPUS_PARAMS[k], seed=seed)
        seed += 1
        if T.n <= CORPUS_MAX_N:
            templates.append(T)
    return templates


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def d1():
    return new_digraph(6, [(4, 1), (5, 2), (6, 3), (1, 5), (1, 6), (2, 4), (2, 6), (3, 4), (3, 5)])


@pytest.fixture(scope="session")
def d1_template():
    T = IccTemplate(
        3,
        (2, 2, 2),
        {},
        {(1, 2): 1, (1, 3): 1, (2, 1): 1, (2, 3): 1, (3, 1): 1, (3, 2): 1},
    )
    labeling = {(1, 1): 4, (1, 2): 1, (2, 1): 5, (2, 2): 2, (3, 1): 6, (3, 2): 3}
    return T, labeling


@pytest.fixture(scope="session")
def d2():
    return new_digraph(5, [(4, 2), (5, 3), (1, 4), (1, 5), (2, 1), (2, 5), (3, 1), (3, 4)])


@pytest.fixture(scope="session")
def d2_template():
    T = IccTemplate(
        3,
        (1, 2, 2),
        {},
        {(1, 2): 1, (1, 3): 1, (2, 1): 1, (2, 3): 1, (3, 1): 1, (3, 2): 1},
    )
    labeling = {(1, 1): 1, (2, 1): 4, (2, 2): 2, (3, 1): 5, (3, 2): 3}
    return T, labeling


def template_arcs(T):
    """Arcs of the built digraph in coordinate form (T must be sound)."""
    coords = T.coords()
    return [(coords[a], coords[b]) for a, b in _arc_index(T)]


def enumerate_cycles(D):
    """Every elementary cycle of D, rotated to start at its smallest vertex
    and sorted by (length, vertex tuple): the reference Lemma 2 checks and
    cycle-structure tests are judged against.

    Paths grow depth-first from each cycle's smallest vertex s through
    higher vertices that can reach s above it (one backward search per
    start); each arc back to s closes a cycle, so every cycle is found once.
    """
    out_m, in_m = D.out_masks, D.in_masks
    found = []
    for s in range(1, D.n + 1):
        sbit = 1 << (s - 1)
        live = _reach_mask(in_m, full_mask(D.n) & -sbit, sbit) ^ sbit
        stack = [(s, sbit, (s,))]  # (last vertex, path mask, path)
        while stack:
            last, pmask, path = stack.pop()
            if out_m[last] & sbit:
                found.append(Cycle(path))
            grow = out_m[last] & live & ~pmask
            while grow:
                b = grow & -grow
                grow ^= b
                w = b.bit_length()
                stack.append((w, pmask | b, path + (w,)))
    return sorted(found, key=lambda c: (len(c.vertices), c.vertices))


def block_digraph(rng, sizes, p_in, p_cross):
    """Random blocks of the given sizes, arcs inside each with probability
    p_in and from each block to every later one with p_cross (never back),
    vertex labels shuffled: a digraph whose strongly connected components
    lie inside the blocks."""
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    blocks = [range(a + 1, b + 1) for a, b in zip(starts, starts[1:])]
    arcs = [(u, v) for b in blocks for u in b for v in b if u != v and rng.random() < p_in]
    arcs += [(u, v) for i, b in enumerate(blocks) for u in b for v in range(b.stop, starts[-1] + 1) if rng.random() < p_cross]
    label = list(range(1, starts[-1] + 1))
    rng.shuffle(label)
    return new_digraph(starts[-1], [(label[u - 1], label[v - 1]) for u, v in arcs])


def whole_mask_exact_cover(D):
    """The exact ICC planner as one packing DP over all 2^n vertex masks,
    with one MAIS table of 2^n entries: (pieces in walk order, mais(D)).
    The planner runs the same DP on each strongly connected component."""
    if is_acyclic_mask(D.in_masks, full_mask(D.n)):
        return [], D.n
    mais_of = _mais_table(D.out_masks, D.in_masks, D.n)
    caps = [mask.bit_count() - m for mask, m in enumerate(mais_of)]
    search = _EmbeddingSearch(D.out_masks, D.in_masks)
    emb = {}

    def new_piece(mask, b):
        got = search.max_piece(mask, b + 2, caps[mask] + 1)
        if got is not None:
            emb[mask] = got
            return got[0].k - 1
        return 0

    return [emb[p] for p in pack_pieces(caps, new_piece)], mais_of[-1]


def ungated_pack_pieces(caps, new_piece):
    """pack_pieces without its cap gate: the same DP, asking new_piece on
    every mask whatever its cap, the reference the gated DP is held to."""
    full = len(caps) - 1
    by_low = {}
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
        c = new_piece(mask, b)
        if c:
            by_low.setdefault(low, []).append((mask, c))
            b, t = c, mask
        best[mask], take[mask] = b, t
    chosen, mask = [], full
    while mask:
        p = take[mask]
        if p:
            chosen.append(p)
        mask ^= p or mask & -mask
    return chosen


def lemma2_pins(T, lab):
    """Vertex -> the terminal every cycle through it must contain: a main-path
    vertex pins its own path's terminal, a connector vertex the terminal of
    the path its pair attaches to."""
    return {v: lab[T.terminal(c[0] if len(c) == 2 else c[1])] for c, v in lab.items()}


def lemma2_by_enumeration(D, pins):
    """True iff every listed cycle of D holds the pinned terminal of each of its vertices."""
    return all(pins[v] in c.vertices for c in enumerate_cycles(D) for v in c.vertices)


def rand_packets(t, n, rng=None):
    """n packets of t random bits each, padding bits held at zero."""
    rng = rng or random.Random(0)
    width = packet_bytes(t)
    pad = 8 * width - t
    out = []
    for _ in range(n):
        raw = bytearray(rng.randbytes(width))
        if pad:
            raw[-1] &= 0xFF >> pad
        out.append(bytes(raw))
    return new_packet_vector(t, out)
