"""The three benchmark workloads: inputs, timed operations and output checks.

Each workload builds its inputs from the workload seed in its constructor
(the set-up the benchmark times).  ``next_pass()`` returns the inputs of
one pass and ``op(item)`` makes the timed calls into iccover for one of
them, then checks the outputs outside the timed region.  Calls go through
module attributes (``ic.schemes.compare``, not a saved reference) so that
the tracer's wrappers, installed on those attributes, see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

PACKET_BYTES = 1500
CATALOG_SEED = 150402168

# Operations are timed in CPU seconds of the (only) thread.  iccover is
# single-threaded and CPU-bound, so on an idle machine CPU time is the
# latency a caller sees; on a shared one it leaves out the time other
# tenants take, which moved wall-clock timings of a fixed task by up to
# 50 % on a shared 2-core machine while its CPU time moved by 5 %.  The
# thread clock, because Linux samples the process clock only at
# scheduler ticks (4 ms) while the ITIMER_PROF budget timer is armed.
clock = time.thread_time


class OverBudget(BaseException):
    """Raised by SIGPROF when one operation exceeds its CPU-time budget.

    A BaseException, so that no ``except Exception`` in the package can
    turn an overrun into an ordinary error.
    """


def _overrun(signum, frame):
    raise OverBudget()


@contextlib.contextmanager
def budget(seconds: float):
    signal.signal(signal.SIGPROF, _overrun)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


@dataclass
class OpResult:
    """What one timed operation did; ``phases`` maps phase name to seconds."""

    messages: int  # receivers served (n, summed over a stream)
    symbols: int = 0  # broadcast symbols planned (n when over budget: sent uncoded)
    phases: dict = field(default_factory=dict)
    over_budget: bool = False
    error: str | None = None
    payload_bytes: int = 0
    observed: dict = field(default_factory=dict)  # output digests, for golden recording

    @property
    def latency(self) -> float:
        return sum(self.phases.values())


@dataclass
class Context:
    """What every workload constructor needs besides the seed."""

    root: Path  # checkout root (holds src/ and tests/data/)
    workdir: Path  # scratch space for input files
    golden: dict  # workload name -> instance key -> output digests
    capture: "Capture"
    toy: bool = False


class Capture:
    """Keeps the plan the last ``icc_cover`` call returned.

    ``compare`` plans internally and returns only lengths; the output
    checks need the ICC plan itself, without planning a second time.
    """

    def __init__(self, schemes):
        self.plan = None
        inner = schemes.icc_cover

        def icc_cover(*args, **kwargs):
            self.plan = inner(*args, **kwargs)
            return self.plan

        schemes.icc_cover = icc_cover


def random_digraph(ic, rng: random.Random, n: int, p: float):
    arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and rng.random() < p]
    return ic.digraph.new_digraph(n, arcs)


def relabel(ic, D, rng: random.Random):
    perm = list(range(1, D.n + 1))
    rng.shuffle(perm)
    return ic.digraph.new_digraph(D.n, [(perm[u - 1], perm[v - 1]) for u, v in D.arcs])


def check_report(ic, D, report: dict, plan) -> str | None:
    """Oracle checks on a compare report against the ICC plan behind it."""
    if report["n"] != D.n:
        return f"report n={report['n']} for a digraph with {D.n} vertices"
    l_icc = report["l_icc"]
    if ic.schemes.plan_length(D, plan) != l_icc:
        return f"l_icc={l_icc} but the plan has length {ic.schemes.plan_length(D, plan)}"
    if l_icc > min(report["l_cyc"], report["l_cc"]):
        return f"l_icc={l_icc} exceeds min(l_cyc, l_cc)"
    lower = report["mais"]
    if lower is not None and (l_icc < lower or report["optimal"] != (l_icc == lower)):
        return f"l_icc={l_icc} inconsistent with mais={lower} (optimal={report['optimal']})"
    return None


def check_verdict(verdict) -> str | None:
    if verdict.valid:
        return None
    return f"ICC code fails rank verification at receivers {verdict.failing()[:5]}"


def check_golden(golden: dict, key: str, observed: dict) -> str | None:
    want = golden.get(key)
    if want is None:
        return None
    for what, got in observed.items():
        if what in want and want[what] != got:
            return f"{what} differs from the golden recorded for instance {key}"
    return None


def corrupt_report(text: str) -> str:
    return text.replace('"l_icc":', '"l_icc":1', 1)


class ExactSmall:
    """In-process ``iccover compare`` on small digraphs, where exact search runs.

    d1, d2 and gap_family(2..7) are fixed.  The random digraphs come from a
    fixed catalog (CATALOG_SEED) whose vertices the workload seed relabels,
    afresh for every pass: exact compare time spans four decades across
    fresh random draws, so fresh draws per seed would make the run-to-run
    spread exceed any useful bound.  Exact-mode reports do not depend on
    vertex labels, so goldens are keyed by the catalog digraph and hold
    for every seed.
    """

    name = "exact-small"
    budget_s = 0.5
    catalog_size = 20

    def __init__(self, ic, seed: int, ctx: Context):
        self.ic = ic
        self.golden = ctx.golden.get(self.name, {})
        self.capture = ctx.capture
        self.workdir = ctx.workdir
        tests = ctx.root / "tests" / "data"
        self.fixed = [ic.digraph.parse_digraph((tests / f"{d}.json").read_text()) for d in ("d1", "d2")]
        self.fixed += [ic.schemes.gap_family(k) for k in range(2, 5 if ctx.toy else 8)]
        cat_rng = random.Random(CATALOG_SEED)
        size = 4 if ctx.toy else self.catalog_size
        self.catalog = []
        for j in range(size):
            n = 9 + j % 4
            p = 0.15 + 0.25 * (j + cat_rng.random()) / size
            self.catalog.append(random_digraph(ic, cat_rng, n, p))
        self.rng = random.Random(seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._items = self._relabeled()
        self._compare(self._items[0][2])  # warm-up: argparse and the CLI path

    def _relabeled(self) -> list:
        ic = self.ic
        items = []
        for idx, D in enumerate(self.fixed + self.catalog):
            key = digest(ic.digraph.serialize_digraph(D))
            if idx >= len(self.fixed):
                D = relabel(ic, D, self.rng)
            path = self.workdir / f"{idx:02d}.json"
            path.write_text(ic.digraph.serialize_digraph(D))
            items.append((key, D, str(path)))
        return items

    def check_setup(self) -> list[str]:
        return []

    def next_pass(self) -> list:
        items, self._items = self._items, None
        return items or self._relabeled()

    def _compare(self, path: str) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.ic.cli.main(["compare", "--digraph", path])
        return status, out.getvalue() or err.getvalue()

    def op(self, item, corrupt: bool = False) -> OpResult:
        key, D, path = item
        res = OpResult(messages=D.n, symbols=D.n)
        self.capture.plan = None
        t0 = clock()
        try:
            with budget(self.budget_s):
                status, text = self._compare(path)
        except OverBudget:
            res.over_budget = True
        res.phases["compare"] = clock() - t0
        if res.over_budget:
            return res
        if corrupt:
            text = corrupt_report(text)
        if status != 0:
            res.error = f"compare exited {status}: {text.strip()}"
            return res
        report = json.loads(text)
        res.symbols = report["l_icc"]
        res.observed = {"report": digest(text)}
        plan = self.capture.plan
        res.error = (
            check_golden(self.golden, key, res.observed)
            or check_report(self.ic, D, report, plan)
            or check_verdict(self.ic.oracles.verify_code(D, self.ic.schemes.assemble_code(D, plan)))
        )
        return res


class GreedyLarge:
    """compare, then assemble_code and verify_code of the ICC plan, at n >= 100.

    Planners run greedy (n is above the exact bound) and mais refuses, so
    shortest-cycle extraction and rank verification do the work.  Sizes and
    mean out-degrees are a fixed grid; the arcs are drawn from the seed.
    Thirteen instances of similar cost fill most of a 30 s run with one
    pass while averaging out the +-10 % cost spread between random
    digraphs of one size.
    """

    name = "greedy-large"
    budget_s = 30.0
    grid = tuple((100 + 5 * i, (5.0, 6.25, 7.5, 8.75, 10.0)[i % 5]) for i in range(13))

    def __init__(self, ic, seed: int, ctx: Context):
        self.ic = ic
        self.golden = ctx.golden.get(self.name, {})
        self.capture = ctx.capture
        rng = random.Random(seed)
        grid = ((30, 4.0), (40, 5.0)) if ctx.toy else self.grid
        self.items = []
        for n, deg in grid:
            D = random_digraph(ic, rng, n, deg / (n - 1))
            self.items.append((digest(ic.digraph.serialize_digraph(D)), D))
        warm = random_digraph(ic, rng, 20, 0.15)
        ic.oracles.verify_code(warm, ic.schemes.assemble_code(warm, ic.schemes.icc_cover(warm, "greedy")))

    def check_setup(self) -> list[str]:
        return []

    def next_pass(self) -> list:
        return self.items

    def op(self, item, corrupt: bool = False) -> OpResult:
        key, D = item
        ic = self.ic
        res = OpResult(messages=D.n, symbols=D.n)
        self.capture.plan = None
        t0 = clock()
        try:
            with budget(self.budget_s):
                report = ic.schemes.compare(D)
                t1 = clock()
                code = ic.schemes.assemble_code(D, self.capture.plan)
                t2 = clock()
                verdict = ic.oracles.verify_code(D, code)
                t3 = clock()
        except OverBudget:
            res.phases["compare"] = clock() - t0
            res.over_budget = True
            return res
        res.phases.update(compare=t1 - t0, assemble=t2 - t1, verify=t3 - t2)
        text = ic.schemes.serialize_report(report)
        if corrupt:
            text = corrupt_report(text)
        res.symbols = report.l_icc
        res.observed = {"report": digest(text), "listing": digest(ic.codec.serialize_code(code))}
        res.error = (
            check_golden(self.golden, key, res.observed)
            or check_report(ic, D, json.loads(text), self.capture.plan)
            or check_verdict(verdict)
        )
        return res


@dataclass
class StreamEntry:
    key: str
    D: object
    plan: object
    side: list  # side[v]: sorted side-information ids of receiver v (index 0 unused)
    piece_of: dict  # receiver -> (template, labeling) of the piece covering it
    uncoded_at: dict  # uncovered receiver -> index of its uncoded symbol
    symbols: int
    listing: str


class BroadcastStream:
    """Packet generations pushed through fixed plans: encode, then decode all.

    Plans are built in set-up (template digraphs, gap_family members, and
    random hosts planned greedily), so only the codec works in the timed
    region.  One operation is one generation for every plan: fresh
    packets, assemble_code, then decode_receiver for every receiver with
    the packets of its side information (uncovered receivers read their
    uncoded symbol).  Taking the whole schedule as one operation keeps the
    latency independent of which plan sizes the seed drew.
    """

    name = "broadcast-stream"
    budget_s = 5.0

    def __init__(self, ic, seed: int, ctx: Context):
        self.ic = ic
        self.golden = ctx.golden.get(self.name, {})
        rng = random.Random(seed)
        self.packet_rng = random.Random(f"{seed}-packets")
        sources = []
        for k in (3, 4) if ctx.toy else [k for k in range(3, 11) for _ in range(4)]:
            T = ic.template.random_template(k, 3, 0.1, rng.randrange(2**31))
            D, lab = ic.template.build_digraph(T)
            plan = ic.finder.make_plan(D, [(T, lab)])
            sources.append((D, plan, ic.template.serialize_template(T)))
        for k in (2, 3) if ctx.toy else range(2, 6):
            D = ic.schemes.gap_family(k)
            sources.append((D, ic.schemes.icc_cover(D), ""))
        for n in (20,) if ctx.toy else (40, 60, 80):
            D = random_digraph(ic, rng, n, 4.0 / (n - 1))
            sources.append((D, ic.schemes.icc_cover(D, "greedy"), ""))
        self.entries = [self._entry(D, plan, extra) for D, plan, extra in sources]
        self.op(self.entries[:1])  # warm-up

    def _entry(self, D, plan, extra: str) -> StreamEntry:
        ic = self.ic
        code = ic.schemes.assemble_code(D, plan)
        piece_of = {v: (T, lab) for T, lab in plan.pieces for v in lab.values()}
        uncoded_at = {
            min(s.support): idx for idx, s in enumerate(code.symbols) if s.tag == ic.codec.TAG_UNCODED
        }
        side = [[]] + [sorted(ic.digraph.side_info(D, v)) for v in range(1, D.n + 1)]
        key = digest(ic.digraph.serialize_digraph(D) + extra)
        return StreamEntry(key, D, plan, side, piece_of, uncoded_at, len(code.symbols), ic.codec.serialize_code(code))

    def check_setup(self) -> list[str]:
        """Golden and rank checks of each plan's support-only code."""
        errors = []
        for e in self.entries:
            err = check_golden(self.golden, e.key, {"listing": digest(e.listing)})
            if err is None and not self.ic.oracles.verify_code(e.D, self.ic.schemes.assemble_code(e.D, e.plan)).valid:
                err = f"support-only code of plan {e.key} fails rank verification"
            if err:
                errors.append(err)
        return errors

    def next_pass(self) -> list:
        return [self.entries]

    def op(self, entries: list, corrupt: bool = False) -> OpResult:
        ic = self.ic
        res = OpResult(messages=sum(e.D.n for e in entries), symbols=sum(e.symbols for e in entries))
        res.payload_bytes = res.messages * PACKET_BYTES
        encode_s = decode_s = 0.0
        wrong = []
        for e in entries:
            n = e.D.n
            raw = [self.packet_rng.randbytes(PACKET_BYTES) for _ in range(n)]
            packets = ic.codec.new_packet_vector(8 * PACKET_BYTES, raw)
            sides = [None] + [{m: raw[m - 1] for m in e.side[v]} for v in range(1, n + 1)]
            decode = ic.codec.decode_receiver
            got = [None] * (n + 1)
            t0 = clock()
            try:
                with budget(self.budget_s):
                    code = ic.schemes.assemble_code(e.D, e.plan, packets)
                    t1 = clock()
                    if corrupt:
                        code, corrupt = _flip_first_payload_byte(ic, code), False
                    for v in range(1, n + 1):
                        piece = e.piece_of.get(v)
                        if piece is None:
                            got[v] = code.symbols[e.uncoded_at[v]].payload
                        else:
                            got[v] = decode(piece[0], piece[1], code, v, sides[v])
                    t2 = clock()
            except OverBudget:
                res.phases.update(encode=encode_s + clock() - t0, decode=decode_s)
                res.over_budget = True
                return res
            encode_s += t1 - t0
            decode_s += t2 - t1
            wrong += [(e.key, v) for v in range(1, n + 1) if got[v] != raw[v - 1]]
        res.phases.update(encode=encode_s, decode=decode_s)
        if wrong:
            res.error = f"{len(wrong)} of {res.messages} receivers decoded wrong bytes (first: plan {wrong[0][0]}, receiver {wrong[0][1]})"
        return res


def _flip_first_payload_byte(ic, code):
    first = code.symbols[0]
    payload = bytes([first.payload[0] ^ 0x01]) + first.payload[1:]
    flipped = ic.codec.CodedSymbol(first.support, payload, first.tag)
    return ic.codec.IndexCode((flipped,) + code.symbols[1:], code.xor_bit_ops)


WORKLOADS = {w.name: w for w in (ExactSmall, GreedyLarge, BroadcastStream)}
