"""Outside-in layer tracing for the iccover benchmark.

Public names are wrapped where each module looks them up at call time,
so the package itself is never edited.  A span records (id, name, start,
end, parent id, instance id); spans stay in memory until the run ends.
A layer's self time is its span's duration minus the time its child
spans cover (calls are single-threaded, so children never overlap).
Times are CPU seconds of the thread, like the benchmark's operation
timings.
"""

from __future__ import annotations

import functools
import gzip
import time

# (module where the name is looked up, attribute, layer label).  The label
# names the defining module; ".by_<caller>" marks a binding wrapped inside
# one caller so its counts can be attributed to that caller.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_digraph", "digraph.parse_digraph.by_cli"),
    ("cli", "compare", "schemes.compare"),
    ("schemes", "compare", "schemes.compare"),
    ("schemes", "cycle_cover", "schemes.cycle_cover"),
    ("schemes", "clique_cover", "schemes.clique_cover"),
    ("schemes", "icc_cover", "schemes.icc_cover"),
    ("schemes", "mais", "oracles.mais"),
    ("schemes", "find_icc_subgraphs", "finder.find_icc_subgraphs"),
    ("finder", "strongly_connected_mask", "digraph.strongly_connected_mask.by_finder"),
    ("finder", "check_embedding", "template.check_embedding.by_finder"),
    ("finder", "shortest_cycle_mask", "digraph.shortest_cycle_mask.by_finder"),
    ("schemes", "shortest_cycle_mask", "digraph.shortest_cycle_mask.by_schemes"),
    ("oracles", "shortest_cycle_mask", "digraph.shortest_cycle_mask.by_oracles"),
    ("oracles", "verify_code", "oracles.verify_code"),
    ("oracles", "gf2_rank", "oracles.gf2_rank"),
    ("schemes", "assemble_code", "schemes.assemble_code"),
    ("schemes", "check_embedding", "template.check_embedding.by_schemes"),
    ("schemes", "encode", "codec.encode"),
    ("codec", "decode_receiver", "codec.decode_receiver"),
    ("codec", "validate_template", "template.validate_template.by_codec"),
    ("codec", "xor_bytes", "codec.xor_bytes"),
)

LABELS = tuple(dict.fromkeys(label for _, _, label in WRAPPED))
# bytes a call reads and writes: two operands in, one result out
MOVED_BYTES = {"codec.xor_bytes": lambda args: 3 * len(args[0])}


class Tracer:
    """Span recorder; records only while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.instance = None
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self.stats = {label: [0, 0.0, 0.0, 0] for label in LABELS}  # calls, s, self s, bytes

    def install(self, modules: dict) -> None:
        for mod_name, attr, label in WRAPPED:
            mod = modules[mod_name]
            setattr(mod, attr, self._wrap(getattr(mod, attr), label))

    def _wrap(self, fn, label: str):
        moved = MOVED_BYTES.get(label)
        stat = self.stats[label]
        stack = self._stack
        clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if moved is not None:
                    stat[3] += moved(args)
                self.spans.append((sid, label, start, end, parent, self.instance))

        return traced

    def reset_stack(self) -> None:
        """Drop open frames: an overrun can interrupt a wrapper between push and pop."""
        self._stack.clear()

    def layer_metrics(self, traced_s: float) -> dict[str, tuple[float, str]]:
        """Per layer: calls, and inclusive and self time as shares of ``traced_s``.

        Shares rather than seconds: a layer a workload never calls reads
        exactly 0, which is a count of nothing, not a clock reading.
        """
        out: dict[str, tuple[float, str]] = {}
        for label, (calls, total, self_s, _) in self.stats.items():
            out[f"{label}.calls"] = (calls, "count")
            out[f"{label}.share"] = (total / traced_s, "ratio")
            out[f"{label}.self_share"] = (self_s / traced_s, "ratio")
        out["codec.xor_bytes.moved_MB"] = (self.stats["codec.xor_bytes"][3] / 1e6, "MB")
        scc = self.stats["digraph.strongly_connected_mask.by_finder"][0]
        hits = self.stats["template.check_embedding.by_finder"][0]
        out["finder.embed_per_scc_check"] = (hits / scc if scc else 0.0, "ratio")
        return out

    def layer_seconds(self) -> dict[str, dict]:
        return {label: {"calls": c, "s": t, "self_s": st} for label, (c, t, st, _) in self.stats.items()}

    def write_spans(self, path) -> None:
        """CSV (gzip): id, name, start and end (thread CPU s), parent id (-1 = root), instance (pass:item)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,instance\n")
            for sid, label, start, end, parent, inst in sorted(self.spans):
                fh.write(f"{sid},{label},{start:.9f},{end:.9f},{parent},{inst}\n")
