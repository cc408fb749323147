"""Command-line interface: generate, encode, decode, verify, compare.

All data goes to stdout (or --out files), diagnostics to stderr.  Exit
status is 0 on success, 1 on domain errors (bad inputs, size refusals,
failed verification), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .codec import decode_receiver, encode, parse_code, parse_packets, parse_side, serialize_code
from .digraph import parse_digraph, serialize_digraph
from .errors import FormatError, IccoverError, echo
from .finder import DEFAULT_EXACT_BOUND
from .oracles import mais, verify_code
from .schemes import compare, gap_family, serialize_report
from .template import build_digraph, canonical_labeling, parse_template, random_template, serialize_template


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8", newline="") as fh:  # no CRLF translation
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise FormatError(f"{path}: not UTF-8 text") from None


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_gen_icc(args) -> int:
    T = parse_template(_read(args.template))
    D, _ = build_digraph(T)
    _emit(serialize_digraph(D), args.out)
    return 0


def _cmd_gen_family(args) -> int:
    _emit(serialize_digraph(gap_family(args.k)), args.out)
    return 0


def _cmd_gen_random(args) -> int:
    T = random_template(args.k, args.max_path_len, args.density, args.seed)
    _emit(serialize_template(T), args.out)
    return 0


def _cmd_encode(args) -> int:
    T = parse_template(_read(args.template))
    packets = parse_packets(_read(args.packets)) if args.packets else None
    code = encode(T, canonical_labeling(T), packets)
    _emit(serialize_code(code), args.out)
    return 0


def _cmd_decode(args) -> int:
    T = parse_template(_read(args.template))
    lab = canonical_labeling(T)
    code = parse_code(_read(args.code))
    _, side = parse_side(_read(args.side))
    packet = decode_receiver(T, lab, code, args.receiver, side)
    sys.stdout.write(packet.hex() + "\n")
    return 0


def _cmd_verify(args) -> int:
    D = parse_digraph(_read(args.digraph))
    code = parse_code(_read(args.code))
    result = verify_code(D, code)
    if result.valid:
        sys.stdout.write("valid\n")
        return 0
    sys.stdout.write("invalid at receivers: " + ",".join(str(i) for i in result.failing()) + "\n")
    return 1


def _cmd_mais(args) -> int:
    D = parse_digraph(_read(args.digraph))
    sys.stdout.write(f"{mais(D)}\n")
    return 0


def _cmd_compare(args) -> int:
    D = parse_digraph(_read(args.digraph))
    sys.stdout.write(serialize_report(compare(D, args.exact_bound)) + "\n")
    return 0


@functools.cache  # argparse takes about 2 ms to build one, and parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="iccover", description="Interlinked-cycle covers for broadcast coding.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-icc", help="build the digraph a template describes")
    p.add_argument("--template", required=True, help="template JSON file")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_gen_icc)

    p = sub.add_parser("gen-family", help="build the two-block family digraph for a given k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_gen_family)

    p = sub.add_parser("gen-random", help="draw a random valid template")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-path-len", type=int, default=4)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_gen_random)

    p = sub.add_parser("encode", help="emit a template's code listing")
    p.add_argument("--template", required=True)
    p.add_argument("--packets", help="packet file; omit for a support-only listing")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="recover one receiver's packet")
    p.add_argument("--template", required=True)
    p.add_argument("--code", required=True)
    p.add_argument("--receiver", type=int, required=True)
    p.add_argument("--side", required=True, help="side packet file (id=hex lines)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("verify", help="rank-certify a code against a digraph")
    p.add_argument("--digraph", required=True)
    p.add_argument("--code", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("mais", help="largest acyclic induced subgraph order")
    p.add_argument("--digraph", required=True)
    p.set_defaults(func=_cmd_mais)

    p = sub.add_parser("compare", help="run all covering schemes and report lengths")
    p.add_argument("--digraph", required=True)
    p.add_argument("--exact-bound", type=int, default=None, help="exact-search size cap (env ICC_EXACT_BOUND)")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "exact_bound") and args.exact_bound is None:
        raw = os.environ.get("ICC_EXACT_BOUND")
        if raw is None:
            args.exact_bound = DEFAULT_EXACT_BOUND
        else:
            try:
                args.exact_bound = int(raw)
            except ValueError:
                parser.error(f"ICC_EXACT_BOUND must be an integer, got {echo(raw)}")
    try:
        return args.func(args)
    except (IccoverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
