import gc
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iccover.cli import main
from iccover.codec import parse_code, parse_packets, parse_side
from iccover.digraph import new_digraph, parse_digraph, serialize_digraph
from iccover.errors import ECHO_LIMIT, FormatError, echo
from iccover.template import parse_template, validate_template

DATA = Path(__file__).parent / "data"

D1_TEMPLATE = json.dumps(
    {
        "k": 3,
        "typeI": [2, 2, 2],
        "typeII": {},
        "attach": {"1,2": 1, "1,3": 1, "2,1": 1, "2,3": 1, "3,1": 1, "3,2": 1},
    },
    separators=(",", ":"),
)


@pytest.fixture
def tdir(tmp_path):
    (tmp_path / "t.json").write_text(D1_TEMPLATE + "\n")
    return tmp_path


def test_gen_icc(tdir, capsys):
    assert main(["gen-icc", "--template", str(tdir / "t.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 6 and len(out["arcs"]) == 9


def test_gen_family_matches_fixture(tmp_path, capsys):
    out_file = tmp_path / "d.json"
    assert main(["gen-family", "--k", "3", "--out", str(out_file)]) == 0
    assert out_file.read_text() == (DATA / "d1.json").read_text()


def test_gen_random_deterministic(capsys):
    assert main(["gen-random", "--k", "2", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["gen-random", "--k", "2", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    json.loads(first)


@pytest.mark.parametrize("density", ["2", "-1", "nan"])
def test_gen_random_rejects_bad_density(density, capsys):
    assert main(["gen-random", "--k", "3", "--density", density]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "density" in captured.err


def test_encode_support_only(tdir, capsys):
    assert main(["encode", "--template", str(tdir / "t.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["x1+x2", "x3+x4", "x5+x6", "x2+x4+x6"]


def test_encode_decode_with_packets(tdir, capsys):
    pk = tdir / "pk.txt"
    pk.write_text("t=8\n" + "".join(f"{i:02x}\n" for i in (0x11, 0x22, 0x33, 0x44, 0x55, 0x66)))
    code = tdir / "code.txt"
    assert main(["encode", "--template", str(tdir / "t.json"), "--packets", str(pk), "--out", str(code)]) == 0
    assert code.read_text() == "x1+x2 33\nx3+x4 77\nx5+x6 33\nx2+x4+x6 00\n"

    side = tdir / "side.txt"
    side.write_text("t=8\n2=22\n")
    assert main(["decode", "--template", str(tdir / "t.json"), "--code", str(code), "--receiver", "1", "--side", str(side)]) == 0
    assert capsys.readouterr().out.strip() == "11"

    # terminal receiver needs the first vertex of each other path
    side.write_text("t=8\n3=33\n5=55\n")
    assert main(["decode", "--template", str(tdir / "t.json"), "--code", str(code), "--receiver", "2", "--side", str(side)]) == 0
    assert capsys.readouterr().out.strip() == "22"


def test_decode_missing_side(tdir, capsys):
    pk = tdir / "pk.txt"
    pk.write_text("t=8\n" + "11\n" * 6)
    code = tdir / "code.txt"
    main(["encode", "--template", str(tdir / "t.json"), "--packets", str(pk), "--out", str(code)])
    side = tdir / "side.txt"
    side.write_text("t=8\n")
    assert main(["decode", "--template", str(tdir / "t.json"), "--code", str(code), "--receiver", "1", "--side", str(side)]) == 1
    assert "error:" in capsys.readouterr().err


def test_decode_rejects_side_width_mismatch(tdir, capsys):
    pk = tdir / "pk.txt"
    pk.write_text("t=16\n" + "".join(f"{i:02x}{i:02x}\n" for i in (0x11, 0x22, 0x33, 0x44, 0x55, 0x66)))
    code = tdir / "code.txt"
    assert main(["encode", "--template", str(tdir / "t.json"), "--packets", str(pk), "--out", str(code)]) == 0
    side = tdir / "side.txt"
    side.write_text("t=8\n2=22\n")
    assert main(["decode", "--template", str(tdir / "t.json"), "--code", str(code), "--receiver", "1", "--side", str(side)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "packet length mismatch: 2 vs 1 bytes" in captured.err


def test_crlf_packet_file_is_an_error(tdir, capsys):
    # files are read without newline translation, so CRLF meets the parser
    pk = tdir / "pk.txt"
    pk.write_bytes(b"t=8\r\n11\r\n22\r\n33\r\n44\r\n55\r\n66\r\n")
    assert main(["encode", "--template", str(tdir / "t.json"), "--packets", str(pk)]) == 1
    assert capsys.readouterr().err.startswith("error: line 1: bad bit count")


@pytest.mark.parametrize("command", ["encode", "decode"])
def test_template_with_too_few_paths_is_an_error(tdir, capsys, command):
    bad = tdir / "bad.json"
    bad.write_text('{"k":3,"typeI":[1]}\n')
    code = tdir / "code.txt"
    assert main(["encode", "--template", str(tdir / "t.json"), "--out", str(code)]) == 0
    side = tdir / "side.txt"
    side.write_text("t=8\n")
    argv = [command, "--template", str(bad)]
    if command == "decode":
        argv += ["--code", str(code), "--receiver", "1", "--side", str(side)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected 3 main-path lengths, got 1\n"


def test_verify_valid_and_invalid(tdir, capsys):
    code = tdir / "code.txt"
    main(["encode", "--template", str(tdir / "t.json"), "--out", str(code)])
    dig = tdir / "d.json"
    main(["gen-icc", "--template", str(tdir / "t.json"), "--out", str(dig)])

    assert main(["verify", "--digraph", str(dig), "--code", str(code)]) == 0
    assert capsys.readouterr().out.strip() == "valid"

    lines = code.read_text().splitlines()
    code.write_text("\n".join(lines[1:]) + "\n")
    assert main(["verify", "--digraph", str(dig), "--code", str(code)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("invalid at receivers:")


def test_mais_subcommand(capsys):
    assert main(["mais", "--digraph", str(DATA / "d1.json")]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_compare_subcommand(capsys):
    assert main(["compare", "--digraph", str(DATA / "d1.json")]) == 0
    assert capsys.readouterr().out.strip() == (
        '{"n":6,"l_cyc":5,"l_cc":6,"l_icc":4,"mais":4,"optimal":true}'
    )
    assert main(["compare", "--digraph", str(DATA / "d2.json")]) == 0
    assert capsys.readouterr().out.strip() == (
        '{"n":5,"l_cyc":4,"l_cc":5,"l_icc":3,"mais":3,"optimal":true}'
    )


def test_compare_exact_bound_env(tmp_path, capsys, monkeypatch):
    dig = tmp_path / "g.json"
    main(["gen-family", "--k", "4", "--out", str(dig)])

    monkeypatch.setenv("ICC_EXACT_BOUND", "4")
    assert main(["compare", "--digraph", str(dig)]) == 0
    greedy_run = json.loads(capsys.readouterr().out)

    # explicit flag beats the environment
    assert main(["compare", "--digraph", str(dig), "--exact-bound", "12"]) == 0
    exact_run = json.loads(capsys.readouterr().out)
    assert exact_run["l_icc"] == 5 and exact_run["optimal"]
    assert greedy_run["l_icc"] >= exact_run["l_icc"]

    monkeypatch.setenv("ICC_EXACT_BOUND", "zzz")
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--digraph", str(dig)])
    assert exc.value.code == 2


def test_parser_reuse_keeps_calls_apart(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ICC_EXACT_BOUND", raising=False)
    dig = tmp_path / "g.json"
    assert main(["gen-family", "--k", "4", "--out", str(dig)]) == 0
    assert main(["compare", "--digraph", str(dig), "--exact-bound", "4"]) == 0
    greedy_run = json.loads(capsys.readouterr().out)
    assert main(["mais", "--digraph", str(DATA / "d2.json")]) == 0
    assert capsys.readouterr().out == "3\n"
    # the bound of the first compare must not carry over
    assert main(["compare", "--digraph", str(dig)]) == 0
    exact_run = json.loads(capsys.readouterr().out)
    assert exact_run["l_icc"] == 5 and exact_run["optimal"]
    assert greedy_run != exact_run


def test_compare_leaves_no_cyclic_garbage(tmp_path, capsys):
    rng = random.Random(12)
    dense = new_digraph(12, [(u, v) for u in range(1, 13) for v in range(1, 13) if u != v and rng.random() < 0.4])
    assert len(dense.arcs) == 57
    (tmp_path / "dense.json").write_text(serialize_digraph(dense))
    paths = [DATA / "d1.json", DATA / "d2.json", tmp_path / "dense.json"]
    assert main(["compare", "--digraph", str(paths[0])]) == 0
    gc.collect()
    gc.disable()
    try:
        for path in paths:
            assert main(["compare", "--digraph", str(path)]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_compare_above_hard_exact_limit_exits_1(tmp_path, capsys):
    dig = tmp_path / "ring21.json"
    dig.write_text(serialize_digraph(new_digraph(21, [(v, v % 21 + 1) for v in range(1, 22)])))
    assert main(["compare", "--digraph", str(dig), "--exact-bound", "64"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: exact cycle packing is limited to 20 vertices (digraph has 21)")


def test_missing_file_is_error(capsys):
    assert main(["mais", "--digraph", "no-such-file.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# integers longer than CPython's 4,300-digit conversion limit, in JSON and as a code's message id
HUGE_INT_JSON = b'{"n":' + b"1" * 5000 + b',"arcs":[]}'
HUGE_ID_CODE = b"x" + b"1" * 5000 + b"\n"


@pytest.mark.parametrize(
    "command",
    [["compare", "--digraph"], ["gen-icc", "--template"], ["verify", "--digraph", str(DATA / "d1.json"), "--code"]],
    ids=["digraph", "template", "code"],
)
@pytest.mark.parametrize(
    "raw",
    [b"\xff\xfe", b"[" * 200000, HUGE_INT_JSON, HUGE_ID_CODE],
    ids=["not-utf8", "deeply-nested", "huge-int", "huge-id"],
)
def test_hostile_input_is_one_error_line(tmp_path, capsys, command, raw):
    f = tmp_path / "hostile.json"
    f.write_bytes(raw)
    assert main([*command, str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


# JSON values, the two file objects with fields of any JSON type, and short
# line-based listings: each reaches past the first checks of its parser
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["1,2", "2,1", "1,1", "x"]), inner, max_size=3),
    max_leaves=10,
)
_objects = st.fixed_dictionaries({"n": _json, "arcs": _json}) | st.fixed_dictionaries(
    {"k": st.integers(0, 3) | _json, "typeI": st.lists(st.integers(0, 3), max_size=3) | _json},
    optional={"typeII": _json, "attach": _json},
)
_listings = st.lists(st.text(alphabet="tx0123456789abcdef+= -_\t", max_size=12), max_size=5).map("\n".join)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.text() | (_json | _objects).map(json.dumps) | _listings)
def test_parsers_return_or_raise_format_error(text):
    for parse in (parse_digraph, parse_template, parse_code, parse_packets, parse_side):
        try:
            parse(text)
        except FormatError:
            pass


LONG = "z" * 5000  # not hex, not a number


@pytest.mark.parametrize(
    "parse, text, start",
    [
        (parse_digraph, json.dumps({"n": 2, "arcs": [LONG]}), "arcs[0]: expected a pair [u,v], got 'zzz"),
        (parse_template, json.dumps({"k": LONG, "typeI": [1]}), "field 'k': expected an integer, got 'zzz"),
        (parse_code, f"x1+{LONG}\n", "line 1: bad message id token 'zzz"),
        (parse_packets, f"t=8\n{LONG}\n", "line 2: bad packet hex 'zzz"),
        (parse_side, f"t=8\n{LONG}=00\n", "line 2: bad message id 'zzz"),
    ],
    ids=["digraph", "template", "code", "packets", "side"],
)
def test_parsers_cut_long_tokens_in_messages(parse, text, start):
    with pytest.raises(FormatError) as exc:
        parse(text)
    message = str(exc.value)
    assert message.startswith(start) and message.endswith("...")
    assert len(message) < 2 * ECHO_LIMIT


def test_template_problems_cut_long_values():
    T = parse_template(json.dumps({"k": 1, "typeI": [-(10**4000)]}))
    assert validate_template(T) == [f"main path 1: length must be >= 1, got -1{'0' * (ECHO_LIMIT - 2)}..."]


def test_exact_bound_variable_is_cut_in_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("ICC_EXACT_BOUND", LONG)
    with pytest.raises(SystemExit):
        main(["compare", "--digraph", str(DATA / "d1.json")])
    assert capsys.readouterr().err.endswith(f"ICC_EXACT_BOUND must be an integer, got '{'z' * (ECHO_LIMIT - 1)}...\n")


def test_echo_keeps_short_values_whole():
    assert echo("a" * (ECHO_LIMIT - 2)) == repr("a" * (ECHO_LIMIT - 2))
    assert echo("a" * (ECHO_LIMIT - 1)) == "'" + "a" * (ECHO_LIMIT - 1) + "..."
    with pytest.raises(FormatError, match="^line 2: bad packet hex 'zz'$"):
        parse_packets("t=8\nzz\n")


def _one_error_line(capsys, needle):
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err, err


@pytest.mark.parametrize("command", ["compare", "mais", "verify"])
def test_digraph_above_size_bound_exits_1(tmp_path, capsys, command):
    huge = tmp_path / "huge.json"
    huge.write_text('{"n":1000000000,"arcs":[]}')
    (tmp_path / "code.txt").write_text("x1\n")
    extra = ["--code", str(tmp_path / "code.txt")] if command == "verify" else []
    assert main([command, "--digraph", str(huge), *extra]) == 1
    _one_error_line(capsys, "above the limit of 1024")


@pytest.mark.parametrize("command", [["gen-family", "--k", "513"], ["gen-random", "--k", "1025"], ["gen-random", "--k", "1000000000"]])
def test_generators_above_size_bound_exit_1(capsys, command):
    assert main(command) == 1
    _one_error_line(capsys, "limit of 1024")


@pytest.mark.parametrize(
    "text,needle",
    [
        ('{"k":1,"typeI":[1],"typeII":[]}', "expected an object"),
        ('{"k":1,"typeI":[1],"attach":5}', "expected an object"),
        ('{"k":1,"typeI":[1000000000]}', "above the limit of 1024"),
        (json.dumps({"k": 10**5, "typeI": [1] * 10**5}), "above the limit of 1024"),
    ],
    ids=["typeII-list", "attach-number", "oversized", "too-many-paths"],
)
@pytest.mark.parametrize("command", ["gen-icc", "encode"])
def test_hostile_template_exits_1(tmp_path, capsys, text, needle, command):
    f = tmp_path / "t.json"
    f.write_text(text)
    assert main([command, "--template", str(f)]) == 1
    _one_error_line(capsys, needle)
