import argparse
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ospds import cli
from ospds.cli import main
from ospds.diagram import DomainError, ParseError, parse, validate

ROOT = Path(__file__).parent.parent
PINNED = json.loads((ROOT / "perfbench" / "pinned.json").read_text())


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err
    return invoke


class TestDs:
    def test_table(self, run):
        code, out, _ = run("ds", "+xoox", "--t", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["+x                   (0|2)", "ooox                 (1|0)"]

    def test_json_round_trip(self, run):
        code, out, _ = run("ds", "+xoox", "--t", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data == {"t": 1, "rank": 1, "input": "+xoox",
                        "components": [{"diagram": "+x", "d0": 0, "d1": 2},
                                       {"diagram": "ooox", "d0": 1, "d1": 0}]}
        from ospds.diagram import parse
        for comp in data["components"]:
            parse(comp["diagram"], data["t"])

    def test_rank(self, run):
        code, out, _ = run("ds", "-x^2", "--t", "1", "--rank", "2")
        assert code == 0
        assert out.strip().startswith("o ")

    def test_parse_error_exits_2_with_grammar(self, run):
        code, out, err = run("ds", "junk", "--t", "1")
        assert code == 2
        assert "zerotok" in err

    def test_invalid_diagram_exits_1(self, run):
        code, _, err = run("ds", "+x", "--t", "2")
        assert code == 1
        assert "invalid" in err

    def test_deterministic(self, run):
        a = run("ds", "x^2oxooxxooooxo", "--t", "0", "--json")
        b = run("ds", "x^2oxooxxooooxo", "--t", "0", "--json")
        assert a == b

    def test_osp(self, run):
        code, out, _ = run("ds", "+oxox", "--t", "0", "--osp")
        assert code == 0
        assert "(0|2)" in out


class TestOracle:
    def test_value(self, run):
        code, out, _ = run("oracle", "+xoox", "+x", "--t", "1")
        assert code == 0
        assert out.strip() == "(0|2)"

    def test_trace(self, run):
        code, out, _ = run("oracle", "+xoox", "+x", "--t", "1", "--trace")
        assert code == 0
        assert "compact" in out and out.strip().endswith("(0|2)")

    @pytest.mark.parametrize("lam, line", [
        ("+oxx", "stack mismatch   +oxx  /  x"),
        ("x^2", "to type 2        x/>  /  >"),
    ])
    def test_trace_writes_stack_targets_as_diagrams(self, run, lam, line):
        # an even-series target stack is a diagram that parse reads back
        code, out, _ = run("oracle", lam, "x", "--t", "0", "--trace")
        assert code == 0 and line in out.splitlines()


class TestOtherCommands:
    def test_parse_diagram(self, run):
        code, out, _ = run("parse", "-x^2oxoox", "--t", "1")
        assert code == 0 and out.strip() == "-x^2oxoox"

    def test_parse_weight(self, run):
        code, out, _ = run("parse", "B 1 1 / -1/2 / 1/2")
        assert code == 0 and out.strip() == "-x  (t=1)"

    def test_validate(self, run):
        assert run("validate", "-x", "--t", "1")[0] == 0
        code, out, _ = run("validate", "+x", "--t", "2")
        assert code == 1 and "violation" in out

    def test_core_howl(self, run):
        assert run("core", "x>", "--t", "0") == (0, "+o>\n", "")
        assert run("howl", "<x<x", "--t", "1") == (0, "+xx\n", "")

    def test_unhowl(self, run):
        code, out, _ = run("unhowl", "+o>", "o", "--t", "0")
        assert code == 0 and out.split() == ["+o>", "-o>"]

    def test_unhowl_misfit_names_both_diagrams(self, run):
        # a '+'-signed t=0 diagram has no stack cross for a core with '<' at zero
        code, out, err = run("unhowl", "<", "+ox", "--t", "0")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'<'" in err and "'+ox'" in err

    def test_tau(self, run):
        assert run("tau", ">xoox", "--t", "2") == (0, "+xoox\n", "")
        assert run("tau", "+xoox", "--t", "1", "--inverse") == (0, ">xoox\n", "")

    def test_stabilize(self, run):
        code, out, _ = run("stabilize", ">x", "--t", "1")
        assert code == 0
        assert out.splitlines()[0] == "+x>"
        assert out.splitlines()[1] == "moves: 0"

    def test_arcs(self, run):
        code, out, _ = run("arcs", "+xoox", "--t", "1")
        assert code == 0
        assert "* arc(0;1)" in out and "* arc(3;4)" in out
        code, out, _ = run("arcs", "+xoox", "--t", "1", "--render")
        assert ".--." in out

    def test_arcs_listing_of_many_roots(self, run):
        # 4,999 side by side roots; a list membership test per arc took 3.35 s
        t0 = time.perf_counter()
        code, out, _ = run("arcs", "+" + "ox" * 4999, "--t", "0")
        assert time.perf_counter() - t0 < 0.5
        assert code == 0 and out.count("* arc(") == 4999

    def test_es(self, run):
        code, out, _ = run("es", "+x^3x", "--t", "1", "--series", "B", "--json")
        assert code == 0
        data = json.loads(out)
        dotted = [(a["from"], a["to"]) for a in data["arcs"] if a["dotted"]]
        assert dotted == [(4, 5), (6, 7)]

    def test_sdim(self, run):
        code, out, _ = run("sdim", "+ox", "--t", "0", "--m", "1", "--n", "1")
        assert code == 0 and out.strip() == "-1"

    def test_enumerate(self, run):
        code, out, _ = run("enumerate", "--t", "1", "-k", "1", "--width", "2")
        assert code == 0 and out.split() == ["-x", "+x", "ox"]

    def test_enumerate_width_below_k(self, run):
        assert run("enumerate", "--t", "0", "-k", "3", "--width", "2") == (
            1, "", "error: width must be at least k\n")

    def test_enumerate_negative_k(self, run):
        assert run("enumerate", "--t", "0", "-k", "-1", "--width", "4") == (
            1, "", "error: k must be non-negative, got -1\n")

    def test_usage_error(self, run):
        assert run("nonsense")[0] == 2
        assert run("ds", "+x")[0] == 2  # missing --t


class TestWeightInput:
    @pytest.mark.parametrize("text", [
        "B 1 0 / 1/2,1/0,0 / 1/2,0",
        "D 2 y / 1/2 / -1/2,x,x",
        "B 2 0 / x,a,2/ / 0,,2/",
        "D 1 0 / ,2/,-1/2 / 1",
        "B 1 1 / a / 1/2",
        "B x 1 / 1/2 / 1/2",
        "B 1 1 / 1/0 / 1/2",
    ])
    def test_bad_number_exits_2_with_grammar(self, run, text):
        code, out, err = run("parse", text)
        assert code == 2 and out == ""
        assert err.startswith("parse error: bad number") and "zerotok" in err

    def test_wrong_shape_stays_a_domain_error(self, run):
        code, _, err = run("parse", "B 1 1 / 1/2")
        assert code == 1 and err.startswith("error: expected")

    @pytest.mark.parametrize("text,why", [
        ("D 1 0 / 1/2 / -", "even-series coefficients must be integers"),
        ("B 1 0 / 1 / -", "epsilon coefficients must be half-integers >= -1/2"),
    ])
    def test_coordinates_off_the_integers_are_refused_by_the_shape_check(
            self, run, text, why):
        # the shape check is the only guard that a coordinate lands on a
        # non-negative integer position
        assert run("parse", text) == (1, "", f"error: {why}\n")


# up to 10 characters, so that digit runs reach 9-digit coordinates, which
# the width cap refuses before any diagram is built
_token = st.one_of(st.text("0123456789-+/,.xaBD ", max_size=10),
                   st.sampled_from(["B", "D", "1", "1/2", "-1/2", "0", "2/0", ""]))


@settings(max_examples=300, deadline=None)
@given(head=st.lists(_token, min_size=3, max_size=3),
       a=st.lists(_token, max_size=3), b=st.lists(_token, max_size=3))
def test_weight_fuzz_never_raises(head, a, b):
    text = " ".join(head) + " / " + ",".join(a) + " / " + ",".join(b)
    assert main(["parse", text]) in (0, 1, 2)


# paths no other test pins: plain-text es, --osp above rank 1, each
# validate message and an unhowl misfit under a zero '<'
_UNPINNED = [
    (["es", "+x^3x", "--t", "1", "--series", "B"], 0,
     "+xxooxox\narc(0;3)\narc(1;2)\narc(4;5) dotted\narc(6;7) dotted\n", ""),
    (["ds", "+xoox", "--t", "1", "--osp", "--rank", "2"], 2, "",
     "error: --osp computes the rank-1 reduction\n"),
    (["ds", "+xoox", "--t", "1", "--rank", "3"], 0, "(empty)\n", ""),
    (["parse", "+x", "--t", "2"], 1, "+x\nviolation: t=2 requires '>' at the zero position\n"
     "violation: t=2 diagrams carry no sign\n", ""),
    (["validate", "ox", "--t", "2"], 1,
     "violation: t=2 requires '>' at the zero position\n", ""),
    (["validate", "+>x", "--t", "2"], 1, "violation: t=2 diagrams carry no sign\n", ""),
    (["validate", "+x", "--t", "2"], 1, "violation: t=2 requires '>' at the zero position\n"
     "violation: t=2 diagrams carry no sign\n", ""),
    (["validate", ">x", "--t", "0"], 1,
     "violation: '>' at the zero position makes the diagram type 2, not 0\n", ""),
    (["validate", "<x", "--t", "0"], 1, "violation: t=0 forbids '<' at the zero position "
     "unless the diagram has no '>' and no 'x' at all\n", ""),
    (["validate", "o>x", "--t", "0"], 1,
     "violation: t=0 diagram with empty zero position must carry a sign\n", ""),
    (["validate", "+x", "--t", "0"], 1,
     "violation: sign present but the zero position is occupied\n", ""),
    (["validate", "+o<", "--t", "0"], 1,
     "violation: sign present but the diagram has no '>' and no 'x'\n", ""),
    (["validate", "x", "--t", "1"], 1,
     "violation: t=1 diagram with a bare zero stack must carry a sign\n", ""),
    (["validate", "+>", "--t", "1"], 1,
     "violation: sign present but the zero position is not a bare stack\n", ""),
    (["unhowl", "<", "-ox", "--t", "0"], 1, "", "error: '-ox' does not fit into core '<': "
     "t=0 forbids '<' at the zero position unless the diagram has no '>' and no 'x' at all\n"),
    # the t=0 zero-stack interleaving count: chains (1, 4) and (1, 5, 6), and a cored lift
    (["sdim", "x^2oxoox", "--t", "0", "--m", "4", "--n", "4"], 0, "-14\n", ""),
    (["sdim", "x^3oxoxox", "--t", "0", "--m", "6", "--n", "6"], 0, "90\n", ""),
    (["sdim", "x^2oxo>oxo", "--t", "0", "--m", "5", "--n", "4"], 0, "-28\n", ""),
]


@pytest.mark.parametrize("argv, code, out, err", _UNPINNED,
                         ids=[" ".join(case[0]) for case in _UNPINNED])
def test_unpinned_paths(run, argv, code, out, err):
    assert run(*argv) == (code, out, err)


@pytest.mark.parametrize("entry", PINNED, ids=lambda e: " ".join(e["argv"]))
def test_pinned_output(run, entry):
    """The outputs the benchmark pins stay byte-identical."""
    assert run(*entry["argv"]) == (entry["code"], entry["stdout"], entry["stderr"])


# -- one parser per process ---------------------------------------------------------

TABLE = "+x                   (0|2)\nooox                 (1|0)\n"


@pytest.mark.parametrize("seed", [1, 2])
def test_pinned_output_in_shuffled_order(run, seed):
    """The parser is shared between calls: no order of calls changes a byte."""
    entries = list(PINNED)
    random.Random(seed).shuffle(entries)
    for entry in entries:
        assert run(*entry["argv"]) == (entry["code"], entry["stdout"], entry["stderr"]), \
            entry["argv"]


def test_flags_do_not_leak_into_the_next_call(run):
    assert json.loads(run("ds", "+xoox", "--t", "1", "--json")[1])["rank"] == 1
    assert run("ds", "+xoox", "--t", "1") == (0, TABLE, "")
    assert run("parse", "-x^2oxoox", "--t", "1") == (0, "-x^2oxoox\n", "")
    assert run("parse", "B 1 1 / -1/2 / 1/2") == (0, "-x  (t=1)\n", "")


def test_calls_after_a_usage_error_and_after_help(run):
    code, out, err = run("ds", "+xoox", "--t", "7")
    assert code == 2 and out == "" and err.startswith("usage: ospds ds")
    assert run("ds", "+xoox", "--t", "1") == (0, TABLE, "")
    code, out, err = run("ds", "--help")
    assert code == 0 and out.startswith("usage: ospds ds") and err == ""
    assert run("ds", "+xoox", "--t", "1") == (0, TABLE, "")
    code, out, err = run("--help")
    assert code == 0 and "enumerate" in out and err == ""
    assert run("ds", "+xoox", "--t", "1") == (0, TABLE, "")


def test_fifty_calls_build_at_most_one_parser(run, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "ospds":    # not the subcommands' parsers
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for i in range(50):
        entry = PINNED[i % len(PINNED)]
        assert run(*entry["argv"])[0] == entry["code"]
    assert len(built) <= 1


def _python(*args: str, **kwargs) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


def test_import_builds_no_parser():
    script = ("import argparse\n"
              "built = []\n"
              "init = argparse.ArgumentParser.__init__\n"
              "def counting_init(self, *args, **kwargs):\n"
              "    built.append(self)\n"
              "    init(self, *args, **kwargs)\n"
              "argparse.ArgumentParser.__init__ = counting_init\n"
              "import ospds.cli\n"
              "print(len(built))\n")
    proc = _python("-c", script, stdout=subprocess.PIPE)
    out, _ = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (0, b"0\n")


def test_well_formed_call_imports_no_argparse():
    script = ("import sys\n"
              "import ospds.cli\n"
              "code = ospds.cli.main(['ds', '+xoox', '--t', '1'])\n"
              "print(code, 'argparse' in sys.modules)\n")
    proc = _python("-c", script, stdout=subprocess.PIPE)
    out, _ = proc.communicate(timeout=60)
    assert (proc.returncode, out.splitlines()[-1]) == (0, b"0 False")


def test_closed_pipe_exits_1_without_a_traceback():
    """``ospds enumerate ... | head -n 1``: the reader leaves after one line."""
    proc = _python("-m", "ospds.cli", "enumerate", "--t", "0", "-k", "2", "--width", "400",
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"x^2\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_superdimension_longer_than_str_allows(run):
    # 2^1499 1500! has 4,566 digits, more than str() converts
    code, out, err = run("sdim", "+" + "ox" * 1500, "--t", "0", "--m", "1500", "--n", "1500")
    assert (code, err) == (0, "")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert out == f"{2 ** 1499 * math.factorial(1500)}\n"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_ds_multiplicity_longer_than_str_allows(run, as_json):
    # the one component o of the rank-1500 reduction has multiplicity
    # (2^1499 1500! | 0), 4,566 digits
    code, out, err = run("ds", "+" + "ox" * 1500, "--t", "0", "--rank", "1500",
                         *(["--json"] if as_json else []))
    assert (code, err) == (0, "")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        mult = 2 ** 1499 * math.factorial(1500)
        if as_json:
            assert json.loads(out)["components"] == [{"diagram": "o", "d0": mult, "d1": 0}]
        else:
            assert out == f"{'o':<20} ({mult}|0)\n"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv, code", [
    (["sdim", "+" + "ox" * 1500, "--t", "0", "--m", "1500", "--n", "1500"], 0),
    (["ds", "-x^4000000", "--t", "1"], 1),
    (["ds", "+q", "--t", "0"], 2),
    (["ds", "x", "--t", "5"], 2),
], ids=["success", "domain error", "parse error", "usage error"])
def test_int_str_limit_is_restored(run, argv, code):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        assert run(*argv)[0] == code
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(limit)


def test_long_numbers_in_a_weight_are_read_but_flags_keep_the_limit(run):
    # numerator and denominator of 4,400 digits each, more than int() reads
    # under the default limit: the value 1 (test_input_above_the_cap_exits_1
    # pins that "9" * 5000 is still refused)
    ones = "1" * 4400
    assert run("parse", f"D 1 0 / {ones}/{ones} / -") == (0, "+o>  (t=0)\n", "")
    # argparse reads --rank before the limit is lifted
    code, out, err = run("ds", "+xoox", "--t", "1", "--rank", "9" * 5000)
    assert (code, out) == (2, "") and "invalid int value" in err


@pytest.mark.parametrize("argv", [
    ["ds", "-x^4000000", "--t", "1"],
    ["ds", "x^" + "9" * 5000, "--t", "0"],
    ["ds", "+o" + "xo" * 5001, "--t", "0"],
    ["parse", "D 1 0 / 1000000000 / -"],
    ["parse", "D 1 0 / " + "9" * 5000 + " / -"],
    ["arcs", "-x^10000", "--t", "1", "--render"],
    ["es", "o" + "x" * 4999 + "o" * 4999, "--t", "1", "--series", "B", "--render"],
    ["stabilize", ">" * 6666 + "x" * 3333, "--t", "1"],
    ["enumerate", "--t", "1", "-k", "1", "--width", "10003"],
    ["enumerate", "--t", "0", "-k", "10001", "--width", "10001"],
])
def test_input_above_the_cap_exits_1(run, argv):
    code, out, err = run(*argv)
    assert code == 1 and out == ""
    cap = ("MAX_RENDER_CELLS = 1000000" if "--render" in argv
           else "MAX_MOVES = 1000000" if argv[0] == "stabilize"
           else "MAX_WIDTH = 10000")
    assert err.startswith("error: ") and cap in err
    # one line naming the cap: no echo of the input, no grammar
    assert err.count("\n") == 1 and len(err) < 100


# -- argv fuzz over every subcommand ----------------------------------------------

_stack = st.sampled_from(["x", "x^2", "x^3", "x^0", "x^10001", "x^" + "9" * 30])
_zero = st.one_of(st.sampled_from(["o", ">", "<"]), _stack,
                  st.builds("{}/{}".format, _stack, st.sampled_from("><")))
_weight = st.sampled_from(["B 2 2 / 1/2,-1/2 / 1/2,1/2", "D 1 0 / 3 / -",
                           "D 1 0 / 1000000000 / -", "B 1 1 / 1/0 / 1/2",
                           "D 2 1 / 3,-1 / 1", "B 1 1 / 1/2"])
_small = st.integers(-1, 5).map(str)
_VALUES = {"--series": st.sampled_from(["B", "D", "C"]),
           "--rank": _small, "-k": _small, "--width": _small,
           "--m": _small, "--n": _small}
# subcommand -> (number of diagram arguments, required flags, optional flags)
_COMMANDS = {
    "parse": (1, [], ["--t", "--json"]),
    "validate": (1, ["--t"], []),
    "core": (1, ["--t"], []),
    "howl": (1, ["--t"], []),
    "unhowl": (2, ["--t"], []),
    "tau": (1, ["--t"], ["--inverse"]),
    "stabilize": (1, ["--t"], []),
    "arcs": (1, ["--t"], ["--render", "--json"]),
    "es": (1, ["--t", "--series"], ["--render", "--json"]),
    "ds": (1, ["--t"], ["--rank", "--json", "--osp"]),
    "oracle": (2, ["--t"], ["--trace"]),
    "sdim": (1, ["--t", "--m", "--n"], []),
    "enumerate": (0, ["--t", "-k", "--width"], []),
}


@pytest.mark.parametrize("cmd", [[]] + [[cmd] for cmd in _COMMANDS],
                         ids=["ospds"] + list(_COMMANDS))
def test_help_of_every_subcommand(run, cmd):
    code, out, err = run(*cmd, "-h")
    assert (code, err) == (0, "") and out.startswith(" ".join(["usage: ospds", *cmd, ""]))


def _valid(text: str, t: str) -> bool:
    try:
        return not validate(parse(text, int(t)))
    except (ParseError, DomainError):
        return False


@st.composite
def _argv(draw):
    """Mostly grammar-based diagrams with a block type that fits them."""
    cmd = draw(st.sampled_from(sorted(_COMMANDS)))
    diagrams, required, optional = _COMMANDS[cmd]
    argv, texts = [cmd], []
    for _ in range(diagrams):
        if cmd == "parse" and draw(st.booleans()):
            argv.append(draw(_weight))
            continue
        if draw(st.integers(0, 3)):
            text = (draw(st.sampled_from(["", "+", "-"])) + draw(_zero)
                    + draw(st.text("ox><", max_size=8)))
        else:
            text = draw(st.text("ox><+-^/019a ", max_size=6))
        argv.append(text)
        texts.append(text)
    fits = [t for t in "012" if all(_valid(text, t) for text in texts)]
    # a required flag is left out now and then, for the usage errors
    flags = [f for f in required if draw(st.integers(0, 9))]
    flags += [f for f in optional if draw(st.booleans())]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if flag == "--t":
            argv.append(draw(st.sampled_from(fits if fits and draw(st.integers(0, 4))
                                             else ["0", "1", "2", "3"])))
        elif flag in _VALUES:
            argv.append(draw(_VALUES[flag]))
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=_argv())
def test_cli_fuzz_never_raises(argv):
    assert main(argv) in (0, 1, 2)


# -- the argv reader against argparse ---------------------------------------------

def _parsed(argv: list[str]) -> dict | None:
    """The namespace argparse builds for ``argv``, None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return vars(cli._mk_parser().parse_args(argv))
    except SystemExit:
        return None


def _reads_as_argparse(argv: list[str]) -> bool:
    """Whether the reader takes ``argv``: where it does, argparse builds the
    same namespace."""
    argv = cli._shield_signed_diagrams(argv)
    args = cli._read(argv)
    if args is not None:
        assert vars(args) == _parsed(argv), argv
    return args is not None


@pytest.mark.parametrize("entry", PINNED, ids=lambda e: " ".join(e["argv"]))
def test_pinned_argv_reads_as_argparse(entry):
    # a well-formed call never falls through to argparse
    assert _reads_as_argparse(entry["argv"]) or entry["code"] != 0


@settings(max_examples=400, deadline=None)
@given(argv=_argv())
def test_fuzzed_argv_reads_as_argparse(argv):
    _reads_as_argparse(argv)


_OPTIONS = sorted({flag for *_, options in cli._COMMANDS.values() for flag in options})
_EDGE = ["--js", "--t=1", "-k3", "--", "-h", "-", "", " 1", "1_0", "-1", "9" * 5000]
_soup_token = st.one_of(st.sampled_from(_EDGE), st.sampled_from(_OPTIONS),
                        st.sampled_from(["0", "1", "2", "3", "B", "D", "+xoox", "-x", "x^2"]))


@settings(max_examples=400, deadline=None)
@given(argv=st.one_of(_argv(), st.sampled_from(sorted(_COMMANDS)).map(lambda cmd: [cmd])),
       extra=st.lists(st.tuples(st.integers(0, 12), _soup_token), max_size=8))
def test_edge_tokens_read_as_argparse(argv, extra):
    # options before positionals, repeats, abbreviations, '--opt=value',
    # attached values, negative and unconvertible numbers, inside a
    # well-formed argv or after a bare subcommand
    for at, token in extra:
        argv.insert(at, token)
    _reads_as_argparse(argv)
