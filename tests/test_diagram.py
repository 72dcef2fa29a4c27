import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from ospds.diagram import (CROSS, GT, LT, MAX_WIDTH, DomainError, ParseError,
                           WeightDiagram, atypicality, build,
                           core_of, enumerate_corefree, fmt,
                           is_stable, pari, parse, sigma, tail_length,
                           validate)
from ospds.sdim import superdimension
from conftest import P


class TestParseFormat:
    @pytest.mark.parametrize("text,t", [
        ("-x^2oxoox", 1), ("+xoox", 1), ("x^2/>oox", 2), (">xx", 2),
        ("o", 0), ("+ox", 0), ("x/<", 1), ("<", 1), ("-x", 1), ("x^3", 0),
    ])
    def test_round_trip(self, text, t):
        assert fmt(parse(text, t)) == text

    def test_trailing_empties_are_trimmed(self):
        assert parse("+xooxoo", 1) == parse("+xoox", 1)
        assert fmt(parse("oooo", 1)) == "o"

    def test_stack_exponent_one_is_canonical(self):
        assert fmt(parse("x^1", 0)) == "x"

    @pytest.mark.parametrize("bad", ["", "junk", "x^0", "+", "++x", "x/>/<",
                                     "×", "o∘"])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ParseError):
            parse(bad, 1)

    def test_sign_alone_is_rejected(self):
        with pytest.raises(ParseError):
            parse("-", 0)

    def test_empty_diagram_is_canonically_unsigned(self):
        assert WeightDiagram(0, sign="+") == WeightDiagram(0)


class TestConstruction:
    def test_no_instance_dict(self):
        # slots keep a diagram small; an instance dict more than doubles it
        assert not hasattr(P("-x^2oxoox", 1), "__dict__")

    def test_trusted_keeps_the_canonical_form(self):
        assert WeightDiagram._trusted(1, 2, None, "xoo", "-") == P("-x^2x", 1)
        assert WeightDiagram._trusted(0, 0, None, "ooo", "+") == WeightDiagram(0)

    @pytest.mark.parametrize("fields", [
        pytest.param((1, 2, None, "xoo", "-"), id="t=1 trailing o"),
        pytest.param((1, 0, "<", "xoxo", None), id="t=1 zero core"),
        pytest.param((0, 0, None, "ooo", "+"), id="signed empty"),
        pytest.param((0, 0, None, "oxoo", "-"), id="t=0 trailing o"),
        pytest.param((0, 2, None, "o>x", None), id="t=0 stack"),
        pytest.param((2, 1, ">", "oxoo", None), id="t=2 trailing o"),
        pytest.param((2, 0, ">", "", None), id="t=2 bare"),
    ])
    def test_trusted_matches_the_public_constructor(self, fields):
        trusted, public = WeightDiagram._trusted(*fields), WeightDiagram(*fields)
        assert type(trusted) is WeightDiagram
        assert tuple(trusted) == tuple(public)
        assert trusted == public and hash(trusted) == hash(public)

    @pytest.mark.parametrize("name", WeightDiagram._fields)
    def test_trusted_diagrams_are_frozen(self, name):
        d = WeightDiagram._trusted(1, 1, None, "xoo", "+")
        with pytest.raises(AttributeError):
            setattr(d, name, getattr(d, name))
        with pytest.raises(AttributeError):
            delattr(d, name)
        assert d == P("+xx", 1)

    def test_a_diagram_is_the_tuple_of_its_fields(self):
        d = P("-x^2oxoox", 1)
        assert WeightDiagram._fields == ("t", "zero_crosses", "zero_core",
                                         "tail_symbols", "sign")
        assert d == (1, 2, None, "oxoox", "-") and hash(d) == hash((1, 2, None, "oxoox", "-"))
        assert tuple(d) == (d.t, d.zero_crosses, d.zero_core, d.tail_symbols, d.sign)
        assert len(d) == 5 and d[3] == "oxoox"
        assert repr(d) == ("WeightDiagram(t=1, zero_crosses=2, zero_core=None, "
                           "tail_symbols='oxoox', sign='-')")

    @pytest.mark.parametrize("text,t", [("-x^2oxoox", 1), ("x^2/>oox", 2), ("o", 0)])
    def test_pickle_and_copy_keep_the_diagram(self, text, t):
        d = P(text, t)
        copies = [copy.copy(d), copy.deepcopy(d)]
        copies += [pickle.loads(pickle.dumps(d, protocol))
                   for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert type(c) is WeightDiagram and c == d

    def test_rebuilding_goes_through_the_checks(self):
        d = P("+xoox", 1)
        assert d._replace(sign="-") == P("-xoox", 1)
        assert WeightDiagram._make((1, 1, None, "ooxoo", "+")) == d
        with pytest.raises(DomainError, match="sign must be"):
            d._replace(sign="*")
        with pytest.raises(DomainError, match="bad symbol"):
            WeightDiagram._make((1, 1, None, "o?x", "+"))
        # pickle calls the checked constructor on the stored fields
        with pytest.raises(DomainError, match="bad symbol"):
            pickle.loads(pickle.dumps(d).replace(b"oox", b"o?x"))

    def test_copy_and_pickle_call_the_checked_constructor(self, monkeypatch):
        calls = []

        def spy(cls, *fields, new=WeightDiagram.__new__):
            calls.append(fields)
            return new(cls, *fields)
        monkeypatch.setattr(WeightDiagram, "__new__", spy)
        d = WeightDiagram._trusted(1, 1, None, "xoo", "+")
        assert copy.copy(d) == d and calls == [tuple(d)]
        assert pickle.loads(pickle.dumps(d)) == d and calls == [tuple(d)] * 2

    def test_with_sign_checks_the_sign(self):
        with pytest.raises(DomainError):
            P("+ox", 0).with_sign("*")

    def test_with_sign_matches_the_public_constructor(self, corefree_pool):
        for d in corefree_pool:
            for sign in (None, "+", "-"):
                public = WeightDiagram(d.t, d.zero_crosses, d.zero_core,
                                       d.tail_symbols, sign)
                got = d.with_sign(sign)
                assert got == public and hash(got) == hash(public)


class TestValidate:
    def test_signed_bare_stack_is_valid_odd(self):
        assert validate(P("-x", 1)) == []

    def test_zero_core_forbidden_for_type0(self):
        d = WeightDiagram(0, zero_core=GT)
        assert validate(d)

    def test_type2_never_signed(self):
        d = WeightDiagram(2, 1, GT, (), None)
        assert validate(d) == []
        assert validate(parse("+x/>", 2))

    def test_type0_lt_at_zero_needs_no_gt_or_cross(self):
        assert validate(WeightDiagram(0, zero_core=LT)) == []
        assert validate(WeightDiagram(0, zero_core=LT, tail_symbols=(CROSS,)))

    def test_type0_sign_iff_empty_zero(self):
        assert validate(P("+ox", 0)) == []
        assert validate(parse("ox", 0))      # missing sign
        assert validate(parse("+x", 0))      # zero occupied
        # an empty zero position, but nothing the sign could stand for
        assert validate(parse("+o<", 0)) == ["sign present but the diagram has no '>' and no 'x'"]

    def test_type1_sign_iff_bare_stack(self):
        assert validate(parse("+ox", 1))
        assert validate(parse("x", 1))
        assert validate(P("x/<", 1)) == []

    # the counts of '>' and crosses are read by the t=0 rules only; the rules
    # of the other types must still fire on diagrams that hold both
    @pytest.mark.parametrize("t,stack,zero,tail,sign,want", [
        (0, 0, LT, "x>", "+", ["t=0 forbids '<' at the zero position unless the "
                               "diagram has no '>' and no 'x' at all",
                               "sign present but the zero position is occupied"]),
        (0, 2, LT, "", None, ["t=0 forbids '<' at the zero position unless the "
                              "diagram has no '>' and no 'x' at all"]),
        (0, 0, None, "o>x", None, ["t=0 diagram with empty zero position must carry a sign"]),
        (1, 2, None, "x>x", None, ["t=1 diagram with a bare zero stack must carry a sign"]),
        (1, 1, GT, "x>", "+", ["sign present but the zero position is not a bare stack"]),
        (1, 0, None, ">x", "-", ["sign present but the zero position is not a bare stack"]),
        (2, 1, GT, "x>x", "+", ["t=2 diagrams carry no sign"]),
        (2, 1, LT, ">x", None, ["t=2 requires '>' at the zero position"]),
    ])
    def test_rules_on_diagrams_with_gt_and_crosses(self, t, stack, zero, tail, sign, want):
        assert validate(WeightDiagram(t, stack, zero, tail, sign)) == want


class TestCore:
    def test_cross_next_to_core(self):
        assert fmt(core_of(P("x>", 0))) == "+o>"

    def test_signed_source_drops_its_sign(self):
        assert fmt(core_of(P("+o>x", 0))) == "+o>"
        assert fmt(core_of(P("-o>x", 0))) == "+o>"

    def test_core_free_diagram_has_empty_core(self):
        assert core_of(P("-x^2ox", 1)) == P("o", 1)

    def test_idempotent(self, corefree_pool):
        for d in corefree_pool:
            c = core_of(d)
            assert core_of(c) == c
            assert atypicality(c) == 0

    def test_type2_core_keeps_zero_marker(self):
        assert fmt(core_of(P("x^2/>ox", 2))) == ">"


class TestStatistics:
    def test_atypicality_counts_all_crosses(self):
        assert atypicality(P("-x^2oxo", 1)) == 3
        assert atypicality(P("+o>", 0)) == 0
        assert atypicality(P("x^2oxooxxooooxo", 0)) == 6

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_tail_length_odd_series(self, m):
        stack = "x" if m == 1 else f"x^{m}"
        assert tail_length(P("-" + stack, 1)) == m
        assert tail_length(P("+" + stack, 1)) == m - 1

    def test_tail_length_even_series(self):
        assert tail_length(P("x^2x", 0)) == 2
        assert tail_length(P("x^2/>x", 2)) == 2

    def test_is_stable_examples(self):
        assert is_stable(P("-x^2>o<", 1))
        assert not is_stable(P(">x", 1))
        assert is_stable(P("x^2/>ox", 2))
        assert not is_stable(P("x/>", 1))       # zero core blocks the zero stack
        assert is_stable(P("x^2x><", 0))


class TestSigma:
    def test_flip(self):
        assert fmt(sigma(P("+ox", 0))) == "-ox"

    def test_unsigned_fixed(self):
        d = P("x^2", 0)
        assert sigma(d) == d

    def test_type2_fixed(self):
        d = P("x/>", 2)
        assert sigma(d) == d

    def test_involution(self, corefree_pool):
        for d in corefree_pool:
            assert sigma(sigma(d)) == d
            if d.t == 0:
                assert pari(sigma(d)) == pari(d)

    def test_tail_length_moves_only_with_an_odd_sign_flip(self, corefree_pool):
        for d in corefree_pool:
            delta = tail_length(sigma(d)) - tail_length(d)
            if d.t == 1 and d.sign is not None:
                assert delta == (1 if d.sign == "+" else -1)
            else:
                assert delta == 0


class TestPari:
    def test_single_cross(self):
        assert pari(P("ox", 1)) == -1
        assert pari(P("-x^2", 1)) == 1

    def test_type2_matches_its_type1_companion(self):
        # independent route: apply the explicit bijection, then grade
        from ospds.howl import tau
        for k in range(0, 5):
            for d in enumerate_corefree(2, k, 8):
                assert pari(d) == pari(tau(d))

    def test_zero_stack_contributes_nothing(self):
        assert pari(P("x^3", 0)) == 1


class TestEnumerate:
    def test_odd_series_one_cross(self):
        got = [fmt(d) for d in enumerate_corefree(1, 1, 2)]
        assert got == ["-x", "+x", "ox"]

    def test_no_crosses(self):
        # the signless empty diagram is the unique crossless core-free
        # diagram of the even series (sign pairs are reserved for lifts)
        assert enumerate_corefree(0, 0, 1) == [P("o", 0)]
        assert enumerate_corefree(1, 0, 1) == [P("o", 1)]
        assert enumerate_corefree(2, 0, 1) == [P(">", 2)]

    @pytest.mark.parametrize("t", [0, 1, 2])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_all_valid_and_unique(self, t, k):
        out = enumerate_corefree(t, k, 7)
        assert len(set(out)) == len(out)
        for d in out:
            assert validate(d) == []
            assert atypicality(d) == k
            assert d.is_core_free()
            assert d.width <= 7

    def test_width_bound(self):
        with pytest.raises(DomainError):
            enumerate_corefree(1, 3, 2)


@given(st.data())
def test_parse_format_round_trip_random(data, ):
    pool = []
    for t in (0, 1, 2):
        for k in range(0, 4):
            pool.extend(enumerate_corefree(t, k, 7))
    d = data.draw(st.sampled_from(pool))
    assert parse(fmt(d), d.t) == d


# each public check with the message it gives; no other test reaches these
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: WeightDiagram(3), "block type must be 0, 1 or 2, got 3", id="t=3"),
    pytest.param(lambda: WeightDiagram(True, 0, None, "x", "-"), "got True", id="t=True"),
    pytest.param(lambda: WeightDiagram(1.0, 0, None, "x"), "got 1.0", id="t=1.0"),
    pytest.param(lambda: WeightDiagram(1, -1), "zero_crosses must be an int >= 0",
                 id="stack=-1"),
    pytest.param(lambda: WeightDiagram(1, 1.5, None, "x", "+"), "got 1.5", id="stack=1.5"),
    pytest.param(lambda: WeightDiagram(1, 0, "x"), "zero_core must be '>' or '<'",
                 id="zero_core"),
    pytest.param(lambda: WeightDiagram(1, 1, None, "", "*"), "sign must be", id="sign"),
    pytest.param(lambda: WeightDiagram(1, 0, None, "xab"), "bad symbol 'a'", id="tail"),
    pytest.param(lambda: WeightDiagram(1, 0, None, ["x", "*"]), "bad symbol '\\*'",
                 id="list tail"),
    pytest.param(lambda: WeightDiagram(1, 0, None, None),
                 "tail_symbols must be a string of o, x, >, <, got None", id="tail None"),
    pytest.param(lambda: WeightDiagram(1, 0, None, [1, 2]),
                 "tail_symbols must be a string .*, got \\[1, 2\\]", id="int tail"),
    pytest.param(lambda: P("ox", 1).sym(0), "positive positions only", id="sym(0)"),
    pytest.param(lambda: build(1, 0, None, {0: CROSS}), "positions must be >= 1",
                 id="build at 0"),
    pytest.param(lambda: pari(P(">x", 1)), "core-free", id="pari of a core"),
    pytest.param(lambda: enumerate_corefree(3, 1, 4), "block type", id="enumerate t=3"),
    pytest.param(lambda: enumerate_corefree(0, -1, 4), "k must be non-negative, got -1",
                 id="enumerate k=-1"),
    pytest.param(lambda: enumerate_corefree(1, 1.0, 4), "must be ints, got 1.0 and 4",
                 id="enumerate k=1.0"),
    pytest.param(lambda: enumerate_corefree(1, 1, True), "must be ints, got 1 and True",
                 id="enumerate width=True"),
    pytest.param(lambda: enumerate_corefree(1, 1, 10_002), "cap MAX_WIDTH = 10000",
                 id="enumerate width=10002"),
    pytest.param(lambda: enumerate_corefree(1, 10_001, 10_001), "cap MAX_WIDTH = 10000",
                 id="enumerate k=10001"),
    pytest.param(lambda: superdimension(P("+ox", 0), 1.0, 1),
                 "m and n must be ints, got 1.0 and 1", id="superdimension m=1.0"),
])
def test_public_checks_refuse(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_enumerate_accepts_width_one_past_the_cap():
    # positions run below the width, so the refusal starts at MAX_WIDTH + 2
    assert enumerate_corefree(1, 0, MAX_WIDTH + 1) == [WeightDiagram(1)]


def test_tuple_and_list_tails_are_joined():
    assert WeightDiagram(1, 1, None, ("x", "o", "x"), "+") == P("+xxox", 1)
    assert WeightDiagram(0, 0, None, ["x", "o"], "-") == P("-ox", 0)
