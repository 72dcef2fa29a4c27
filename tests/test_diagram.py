import pytest
from hypothesis import given, strategies as st

from ospds.diagram import (CROSS, GT, LT, DomainError, ParseError,
                           WeightDiagram, atypicality, build,
                           core_of, enumerate_corefree, fmt,
                           is_stable, pari, parse, sigma, tail_length,
                           validate)
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

    def test_type1_sign_iff_bare_stack(self):
        assert validate(parse("+ox", 1))
        assert validate(parse("x", 1))
        assert validate(P("x/<", 1)) == []


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
