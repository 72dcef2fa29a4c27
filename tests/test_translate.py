import pytest
from hypothesis import given, settings

import reference
from ospds.diagram import DomainError, enumerate_corefree, fmt, is_stable
from ospds.howl import UnhowlError, howl, unhowl
from ospds.translate import shrink, stabilize, trans_swap
from conftest import P, diagrams


class TestTransSwap:
    @pytest.mark.parametrize("src,t,a,want", [
        ("x>x", 0, 1, "xx>"),
        ("x>o", 0, 1, "xo>"),
        ("+o>x", 0, 1, "+ox>"),
        ("+o>o", 0, 1, "+oo>"),
        (">ox", 1, 0, "o>x"),
        (">xoox", 1, 0, "+x>oox"),
        ("x^2/>ox", 1, 0, "-x^2>x"),
        ("x^2/>xx", 1, 0, "+x^3>x"),
        ("x/<ox", 1, 0, "-x<x"),
        ("x/<xx", 1, 0, "+x^2<x"),
        ("<xo", 1, 0, "+x<"),
    ])
    def test_moves(self, src, t, a, want):
        assert fmt(trans_swap(P(src, t), a)) == want

    @pytest.mark.parametrize("src,t,a", [
        ("xx", 0, 1),        # no core symbol involved
        ("x><", 0, 1),       # two core symbols
        ("ox", 1, 0),        # nothing at the zero position to move
    ])
    def test_undefined_moves(self, src, t, a):
        with pytest.raises(DomainError):
            trans_swap(P(src, t), a)

    def test_zero_move_is_invertible(self):
        for src in ("-x^2>x", "+x^3>x", "o>x", "+x>oox", "-x<x"):
            d = P(src, 1)
            assert trans_swap(trans_swap(d, 0), 0) == d

    def test_offzero_move_is_invertible(self):
        for src, t in (("x>x", 0), ("+o>x", 0), (">x<x", 2), ("<ox", 1)):
            d = P(src, t)
            for a in range(1, d.width):
                try:
                    moved = trans_swap(d, a)
                except DomainError:
                    continue
                assert trans_swap(moved, a) == d


class TestStabilize:
    def test_stable_input_is_fixed(self):
        d = P("-x^2>o<", 1)
        assert stabilize(d) == (d, [])

    def test_simple_zero_case(self):
        st, moves = stabilize(P(">x", 1))
        assert fmt(st) == "+x>"
        assert moves == [0]

    def test_stabilizes_and_preserves_howl(self, small_cores):
        for t, cores in small_cores.items():
            for g in cores:
                for k in range(0, 3):
                    for h in enumerate_corefree(t, k, 5):
                        try:
                            f = unhowl(g, h)[0]
                        except UnhowlError:
                            continue
                        st, moves = stabilize(f)
                        assert is_stable(st), (fmt(f), fmt(st))
                        assert howl(st) == howl(f)
                        n_core = len(f.core_positions())
                        assert len(moves) <= n_core * (f.width + n_core + 2)

    def test_matches_the_reference_on_small_lifts(self, small_cores):
        for t, cores in small_cores.items():
            for g in cores:
                for k in range(0, 4):
                    for h in enumerate_corefree(t, k, 6):
                        try:
                            lifts = unhowl(g, h)
                        except UnhowlError:
                            continue
                        for f in lifts:
                            assert stabilize(f) == reference.stabilize(f), fmt(f)

    @settings(max_examples=300, deadline=None)
    @given(d=diagrams())
    def test_matches_the_reference_on_random_lifts(self, d):
        assert stabilize(d) == reference.stabilize(d)

    @pytest.mark.parametrize("text,t", [
        (">" * 30 + "x" * 15, 1), ("x^3/<" + "><" * 10 + "xox" * 5, 1),
        ("+o" + ">" * 20 + "xo" * 10, 0), (">" + "<>" * 10 + "x" * 12, 2),
    ])
    def test_matches_the_reference_on_long_runs(self, text, t):
        d = P(text, t)
        assert stabilize(d) == reference.stabilize(d)


class TestShrinkPhi:
    def test_shrink_example(self):
        assert fmt(shrink(P("xxxo", 0), 2)) == "xx"

    def test_shrink_undefined_under_a_cross(self):
        with pytest.raises(DomainError):
            shrink(P("xxxo", 0), 1)

    def test_shrink_reinsertion_round_trip(self):
        d = P("-x^2oxoox", 1)
        u = 2
        small = shrink(d, u)
        from ospds.diagram import CROSS, EMPTY
        widened = small.with_tail(small.tail_symbols[:u - 1] + CROSS + EMPTY
                                  + small.tail_symbols[u - 1:])
        assert widened == d
