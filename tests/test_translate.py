import pytest
from hypothesis import given, settings

import reference
from ospds.diagram import DomainError, enumerate_corefree, fmt, is_stable, validate
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

    def test_zero_move_round_trips_on_every_zero_cored_lift(self, small_cores,
                                                           corefree_pool):
        # the forward move folds position 1 into the zero stack, the
        # backward move unfolds it
        seen = 0
        for g in small_cores[1]:
            if g.zero_core is None:
                continue
            for h in corefree_pool:
                if h.t != 1:
                    continue
                try:
                    lifts = unhowl(g, h)
                except UnhowlError:
                    continue
                for d in lifts:
                    if d.sym(1) in "<>":
                        with pytest.raises(DomainError):
                            trans_swap(d, 0)
                        continue
                    moved = trans_swap(d, 0)
                    assert moved.zero_core is None and moved.sym(1) == d.zero_core
                    assert trans_swap(moved, 0) == d, fmt(d)
                    seen += 1
        assert seen > 100

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
                        n_core = len(reference.core_positions(f))
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
        widened = small._replace(tail_symbols=small.tail_symbols[:u - 1] + CROSS
                                 + EMPTY + small.tail_symbols[u - 1:])
        assert widened == d

    def test_every_result_is_valid(self, small_cores):
        # removing the last cross of a t=0 tail drops the sign it needed
        assert fmt(shrink(P("+oxoo<", 0), 1)) == "oo<"
        shrunk = 0
        for t, cores in small_cores.items():
            for g in cores:
                for k in range(8):
                    for h in enumerate_corefree(t, k, 7):
                        try:
                            lifts = unhowl(g, h)
                        except UnhowlError:
                            continue
                        for lam in lifts:
                            # every u with a cross at u and an empty at u + 1
                            for u in range(1, lam.width):
                                if lam.sym(u) + lam.sym(u + 1) == "xo":
                                    assert validate(shrink(lam, u)) == [], (fmt(lam), u)
                                    shrunk += 1
        assert shrunk > 10_000, shrunk


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: trans_swap(P(">x", 1), -1), "positions are non-negative",
                 id="swap at -1"),
    pytest.param(lambda: trans_swap(P("x/>x", 2), 0), "the zero move exists for t=1 only",
                 id="zero move at t=2"),
    pytest.param(lambda: trans_swap(P("+o>x", 0), 0), "the zero move exists for t=1 only",
                 id="zero move at t=0"),
    pytest.param(lambda: shrink(P("-x^2oxoox", 1), 0), "shrink needs u >= 1", id="shrink at 0"),
    pytest.param(lambda: trans_swap(P(">x", 1), 1.0), "must be an int, got 1.0",
                 id="swap at 1.0"),
    pytest.param(lambda: shrink(P("-x^2oxoox", 1), 1.0), "needs an int u, got 1.0",
                 id="shrink at 1.0"),
])
def test_public_checks_refuse(call, message):
    with pytest.raises(DomainError, match=message):
        call()
