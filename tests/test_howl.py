import pytest
from hypothesis import given, settings

from ospds.diagram import (DomainError, atypicality, core_of,
                           enumerate_corefree, fmt, is_stable, tail_length,
                           validate)
from ospds.howl import UnhowlError, _howl, howl, tau, tau_inv, unhowl
from conftest import P, diagrams


class TestHowl:
    @pytest.mark.parametrize("src,t,want", [
        ("<x<x", 1, "+xx"),
        ("+x^2o>x", 1, "+x^2ox"),
        ("-x^2o>x", 1, "-x^2ox"),
        ("x/>oo>x", 1, "-xox"),
        ("x/>xo>x", 1, "+x^2ox"),
        ("+o>>x", 0, "+ox"),
        ("-o>>x", 0, "-ox"),
        ("x^2>x", 0, "x^2x"),
        ("+o>o<", 0, "o"),
        ("-o>o<", 0, "o"),
        ("x^2/>oo>x", 2, "x^2/>oox"),
        (">x<x", 2, ">xx"),
        ("><", 2, ">"),
    ])
    def test_worked_examples(self, src, t, want):
        assert fmt(howl(P(src, t))) == want

    def test_result_is_core_free_same_atypicality(self, small_cores):
        for t, cores in small_cores.items():
            for g in cores:
                for k in range(0, 3):
                    for h in enumerate_corefree(t, k, 5):
                        try:
                            lifts = unhowl(g, h)
                        except UnhowlError:
                            continue
                        for f in lifts:
                            out = howl(f)
                            assert out.is_core_free()
                            assert atypicality(out) == atypicality(f)
                            assert tail_length(out) == tail_length(f)

    def test_tail_preserved(self, corefree_pool):
        for d in corefree_pool:
            assert tail_length(howl(d)) == tail_length(d)

    def test_stable_diagram_howls_by_erasure(self, small_cores):
        # for stable diagrams the compaction is plain core-symbol erasure
        for t, cores in small_cores.items():
            for g in cores:
                for k in range(0, 3):
                    for h in enumerate_corefree(t, k, 5):
                        try:
                            f = unhowl(g, h)[0]
                        except UnhowlError:
                            continue
                        if not is_stable(f):
                            continue
                        erased = {p: s for p, s in enumerate(f.tail_symbols, 1)
                                  if s == "x"}
                        from ospds.diagram import CROSS, build
                        skeleton = build(f.t, f.zero_crosses,
                                         f.zero_core if f.t == 2 else None,
                                         {p: CROSS for p in erased})
                        want = howl(f)
                        assert skeleton.zero_crosses == want.zero_crosses
                        assert skeleton.cross_positions() == want.cross_positions()

    def test_core_free_diagram_is_returned_as_it_is(self, corefree_pool):
        for d in corefree_pool:
            assert _howl(d) is d

    @settings(max_examples=300, deadline=None)
    @given(d=diagrams())
    def test_compaction_is_idempotent_on_random_diagrams(self, d):
        h = _howl(d)
        if d.is_core_free():
            assert h is d
        else:
            assert h.is_core_free() and validate(h) == []
            assert _howl(h) == h


class TestUnhowl:
    def test_inverts_the_worked_example(self):
        g = core_of(P("<x<x", 1))
        assert unhowl(g, P("+xx", 1)) == [P("<x<x", 1)]

    def test_empty_lift_takes_both_signs(self):
        got = unhowl(P("+o>", 0), P("o", 0))
        assert sorted(map(fmt, got)) == ["+o>", "-o>"]

    def test_empty_core_lifts_empty_once(self):
        assert unhowl(P("o", 0), P("o", 0)) == [P("o", 0)]

    def test_lt_only_core_lifts_empty_once(self):
        assert unhowl(P("o<", 0), P("o", 0)) == [P("o<", 0)]

    def test_round_trip(self, small_cores):
        doubles = 0
        for t, cores in small_cores.items():
            for g in cores:
                for k in range(0, 4):
                    for h in enumerate_corefree(t, k, 6):
                        try:
                            lifts = unhowl(g, h)
                        except UnhowlError:
                            continue
                        assert len(lifts) in (1, 2)
                        if len(lifts) == 2:
                            doubles += 1
                            assert t == 0 and not h.has_symbols
                        for f in lifts:
                            assert validate(f) == []
                            assert howl(f) == h
        assert doubles > 0

    @settings(max_examples=200, deadline=None)
    @given(f=diagrams())
    def test_round_trip_on_random_diagrams(self, f):
        h = howl(f)
        lifts = unhowl(core_of(f), h)
        assert f in lifts and len(lifts) in (1, 2)
        for g in lifts:
            assert validate(g) == [] and howl(g) == h

    def test_type_mismatch_rejected(self):
        with pytest.raises(UnhowlError):
            unhowl(P("o", 0), P("ox", 1))

    def test_crossed_first_argument_rejected(self):
        with pytest.raises(UnhowlError):
            unhowl(P("x", 0), P("o", 0))

    def test_geometric_impossibility(self):
        # a bare-stack diagram cannot enter a block whose zero position is '<'
        with pytest.raises(UnhowlError):
            unhowl(P("<", 0), P("x", 0))

    @pytest.mark.parametrize("core", ["<", "<o<"])
    def test_plus_signed_even_diagram_does_not_fit_a_zero_lt(self, core):
        # a '+' sign would move a cross of the empty zero stack onto the
        # first free slot; the refusal names both diagrams
        with pytest.raises(UnhowlError, match=f"'\\+ox' does not fit into core '{core}'"):
            unhowl(P(core, 0), P("+ox", 0))


class TestTau:
    @pytest.mark.parametrize("src,want", [
        ("x^2/>oox", "-x^2ox"),
        (">xoox", "+xoox"),
        (">oox", "oox"),
        (">", "o"),
        ("x/>x", "+x^2"),
    ])
    def test_worked_examples(self, src, want):
        assert fmt(tau(P(src, 2))) == want

    def test_bijection(self):
        for k in range(0, 5):
            for h in enumerate_corefree(2, k, 7):
                assert tau_inv(tau(h)) == h
                assert tail_length(tau(h)) == tail_length(h)
            for h in enumerate_corefree(1, k, 7):
                assert tau(tau_inv(h)) == h

    def test_wrong_type_rejected(self):
        with pytest.raises(DomainError):
            tau(P("ox", 1))
        with pytest.raises(DomainError):
            tau_inv(P(">x", 2))
