import time

import pytest
from hypothesis import given, settings

import reference
from ospds.arcs import (Arc, _sweep, arcs_json, build_arcs, es_dotted,
                        free_left, maximal_arcs, remove_arc, render_ascii,
                        render_dotted)
from ospds.diagram import (CROSS, EMPTY, DomainError, WeightDiagram,
                           atypicality, enumerate_corefree, fmt)
from ospds.howl import howl
from conftest import P, diagrams


def arcset(diagram):
    return {(a.support, a.ends) for a in diagram.arcs}


def below(x, y):
    """Brute-force reference for "x lies below y": a double-ended arc spans
    everything from 0 to its reach, a single-ended one its own interval."""
    if len(y.ends) == 2:
        if len(x.ends) == 2:
            return x.reach < y.reach
        return x.support < y.reach
    if len(x.ends) == 2:
        return False
    return y.support < x.support < y.reach


def assert_well_formed(A):
    """What the sweep guarantees of every arc it builds, and their order."""
    for a in A.arcs:
        assert len(a.ends) in (1, 2) and list(a.ends) == sorted(set(a.ends)), a
        assert a.support < a.ends[0], a
        assert a.stack_index == 0 or a.support == 0, a
    assert A.arcs == tuple(sorted(A.arcs))


def reference_maximal(A):
    return [a for a in A.arcs if not any(below(a, b) for b in A.arcs if b is not a)]


def free_positions(A):
    """Free positions counted directly, up to one past the widest reach."""
    h = A.base
    ends = {e for a in A.arcs for e in a.ends}
    reach = max((a.reach for a in A.arcs), default=0)
    out = [0] if h.zero_crosses == 0 and h.zero_core is None else []
    out.extend(p for p in range(1, reach + 2) if h.sym(p) == EMPTY and p not in ends)
    return out


# wide shapes: side by side, a zero stack, nests of five, a t=2 stack
# followed by single-ended roots
WIDE = [("+" + "ox" * 100, 0), ("-x^800", 1), ("o" + "xxxxxooooo" * 20, 1),
        ("x^30/>" + "o" * 61 + "xoo" * 10, 2)]
NEST = "o" + "x" * 4999 + "o" * 4999  # 4,999 arcs, each inside the last
# zero stacks over a 4-arc tail: the top zero-stack arc ends past the text
# the sweep reads, so the roots-only sweep reads none of its ends
STACKS = [("-x^800oxoxoxox", 1), ("+x^800xoxoooxox", 1), ("x^100/>oxoxoxox", 2),
          ("x^50oxxooxox", 0)]


class TestBuildArcs:
    def test_large_example(self):
        A = build_arcs(P("x^2oxooxxooooxo", 0))
        assert arcset(A) == {(0, (1,)), (2, (3,)), (5, (8,)), (6, (7,)),
                             (11, (12,)), (0, (4, 9))}

    def test_one_cross_families(self):
        assert arcset(build_arcs(P("+xoox", 1))) == {(0, (1,)), (3, (4,))}
        assert arcset(build_arcs(P("-x^2xo", 1))) == {(0, (3,)), (1, (2,)),
                                                      (0, (4, 5))}
        # a type-2 diagram arcs its off-zero crosses only
        assert arcset(build_arcs(P(">xoox", 2))) == {(1, (2,)), (4, (5,))}
        # every zero cross of a type-2 diagram takes two ends
        assert arcset(build_arcs(P("x/>", 2))) == {(0, (1, 2))}

    def test_gap_family(self):
        assert arcset(build_arcs(P("-x^2oxo", 1))) == {(0, (1,)), (2, (3,)),
                                                       (0, (4, 5))}
        assert arcset(build_arcs(P("-x^2ooxo", 1))) == {(0, (1,)), (3, (4,)),
                                                        (0, (2, 5))}
        assert arcset(build_arcs(P("-x^2oooxo", 1))) == {(0, (1,)), (4, (5,)),
                                                         (0, (2, 3))}

    def test_core_symbols_rejected(self):
        with pytest.raises(DomainError):
            build_arcs(P(">x", 1))

    def test_invariants(self, corefree_pool):
        assert_well_formed(build_arcs(P(NEST, 1)))
        for h in corefree_pool + [P(text, t) for text, t in WIDE]:
            A = build_arcs(h)
            assert_well_formed(A)
            assert len(A.arcs) == atypicality(h)
            ends = [e for a in A.arcs for e in a.ends]
            assert len(set(ends)) == len(ends)
            if A.arcs:
                assert maximal_arcs(A)
            # no free position strictly under any arc's span
            free = set(free_positions(A))
            for a in A.arcs:
                for p in range(a.support + 1, a.reach):
                    assert p not in free, (fmt(h), a, p)

    @settings(max_examples=200, deadline=None)
    @given(lam=diagrams())
    def test_invariants_on_random_diagrams(self, lam):
        assert_well_formed(build_arcs(howl(lam)))


class TestOrder:
    def test_double_arc_dominates(self):
        A = build_arcs(P("x^2oxooxxooooxo", 0))
        big = Arc(0, 1, (4, 9))
        assert below(Arc(2, 0, (3,)), big)
        assert not below(Arc(11, 0, (12,)), big)
        assert big in maximal_arcs(A) and Arc(2, 0, (3,)) not in maximal_arcs(A)

    def test_nesting(self):
        A = build_arcs(P("x^2oxooxxooooxo", 0))
        assert below(Arc(6, 0, (7,)), Arc(5, 0, (8,)))
        assert Arc(6, 0, (7,)) not in maximal_arcs(A)

    def test_maximal_examples(self):
        A = build_arcs(P("x^2oxooxxooooxo", 0))
        assert {(a.support, a.ends) for a in maximal_arcs(A)} == \
            {(11, (12,)), (0, (4, 9))}
        B = build_arcs(P("+xoox", 1))
        assert {(a.support, a.ends) for a in maximal_arcs(B)} == \
            {(0, (1,)), (3, (4,))}
        single = build_arcs(P("ox", 1))
        assert maximal_arcs(single) == list(single.arcs)

    def test_roots_match_the_reference(self, corefree_pool):
        for h in corefree_pool + [P(text, t) for text, t in WIDE]:
            _roots_match_the_reference(h)

    @settings(max_examples=200, deadline=None)
    @given(lam=diagrams())
    def test_roots_match_the_reference_on_random_diagrams(self, lam):
        _roots_match_the_reference(howl(lam))

    def test_roots_only_sweep(self, corefree_pool):
        for h in (corefree_pool + [P(text, t) for text, t in WIDE + STACKS]
                  + [P(NEST, 1)]):
            _roots_only_sweep_matches(h)

    @pytest.mark.parametrize("text,t", STACKS)
    def test_top_zero_stack_arc_past_the_text(self, text, t):
        h = P(text, t)
        A = build_arcs(h)
        top = max(a for a in A.arcs if a.support == 0)
        assert len(top.ends) == 2 and top.ends[0] > h.width, top
        # the roots-only sweep names it by support 0, first, with e = 0
        assert next(iter(_sweep(h).items())) == (0, 0)
        assert maximal_arcs(A)[0] == top and free_left(A, top) == 0
        # the double-ended arcs take the first free positions that the
        # single-ended arcs leave, two at a time, the top one the last two
        singles = {a.ends[0] for a in A.arcs if len(a.ends) == 1}
        free = [p for p in range(1, top.reach + 1)
                if h.sym(p) == EMPTY and p not in singles]
        doubles = [a for a in A.arcs if len(a.ends) == 2]
        assert [e for a in doubles for e in a.ends] == free

    @settings(max_examples=200, deadline=None)
    @given(lam=diagrams())
    def test_roots_only_sweep_on_random_diagrams(self, lam):
        _roots_only_sweep_matches(howl(lam))

    def test_root_e_has_the_parity_of_its_support(self, corefree_pool):
        for h in (corefree_pool + [P(text, t) for text, t in WIDE + STACKS]
                  + [P(NEST, 1)]):
            _root_e_parity_holds(h)

    @settings(max_examples=200, deadline=None)
    @given(lam=diagrams())
    def test_root_e_has_the_parity_of_its_support_on_random_diagrams(self, lam):
        _root_e_parity_holds(howl(lam))

    def test_maximality_matches_rebuild_characterisation(self, corefree_pool):
        # independent check: an arc is maximal exactly when deleting its cross
        # re-arcs to the remaining arcs unchanged
        for h in corefree_pool:
            if atypicality(h) == 0:
                continue
            A = build_arcs(h)
            maxset = {(a.support, a.ends) for a in maximal_arcs(A)}
            for arc in A.arcs:
                if arc.support == 0:
                    base = WeightDiagram(h.t, h.zero_crosses - 1, h.zero_core,
                                         h.tail_symbols,
                                         h.sign if h.t == 1 and h.zero_crosses > 1
                                         else None)
                else:
                    p = arc.support
                    base = h._replace(
                        tail_symbols=h.tail_symbols[:p - 1] + EMPTY + h.tail_symbols[p:])
                if base.t == 0 and base.zero_crosses == 0 and base.sign is None \
                        and base.count(CROSS) >= 1:
                    base = base.with_sign("+")
                rebuilt = arcset(build_arcs(base))
                rest = arcset(A) - {(arc.support, arc.ends)}
                assert (rebuilt == rest) == ((arc.support, arc.ends) in maxset)


def _roots_match_the_reference(h):
    A = build_arcs(h)
    assert maximal_arcs(A) == reference_maximal(A), fmt(h)
    free = free_positions(A)
    for a in maximal_arcs(A):
        assert free_left(A, a) == sum(1 for p in free if p < a.support), (fmt(h), a)


def _root_e_parity_holds(h):
    """The rank-1 reduction reads a root's grading off its ``e`` alone: ``e``
    has the parity of the support, less 1 for t=2, and is 0 on support 0."""
    for p, e in _sweep(h).items():
        if p:
            assert e & 1 == (p - (h.t == 2)) & 1, (fmt(h), p, e)
        else:
            assert e == 0, (fmt(h), e)


def _roots_only_sweep_matches(h):
    """The sweep without a list gives the roots of the whole forest, with
    the same ``e``, in the same order, as the arcs keyed in ``roots``, and
    those match the reference."""
    A = build_arcs(h)
    assert list(_sweep(h).items()) == [(a.support, e) for a, e in A.roots.items()], fmt(h)
    assert all(type(a) is Arc and a in A.arcs for a in A.roots), fmt(h)
    _roots_match_the_reference(h)


def _removals_match_the_reference(d):
    """Removing each root erases its cross as the reference erasure does,
    sign included."""
    A = build_arcs(howl(d))
    for a in maximal_arcs(A):
        assert remove_arc(A, a) == reference._erase(A.base, [a.support]), (fmt(d), a)


class TestRemoveArc:
    def top(self, A):
        (arc,) = [a for a in maximal_arcs(A) if a.support == 0]
        return arc

    def test_matches_the_reference_erasure(self, corefree_pool):
        for h in corefree_pool:
            _removals_match_the_reference(h)

    @settings(max_examples=300, deadline=None)
    @given(lam=diagrams())
    def test_matches_the_reference_erasure_on_random_diagrams(self, lam):
        _removals_match_the_reference(lam)

    def test_zero_stack_keeps_sign_while_non_empty(self):
        A = build_arcs(P("+x^3x", 1))
        assert fmt(remove_arc(A, self.top(A))) == "+x^2x"

    def test_zero_stack_drops_sign_when_emptied(self):
        A = build_arcs(P("+xoox", 1))
        assert fmt(remove_arc(A, self.top(A))) == "ooox"

    def test_even_series_result_is_unsigned(self):
        # a bare zero position left unsigned stands for both signings
        A = build_arcs(P("+oxox", 0))
        (arc,) = [a for a in maximal_arcs(A) if a.support == 3]
        assert fmt(remove_arc(A, arc)) == "ox"

    def test_offzero_removal(self):
        A = build_arcs(P("+xoox", 1))
        (arc,) = [a for a in maximal_arcs(A) if a.support == 3]
        assert fmt(remove_arc(A, arc)) == "+x"

    def test_non_maximal_rejected(self):
        A = build_arcs(P("x^2oxooxxooooxo", 0))
        (inner,) = [a for a in A.arcs if a.support == 2]
        with pytest.raises(DomainError):
            remove_arc(A, inner)

    @pytest.mark.parametrize("arc", [Arc(5, 0, (3,)), Arc(6, 0, (7,))],
                             ids=["malformed", "not_a_root"])
    def test_arc_outside_the_roots_rejected(self, arc):
        A = build_arcs(P("x^2oxooxxooooxo", 0))
        with pytest.raises(DomainError):
            remove_arc(A, arc)
        with pytest.raises(DomainError):
            free_left(A, arc)


class TestFreeLeft:
    @pytest.mark.parametrize("src,t,support,want", [
        ("+xoox", 1, 3, 1),
        ("+xoox", 1, 0, 0),
        ("-x^2ooooxo", 1, 5, 1),
        (">xoox", 2, 1, 0),
        (">xoox", 2, 4, 1),
        ("+oxox", 0, 1, 1),
        ("+oxox", 0, 3, 1),
    ])
    def test_values(self, src, t, support, want):
        A = build_arcs(P(src, t))
        (arc,) = [a for a in maximal_arcs(A) if a.support == support]
        assert free_left(A, arc) == want


class TestRender:
    def test_empty_diagram(self):
        out = render_ascii(build_arcs(P("o", 1)))
        assert out.splitlines()[-1].startswith("0")

    def test_single_arc(self):
        out = render_ascii(build_arcs(P("x", 0)))
        assert ".--." in out

    def test_nesting_order(self):
        out = render_ascii(build_arcs(P("x^2oxooxxooooxo", 0)))
        lines = out.splitlines()
        double = next(i for i, ln in enumerate(lines) if "v" in ln)
        inner = next(i for i, ln in enumerate(lines) if ln.strip().startswith(".--."))
        assert double < inner

    def test_stacked_arcs_take_one_row_each(self):
        # the zero arc and both double-ended arcs start at 0 and still nest
        assert render_ascii(build_arcs(P("-x^3x", 1))).splitlines() == [
            "diagram: -x^3x",
            ".-----------------v--.",
            ".-----------v--.",
            ".--------.",
            "   .--.",
            "x3 x  o  o  o  o  o  o",
            "0  1  2  3  4  5  6  7",
        ]

    def test_deterministic(self):
        a = render_ascii(build_arcs(P("-x^2xo", 1)))
        b = render_ascii(build_arcs(P("-x^2xo", 1)))
        assert a == b

    def test_json_shape(self):
        data = arcs_json(build_arcs(P("+xoox", 1)))
        assert data["diagram"] == "+xoox"
        assert {tuple(a["ends"]) for a in data["maximal"]} == {(1,), (4,)}


class TestDotted:
    def test_worked_example(self):
        da = es_dotted(P("+x^3x", 1), "B")
        assert fmt(da.base) == "+xxooxox"
        assert da.base.zero_crosses == 1
        assert reference.cross_positions(da.base) == (1, 4, 6)
        assert da.arcs == ((0, 3), (1, 2), (4, 5), (6, 7))
        assert sorted(da.dotted) == [4, 6]

    def test_reduction_drops_the_rightmost_dotted_cup(self):
        da = es_dotted(P("+x^2x", 1), "B")
        assert da.arcs == ((0, 3), (1, 2), (4, 5))
        assert sorted(da.dotted) == [4]

    def test_tail_free_has_no_dots(self):
        da = es_dotted(P("ox", 1), "B")
        assert da.dotted == frozenset()
        assert da.arcs == ((1, 2),)

    def test_even_series_is_treated_as_signed_odd(self):
        da = es_dotted(P("x^2x", 0), "D")
        want = es_dotted(P("+x^2x", 1), "B")
        assert da.arcs == want.arcs and da.dotted == want.dotted

    def test_render_marks_dots(self):
        out = render_dotted(es_dotted(P("+x^3x", 1), "B"))
        assert out.splitlines() == [
            "diagram: +xxooxox",
            ".--------.",
            "   .--.     .*-.  .*-.",
            "x  x  o  o  x  o  x  o",
            "0  1  2  3  4  5  6  7",
        ]

    @pytest.mark.parametrize("series", ["B", "D"])
    def test_matches_the_reference_matcher(self, series):
        pool = [d for t in (0, 1, 2) for k in range(5) for d in enumerate_corefree(t, k, 9)]
        pool += [P(text, t) for text, t in WIDE]
        for d in pool:
            _dotted_matches_the_reference(d, series)

    def test_deep_nest_matches_the_reference_matcher(self):
        # without a zero stack both series read the same
        _dotted_matches_the_reference(P(NEST, 1), "B")

    @settings(max_examples=200, deadline=None)
    @given(d=diagrams())
    def test_matches_the_reference_matcher_on_random_diagrams(self, d):
        for series in ("B", "D"):
            _dotted_matches_the_reference(d, series)

    def test_deep_nest_is_fast(self):
        # the reference matcher, quadratic in the nesting depth, takes 1.7 s
        d = P(NEST, 1)
        t0 = time.perf_counter()
        da = es_dotted(d, "B")
        assert time.perf_counter() - t0 < 0.5
        assert len(da.arcs) == 4999 and not da.dotted


def _dotted_matches_the_reference(d, series):
    got, want = es_dotted(d, series), reference.es_dotted(d, series)
    assert (got.base, got.arcs, got.dotted) == (want.base, want.arcs, want.dotted), \
        (fmt(d), series)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: es_dotted(P("+x^3x", 1), "C"), "series must be 'B' or 'D'",
                 id="series C"),
])
def test_public_checks_refuse(call, message):
    with pytest.raises(DomainError, match=message):
        call()
