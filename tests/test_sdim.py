import collections
import itertools
import math
import random
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from ospds.diagram import (GT, LT, DomainError, WeightDiagram, atypicality,
                           enumerate_corefree, fmt, validate)
from ospds import ds, sdim
from ospds.howl import UnhowlError, unhowl
from ospds.sdim import (_core_dim, _dim_from_shifted, superdimension,
                        weyl_dim_so)
from ospds.weightmap import diagram_to_weight
from conftest import P, diagrams
from reference import dim_from_shifted, dsr


class TestWeylDim:
    def test_trivial_weight(self):
        for N in (0, 1, 2, 3, 4, 5, 7, 8):
            assert weyl_dim_so(N, [0] * (N // 2)) == 1

    def test_vector_representations(self):
        assert weyl_dim_so(3, [1]) == 3
        assert weyl_dim_so(4, [1, 0]) == 4
        assert weyl_dim_so(5, [1, 0]) == 5
        assert weyl_dim_so(7, [1, 0, 0]) == 7

    def test_spinor(self):
        assert weyl_dim_so(3, [Q(1, 2)]) == 2
        assert weyl_dim_so(5, [Q(1, 2), Q(1, 2)]) == 4

    def test_adjoints(self):
        assert weyl_dim_so(5, [1, 1]) == 10
        assert weyl_dim_so(7, [1, 1, 0]) == 21

    def test_rejects_non_dominant(self):
        with pytest.raises(DomainError, match="non-increasing"):
            weyl_dim_so(5, [0, 1])
        with pytest.raises(DomainError):
            weyl_dim_so(4, [1])

    @pytest.mark.parametrize("N, hw, message", [
        pytest.param(-1, [], "N must be non-negative", id="N<0"),
        pytest.param(5, [1, -1], "odd so weights are non-negative", id="negative odd"),
        pytest.param(6, [2, 1, -2], r"hw\[r-2\] >= \|hw\[r-1\]\|", id="even rule"),
        pytest.param(3, [Q(1, 3)], "integers or half-integers", id="one third"),
        pytest.param(3.0, [1], "N must be an int, got 3.0", id="N=3.0"),
        pytest.param(True, [], "N must be an int, got True", id="N=True"),
        pytest.param(5, [float("inf"), 1], "must be a rational number, got inf", id="inf"),
        pytest.param(3, ["a"], "must be a rational number, got 'a'", id="coordinate 'a'"),
        pytest.param(3, [None], "must be a rational number, got None", id="coordinate None"),
        pytest.param(3, [float("nan")], "must be a rational number, got nan", id="NaN"),
        pytest.param(3, 5, "weight coordinates must be a list, got 5", id="hw=5"),
        pytest.param(3, None, "weight coordinates must be a list, got None", id="hw=None"),
    ])
    def test_public_checks_refuse(self, N, hw, message):
        with pytest.raises(DomainError, match=message):
            weyl_dim_so(N, hw)

    def test_rejects_mixed_coordinates(self):
        # a mix of integers and half-integers is no so_N weight; 32 dominant
        # ones in this range have a Weyl quotient that happens to divide
        divides = 0
        for N in range(4, 8):
            rho = range(2 * (N // 2) - 2 + N % 2, -1, -2)
            for xs in itertools.combinations_with_replacement(range(12, -13, -1), N // 2):
                dominant = xs[-1] >= 0 if N % 2 else xs[-2] >= abs(xs[-1])
                if not dominant or len({x % 2 for x in xs}) < 2:
                    continue
                try:
                    _dim_from_shifted(N, [x + y for x, y in zip(xs, rho)])
                    divides += 1
                except DomainError:
                    pass
                with pytest.raises(DomainError, match="all integers or all half-integers"):
                    weyl_dim_so(N, [Q(x, 2) for x in xs])
        assert divides == 32

    # doubled rho-shifted weights: sorted draws of one parity are mostly
    # dominant, the others singular, out of order or of mixed parity, on
    # which both routes raise
    @settings(max_examples=400, deadline=None)
    @given(N=st.integers(0, 24), data=st.data())
    def test_integer_product_matches_the_fraction_product(self, N, data):
        ys = data.draw(st.lists(st.integers(-6, 80), min_size=N // 2,
                                max_size=N // 2))
        if ys and data.draw(st.booleans()):
            ys = sorted((y - (y - ys[0]) % 2 for y in ys), reverse=True)
        try:
            want = dim_from_shifted(N, [Q(y, 2) for y in ys])
        except DomainError:
            with pytest.raises(DomainError):
                _dim_from_shifted(N, ys)
        else:
            assert _dim_from_shifted(N, ys) == want

    def test_pure_cores_have_closed_forms(self):
        # a core of r ">" and no cross is the r-th exterior power of the
        # vector module: for so_2r+1 all of it, for so_2r one of its halves
        for r in [*range(2, 61), 400]:
            half, whole = math.comb(2 * r, r) // 2, math.comb(2 * r + 1, r)
            assert superdimension(P("+o" + ">" * r, 0), r, 0) == half
            assert superdimension(P("o" + ">" * r, 1), r, 0) == whole
            assert weyl_dim_so(2 * r + 1, [1] * r) == whole
            assert weyl_dim_so(2 * r, [1] * r) == half
            assert weyl_dim_so(2 * r, [1] * (r - 1) + [-1]) == half

    def test_matches_the_fraction_product_above_N_24(self):
        # dominant doubled shifted weights: distinct, decreasing and positive
        # of one parity, the last one negated for some even N
        rng = random.Random(26)
        for _ in range(40):
            N = rng.randint(25, 81)
            r, odd = N // 2, rng.randint(0, 1)
            ys = sorted((2 * y - odd for y in rng.sample(range(1, 3 * r), r)), reverse=True)
            if N % 2 == 0 and rng.random() < 0.5:
                ys[-1] = -ys[-1]
            assert _dim_from_shifted(N, ys) == dim_from_shifted(N, [Q(y, 2) for y in ys])


def _mn(lam):
    k = atypicality(lam)
    m = lam.count(GT) + k - (1 if lam.t == 2 else 0)
    return m, lam.count(LT) + k


class TestSuperdimension:
    def test_trivial_modules(self):
        assert superdimension(P("x", 0), 1, 1) == 1
        assert superdimension(P("-x^3", 1), 3, 3) == 1
        assert superdimension(P("x/>", 2), 1, 1) == 1

    def test_typical_with_odd_part_vanishes(self):
        assert superdimension(P("+o><", 0), 1, 1) == 0
        assert superdimension(P("><", 1), 1, 1) == 0

    # the full reduction has up to 2^m states: m = 20 would not finish
    @pytest.mark.parametrize("m", range(1, 21))
    def test_spread_cross_families(self, m):
        expected = 2 ** (m - 1) * math.factorial(m)
        assert abs(superdimension(P("+" + "ox" * m, 0), m, m)) == expected
        assert abs(superdimension(P("ox" * m, 1), m, m)) == 2 * expected
        assert abs(superdimension(P(">" + "ox" * m, 2), m, m)) == 2 * expected
        tail1 = "-x" + "oox" * (m - 1)
        assert abs(superdimension(P(tail1, 1), m, m)) == expected
        tail2 = ("x/>o" + "oox" * (m - 1)) if m > 1 else "x/>"
        assert abs(superdimension(P(tail2, 2), m, m)) == expected

    def test_conserved_through_one_step(self, corefree_pool, small_cores):
        # at every rank r from 0 to k, on the core-free pool (width 8, k <= 4)
        # and on lifts into the small cores
        checks = 0
        for lam in corefree_pool + _lifts(small_cores):
            m, n = _mn(lam)
            whole = superdimension(lam, m, n)
            for r in range(atypicality(lam) + 1):
                total = sum((g.d0 - g.d1) * superdimension(nu, m - r, n - r)
                            for nu, g in ds.dsr(lam, r).components.items())
                assert total == whole, (str(lam), r)
                checks += 1
        assert checks > 5000

    def test_sign_invariance(self):
        for k in (1, 2, 3):
            for lam in enumerate_corefree(0, k, 6):
                from ospds.diagram import sigma
                assert superdimension(lam, k, k) == \
                    superdimension(sigma(lam), k, k)

    def test_count_mismatch(self):
        # each case passes at its own (m, n) and is refused, with the exact
        # message, at each neighbour, by both callers of the one count check
        for text, t, m, n in _COUNT_CASES:
            lam = P(text, t)
            superdimension(lam, m, n)
            diagram_to_weight(lam, m, n)
            for bad in ((m + 1, n), (m - 1, n), (m, n + 1), (m, n - 1), (m + 1, n + 1)):
                want = (f"count mismatch: {fmt(lam)!r} does not describe a weight "
                        f"with m={bad[0]}, n={bad[1]}")
                for call in (superdimension, diagram_to_weight):
                    with pytest.raises(DomainError) as err:
                        call(lam, *bad)
                    assert str(err.value) == want, (text, call.__name__)

    def test_no_weyl_product_without_a_gt_in_the_tail(self, monkeypatch, corefree_pool,
                                                      small_cores):
        # the only core symbol left is the zero '>', if any: the product is
        # so_0 to so_3 at rho, which is 1, and superdimension takes none
        calls, read, seen = [], 0, set()
        real = sdim._dim_from_shifted
        monkeypatch.setattr(sdim, "_dim_from_shifted",
                            lambda N, a: calls.append(N) or real(N, a))
        for lam in corefree_pool + _lifts(small_cores):
            if GT in lam.tail_symbols:
                continue
            odd, positions = lam.t == 1, [0] if lam.zero_core == GT else []
            N = 2 * len(positions) + odd
            assert _dim_from_shifted(N, [2 * p + odd for p in positions]) == 1, str(lam)
            seen.add(N)
            m, n = _mn(lam)
            superdimension(lam, m, n)
            read += n == atypicality(lam)  # the calls that reach the product
        assert not calls and read > 900 and seen == {0, 1, 2, 3}

    def test_cored_example(self):
        # one cross behind a single core marker: the two signed components
        # each contribute a one-dimensional so_2 module
        assert superdimension(P("+o>ox", 0), 2, 1) == 2

    def test_one_weyl_product_per_call(self, monkeypatch):
        # every component is lam with its crosses erased: the two signed
        # components of +o>ox share one Weyl product
        calls = []
        real = sdim._dim_from_shifted
        monkeypatch.setattr(sdim, "_dim_from_shifted",
                            lambda N, a: calls.append(N) or real(N, a))
        assert superdimension(P("+o>ox", 0), 2, 1) == 2
        assert calls == [2]

    def test_reads_the_whole_forest_without_building_components(self, corefree_pool,
                                                                small_cores):
        # rank k has one order filter, the whole forest: no component stream,
        # no Decomposition and no component diagram, only a cored lam's
        # compaction, and no arc rows or filter search either
        watched = {ds._dsr.__code__: "_dsr", ds._components.__code__: "_components",
                   WeightDiagram._trusted.__func__.__code__: "_trusted",
                   ds._filters.__code__: "_filters", ds._sweep.__code__: "_sweep"}
        calls = collections.Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                calls[watched[frame.f_code]] += 1

        read = 0
        for lam in corefree_pool + _lifts(small_cores):
            k = atypicality(lam)
            if not k:
                continue
            m, n = _mn(lam)
            calls.clear()
            before = sys.getprofile()
            sys.setprofile(profile)
            try:
                superdimension(lam, m, n)
            finally:
                sys.setprofile(before)
            assert not calls["_dsr"] and not calls["_components"], (str(lam), calls)
            assert not calls["_filters"] and not calls["_sweep"], (str(lam), calls)
            assert calls["_trusted"] <= (not lam.is_core_free()), (str(lam), calls)
            read += n == k
        assert read > 1000


# (diagram, t, m, n) for the count check, at t = 0, 1 and 2: zero '>' and
# '<' cores, '>' and '<' in the tail, crosses in the stack and in the tail
_COUNT_CASES = [("x", 0, 1, 1), ("+o>ox<", 0, 2, 2), ("<o<", 0, 0, 2), ("o", 0, 0, 0),
                ("-x^2o>", 1, 3, 2), (">ox<", 1, 2, 2), ("<x>", 1, 2, 2), ("o", 1, 0, 0),
                (">", 2, 0, 0), (">x<>", 2, 2, 2), ("x^2/>o<x", 2, 3, 4)]


def _lifts(small_cores):
    """The lifts of the core-free diagrams of width 5 and k = 1..3 into the
    small cores."""
    lifts = []
    for t, cores in small_cores.items():
        for g, k in itertools.product(cores, range(1, 4)):
            for h in enumerate_corefree(t, k, 5):
                try:
                    lifts += unhowl(g, h)
                except UnhowlError:
                    pass
    return lifts


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: at k = m < n superdimension "
                   "returns 0, but the residue is an sp or osp(1|2) module")
def test_the_trivial_osp_1_2_module_has_superdimension_one():
    assert superdimension(P("<", 1), 0, 1) == 1


# -- the arc-forest route against the full reduction -------------------------------

def _by_full_reduction(lam):
    """Superdimension as the signed count of the components of the rank-k
    reduction times their dimensions."""
    if lam.count(LT):  # n > k
        return 0
    dec = dsr(lam, atypicality(lam))
    return sum((g.d0 - g.d1) * _core_dim(nu) for nu, g in dec.components.items())


def _agrees(lam):
    return superdimension(lam, *_mn(lam)) == _by_full_reduction(lam)


@pytest.mark.parametrize("t", [0, 1, 2])
def test_matches_full_reduction_on_the_pool(t):
    pool = [lam for k in range(5) for lam in enumerate_corefree(t, k, 10)]
    pool += enumerate_corefree(t, 5, 9)
    bad = [str(lam) for lam in pool if not _agrees(lam)]
    assert not bad, bad[:10]


# cores made of '>' only: any '<' makes n > k and the superdimension 0
_GT_CORES = {0: ["+o>", "+oo>>", "+o>o>"], 1: [">", "o>", ">o>", "oo>>"],
             2: [">>", ">o>", ">o>>"]}


@pytest.mark.parametrize("t", [0, 1, 2])
def test_matches_full_reduction_on_cored_lifts(t):
    lifts = [nu for text in _GT_CORES[t] for k in range(1, 5)
             for h in enumerate_corefree(t, k, 7) for nu in unhowl(P(text, t), h)]
    assert len(lifts) > 300
    bad = [str(lam) for lam in lifts if not _agrees(lam)]
    assert not bad, bad[:10]


@settings(max_examples=200, deadline=None)
@given(lam=diagrams())
def test_matches_full_reduction_on_random_diagrams(lam):
    assert _agrees(lam)


def _seeded_forest(rng, t, k, stack):
    """A core-free diagram of type ``t`` with ``k`` crosses, ``stack`` of them
    at zero and the rest in runs of up to 8, each after a gap of up to 40 and
    closed by up to as many empties, so that later runs may nest under it."""
    tail, left = "", k - stack
    while left:
        s = rng.randint(1, min(left, 8))
        gap = rng.choice([rng.randint(0, 3), rng.randint(10, 40)])
        tail += "o" * gap + "x" * s + "o" * rng.randint(0, s)
        left -= s
    body = WeightDiagram(t, stack, GT if t == 2 else None, tail)
    return rng.choice([d for d in map(body.with_sign, (None, "+", "-")) if not validate(d)])


def _states(h, cap):
    """The number of states of the full reduction of ``h`` at ranks 1..k,
    counted up to ``cap + 1``: one per order filter."""
    filters = itertools.chain.from_iterable(ds._filters(h, r)
                                            for r in range(1, atypicality(h) + 1))
    return sum(1 for _ in itertools.islice(filters, cap + 1))


@pytest.mark.parametrize("t", [0, 1, 2])
def test_matches_full_reduction_on_wide_high_rank_forests(t):
    # k = 9..24 and widths up to 120, beyond the pools and the random
    # diagrams: zero stacks of 1..k (the t=0 interleavings after the lowest
    # zero cross, the t=2 double-ended arcs) and lifts into the '>' cores.
    # The full reduction visits every order filter, so forests with more
    # than 400 are skipped to keep it fast.
    rng = random.Random(33 + t)
    lams, stacks = [], set()
    for k in range(9, 25):
        for stack in (0, 0, rng.randint(1, k), rng.randint(1, k), k):
            h = _seeded_forest(rng, t, k, stack)
            if h.width > 120 or _states(h, 400) > 400:
                continue
            stacks.add(stack)
            lams += [h] + unhowl(P(rng.choice(_GT_CORES[t]), t), h)
    assert len(lams) > 60 and len(stacks) > 10
    assert max(lam.width for lam in lams) > 90
    bad = [str(lam) for lam in lams if not _agrees(lam)]
    assert not bad, bad[:10]


# -- a plain 5-tuple of fields is read as the diagram it equals ------------------

@pytest.mark.parametrize("t", [0, 1, 2])
def test_a_plain_tuple_reduces_and_sums_as_its_diagram(t, small_cores):
    # the width-7 pool with k <= 4 and its lifts into the small cores, at
    # every rank: the tuple is never recorded, so each call reads it afresh
    lams = []
    for k in range(5):
        for h in enumerate_corefree(t, k, 7):
            lams.append(h)
            for g in small_cores[t]:
                try:
                    lams += unhowl(g, h)
                except UnhowlError:
                    pass
    assert sum(not lam.is_core_free() for lam in lams) > 300
    for lam in lams:
        plain = tuple(lam)
        for r in range(atypicality(lam) + 1):
            assert ds.dsr(plain, r) == ds.dsr(lam, r), (fmt(lam), r)
        assert superdimension(plain, *_mn(lam)) == superdimension(lam, *_mn(lam)), fmt(lam)
