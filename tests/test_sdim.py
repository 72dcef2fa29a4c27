import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from ospds.diagram import GT, LT, DomainError, atypicality, enumerate_corefree
from ospds.ds import ds1
from ospds.howl import unhowl
from ospds.sdim import (_component_dim, _dim_from_shifted, superdimension,
                        weyl_dim_so)
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
        with pytest.raises(DomainError):
            weyl_dim_so(5, [0, 1])
        with pytest.raises(DomainError):
            weyl_dim_so(4, [1])

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

    def test_conserved_through_one_step(self, corefree_pool):
        for lam in corefree_pool:
            k = atypicality(lam)
            if k == 0 or lam.width > 7:
                continue
            m, n = _mn(lam)
            total = sum((g.d0 - g.d1) * superdimension(nu, m - 1, n - 1)
                        for nu, g in ds1(lam).components.items())
            assert superdimension(lam, m, n) == total

    def test_sign_invariance(self):
        for k in (1, 2, 3):
            for lam in enumerate_corefree(0, k, 6):
                from ospds.diagram import sigma
                assert superdimension(lam, k, k) == \
                    superdimension(sigma(lam), k, k)

    def test_count_mismatch(self):
        with pytest.raises(DomainError):
            superdimension(P("x", 0), 2, 1)

    def test_cored_example(self):
        # one cross behind a single core marker: the two signed components
        # each contribute a one-dimensional so_2 module
        assert superdimension(P("+o>ox", 0), 2, 1) == 2


# -- the arc-forest route against the full reduction -------------------------------

def _by_full_reduction(lam):
    """Superdimension as the signed count of the components of the rank-k
    reduction times their dimensions."""
    if lam.count(LT):  # n > k
        return 0
    dec = dsr(lam, atypicality(lam))
    return sum((g.d0 - g.d1) * _component_dim(nu) for nu, g in dec.components.items())


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
