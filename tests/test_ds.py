import math
import time

import pytest
from hypothesis import given, settings

import reference
from ospds.diagram import (atypicality, core_of, enumerate_corefree, fmt,
                           is_stable, sigma, validate)
from ospds.ds import Decomposition, GradedMult, check_purity, ds1, ds_osp, dsr
from ospds.howl import UnhowlError, howl, tau, unhowl
from ospds.translate import stabilize
from reference import gm_mul
from conftest import P, diagrams


def dec_map(dec):
    return {fmt(d): tuple(g) for d, g in dec.components.items()}


class TestDs1:
    def test_two_component_example(self):
        dec = ds1(P("+xoox", 1))
        assert dec_map(dec) == {"ooox": (1, 0), "+x": (0, 2)}

    def test_signed_pair_example(self):
        dec = ds1(P("+oxox", 0))
        assert dec.get(P("+ox", 0)) == GradedMult(0, 1)
        assert dec.get(P("-ox", 0)) == GradedMult(0, 1)

    def test_type2_example(self):
        dec = ds1(P(">xoox", 2))
        assert dec.get(P(">ooox", 2)) == GradedMult(1, 0)
        assert dec.get(P(">x", 2)) == GradedMult(0, 2)
        assert len(dec.components) == 2

    def test_gap_family(self):
        for j in range(1, 13):
            dec = ds1(P("-x^2" + "o" * j + "x", 1))
            got = tuple(dec.get(P("-x^2", 1)))
            if j < 3:
                want = (0, 0)
            elif j == 3:
                want = (1, 0)
            elif j % 2:
                want = (2, 0)
            else:
                want = (0, 2)
            assert got == want, (j, got)

    def test_typical_input_reduces_to_nothing(self):
        assert ds1(P("+o><", 0)).components == {}

    def test_cored_input(self):
        dec = ds1(P("x>x", 0))
        assert dec_map(dec) == {"+o>x": (1, 0), "-o>x": (1, 0)}

    def test_components_share_core_and_drop_atypicality(self, corefree_pool):
        for lam in corefree_pool:
            dec = ds1(lam)
            for nu in dec.components:
                assert validate(nu) == []
                assert core_of(nu) == core_of(lam)
                assert atypicality(nu) == atypicality(lam) - 1


class TestGradedMult:
    def test_identity(self):
        assert gm_mul(GradedMult(1, 0), GradedMult(3, 5)) == GradedMult(3, 5)

    def test_shift_squares_to_identity(self):
        assert gm_mul(GradedMult(0, 1), GradedMult(0, 1)) == GradedMult(1, 0)

    def test_doubled_shift(self):
        assert gm_mul(GradedMult(0, 2), GradedMult(0, 2)) == GradedMult(4, 0)

    def test_str(self):
        assert str(GradedMult(0, 2)) == "(0|2)"


class TestDsr:
    def test_rank_zero_is_identity(self):
        lam = P("+xoox", 1)
        assert dsr(lam, 0).components == {lam: GradedMult(1, 0)}

    def test_rank_beyond_atypicality_is_empty(self):
        assert dsr(P("+xoox", 1), 3).components == {}

    def test_huge_rank_stops_once_empty(self):
        # the decomposition is empty from rank k + 1 on, so the steps stop there
        for lam in (P("x", 0), P("-x^2oooox", 1), P("x/>xoo", 2)):
            assert dsr(lam, 10 ** 6).components == {}

    def test_rank_two_structure(self):
        lam = P("-x^2oooox", 1)
        dec = dsr(lam, 2)
        assert dec.components
        for nu, g in dec.components.items():
            assert atypicality(nu) == 1
            assert core_of(nu) == core_of(lam)
        full = dsr(lam, 3)
        assert list(full.components) == [P("o", 1)]

    def test_iteration_matches_single_steps(self):
        lam = P("x^2x", 0)
        step = Decomposition(0)
        for nu, g in ds1(lam).components.items():
            for nu2, g2 in ds1(nu).components.items():
                step.add(nu2, gm_mul(g, g2))
        assert reference.dsr(lam, 2).components == step.components
        assert dsr(lam, 2).components == step.components

    @pytest.mark.parametrize("r", [1, 2, 2999, 3000])
    def test_zero_stack_chain(self, r):
        # 3,000 zero-stack arcs, each the parent of the next: one filter per
        # rank, found without recursion
        dec = dsr(P("-x^3000", 1), r)
        want = P(f"-x^{3000 - r}" if r < 3000 else "o", 1)
        assert dec.components == {want: GradedMult(1, 0)}

    def test_rank_above_atypicality_skips_the_search(self):
        t0 = time.perf_counter()
        assert dsr(P("+" + "ox" * 40, 0), 41).components == {}
        assert time.perf_counter() - t0 < 0.1

    def test_side_by_side_arcs(self):
        # 14 roots: C(14, 7) filters of 7 arcs, each in both signings
        lam = P("+" + "ox" * 14, 0)
        assert len(dsr(lam, 7).components) == 6864
        assert dsr(lam, 14).components == {
            P("o", 0): GradedMult(2 ** 13 * math.factorial(14), 0)}


def _matches_reference(lam):
    for r, want in enumerate(reference.layers(lam)):
        dec = dsr(lam, r)
        assert dec.components == want.components, (fmt(lam), r)
        assert check_purity(dec, lam), (fmt(lam), r)
    assert r == atypicality(lam) + 1


class TestAgainstTheIteratedReference:
    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_pool(self, t):
        for k in range(5):
            for lam in enumerate_corefree(t, k, 10):
                _matches_reference(lam)
        for lam in enumerate_corefree(t, 5, 9):
            _matches_reference(lam)

    def test_cored_lifts(self, small_cores):
        for t, cores in small_cores.items():
            for g in cores:
                for k in range(1, 4):
                    for h in enumerate_corefree(t, k, 7):
                        try:
                            lifts = unhowl(g, h)
                        except UnhowlError:
                            continue
                        for lam in lifts:
                            _matches_reference(lam)

    @settings(max_examples=200, deadline=None)
    @given(lam=diagrams())
    def test_random_diagrams(self, lam):
        _matches_reference(lam)


class TestPurity:
    def test_holds_on_the_enumeration(self, corefree_pool):
        for lam in corefree_pool:
            for r in range(0, atypicality(lam) + 1):
                assert check_purity(dsr(lam, r), lam), (fmt(lam), r)

    def test_typical_is_vacuous(self):
        assert check_purity(ds1(P("+o><", 0)), P("+o><", 0))

    def test_detects_a_planted_violation(self):
        lam = P("ox", 1)
        bad = Decomposition(1, {P("o", 1): GradedMult(1, 1)})
        assert not check_purity(bad, lam)
        wrong_parity = Decomposition(1, {P("o", 1): GradedMult(2, 0)})
        assert not check_purity(wrong_parity, lam)


class TestSymmetries:
    def test_sigma_symmetry_even_series(self, corefree_pool):
        for lam in corefree_pool:
            if lam.t != 0:
                continue
            dec = ds1(lam)
            for nu, g in dec.components.items():
                assert dec.get(sigma(nu)) == g

    def test_tau_equivariance(self):
        for k in range(0, 4):
            for lam in enumerate_corefree(2, k, 7):
                for r in (1, 2):
                    direct = dsr(tau(lam), r)
                    mapped = {tau(nu): g
                              for nu, g in dsr(lam, r).components.items()}
                    assert mapped == direct.components, (fmt(lam), r)

    def test_stability_preserved(self, small_cores):
        for t, cores in small_cores.items():
            for g in cores:
                for k in range(0, 3):
                    for h in enumerate_corefree(t, k, 6):
                        try:
                            f = unhowl(g, h)[0]
                        except UnhowlError:
                            continue
                        if not is_stable(f):
                            continue
                        for nu in ds1(f).components:
                            assert is_stable(nu), (fmt(f), fmt(nu))

    def test_multiplicities_survive_stabilization(self, small_cores):
        for t, cores in small_cores.items():
            for g in cores:
                for k in range(1, 3):
                    for h in enumerate_corefree(t, k, 5):
                        try:
                            f = unhowl(g, h)[0]
                        except UnhowlError:
                            continue
                        st, _ = stabilize(f)
                        a = {howl(n): g2 for n, g2 in ds1(f).components.items()}
                        b = {howl(n): g2 for n, g2 in ds1(st).components.items()}
                        assert a == b, (fmt(f), fmt(st))


class TestOsp:
    def test_sigma_fixed_even_source_keeps_values(self):
        lam = P("x^2x", 0)            # zero stack: fixed by the sign flip
        plain = ds1(lam)
        full = ds_osp(lam)
        for nu, g in full.components.items():
            candidates = [c for c in plain.components
                          if c.with_sign(None) == nu or c == nu]
            assert plain.components[candidates[0]] == g

    def test_moved_even_source_doubles(self):
        lam = P("+oxox", 0)
        full = ds_osp(lam)
        key = P("ox", 0).with_sign(None)
        assert full.components[key] == GradedMult(0, 2)

    def test_moved_source_never_meets_zero_free_count(self):
        # a signed source has an empty zero position, so every maximal arc
        # sees at least the free position 0 and the flat value (1|0) is
        # impossible for the full group
        for k in range(1, 4):
            for lam in enumerate_corefree(0, k, 6):
                if lam.sign is None:
                    continue
                for g in ds_osp(lam).components.values():
                    assert tuple(g) != (1, 0)

    def test_odd_series_matches_plain_reduction(self):
        lam = P("+xoox", 1)
        assert ds_osp(lam).components == ds1(lam).components
