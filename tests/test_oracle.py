import pytest
from hypothesis import given, settings

from ospds.diagram import (EMPTY, atypicality, core_of, enumerate_corefree,
                           fmt, sigma, validate)
from ospds.ds import ZERO, GradedMult, ds1
from ospds.howl import UnhowlError, howl, unhowl
from ospds.oracle import Step, oracle_mult1
from conftest import P, diagrams


class TestKnownValues:
    @pytest.mark.parametrize("lam,nu,t,want", [
        ("+xoox", "+x", 1, (0, 2)),
        ("+xoox", "ooox", 1, (1, 0)),
        ("-x^2ooooox", "-x^2", 1, (2, 0)),   # gap of five
        ("-x^2oooooox", "-x^2", 1, (0, 2)),  # gap of six
        ("x^2x", "x^2", 0, (0, 0)),          # cross right after the stack
        (">xoox", ">ooox", 2, (1, 0)),
        (">xoox", ">x", 2, (0, 2)),
        ("+oxox", "+ox", 0, (0, 1)),
        ("+oxox", "-ox", 0, (0, 1)),
    ])
    def test_values(self, lam, nu, t, want):
        assert tuple(oracle_mult1(P(lam, t), P(nu, t))) == want

    def test_core_mismatch_is_zero(self):
        assert oracle_mult1(P("x>", 0), P("+oo>", 0)) == GradedMult(0, 0)

    def test_wrong_gap_is_zero(self):
        assert oracle_mult1(P("x^2", 0), P("o", 0)) == GradedMult(0, 0)

    def test_trace_records_steps(self):
        trace: list[Step] = []
        oracle_mult1(P("+xoox", 1), P("+x", 1), trace)
        rules = [s.rule for s in trace]
        assert rules[0] == "compact"
        assert "flip signs" in rules
        assert all(str(s) for s in trace)


class TestConsistency:
    def test_matches_ds1_componentwise(self, corefree_pool):
        by_tk = {}
        for d in corefree_pool:
            by_tk.setdefault((d.t, atypicality(d)), []).append(d)
        for (t, k), lams in by_tk.items():
            if k == 0:
                continue
            targets = by_tk.get((t, k - 1), [])
            for lam in lams:
                dec = ds1(lam)
                for nu in targets:
                    assert oracle_mult1(lam, nu) == dec.get(nu), \
                        (fmt(lam), fmt(nu))

    @settings(max_examples=200, deadline=None)
    @given(lam=diagrams())
    def test_matches_ds1_on_random_diagrams(self, lam):
        dec = ds1(lam)
        for nu, g in dec.components.items():
            assert oracle_mult1(lam, nu) == g, (fmt(lam), fmt(nu))
        for nu in _erased_lifts(lam) - dec.components.keys():
            assert oracle_mult1(lam, nu) == ZERO, (fmt(lam), fmt(nu))

    def test_sigma_equivariant(self):
        for t in (0, 1):
            for k in (1, 2, 3):
                for lam in enumerate_corefree(t, k, 6):
                    for nu in enumerate_corefree(t, k - 1, 6):
                        base = oracle_mult1(lam, nu)
                        assert oracle_mult1(sigma(lam), sigma(nu)) == base
                        if t == 0:
                            assert oracle_mult1(lam, sigma(nu)) == base

    def test_stack_shift_identity(self):
        # dropping one stack cross and two leading gap positions from both
        # the source and the target leaves the multiplicity unchanged
        for p in (1, 2, 3):
            for i in (1, 2, 3):
                for suffix in ("", "x", "ox", "oox", "xox"):
                    lam = P(_signed_stack("+", p, "oo" + suffix), 1)
                    nu = P(_signed_stack("+", i), 1)
                    lam2 = P(_signed_stack("-", p - 1, suffix), 1)
                    nu2 = P(_signed_stack("-", i - 1), 1)
                    if atypicality(lam) - atypicality(nu) != 1:
                        continue
                    assert oracle_mult1(lam, nu) == oracle_mult1(lam2, nu2), \
                        (fmt(lam), fmt(nu))


def _signed_stack(sign, p, rest=""):
    if p == 0:
        return ("o" + rest) if rest else "o"  # signs vanish with the stack
    return sign + ("x" if p == 1 else f"x^{p}") + rest


def _erased_lifts(lam):
    """The diagrams one below ``lam`` in its block that erase one off-zero
    cross of its compacted diagram, in every valid signing."""
    h, core = howl(lam), core_of(lam)
    out = set()
    for p in h.cross_positions():
        bare = h.set_positions({p: EMPTY})
        for sign in (None, "+", "-"):
            if not validate(bare.with_sign(sign)):
                try:
                    out.update(unhowl(core, bare.with_sign(sign)))
                except UnhowlError:
                    pass
    return out
