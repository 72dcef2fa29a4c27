import pytest
from hypothesis import given, settings, strategies as st

from ospds.diagram import (EMPTY, DomainError, atypicality, core_of, enumerate_corefree,
                           fmt, sigma, validate)
from ospds.ds import ZERO, GradedMult, ds1
from ospds.howl import UnhowlError, howl, tau, unhowl
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

    def test_commutes_with_tau(self):
        # the type-2 route drops the zero '>' by folding position 1 into the
        # stack, as tau does; both routes must give the same numbers
        by_k = [enumerate_corefree(2, k, 7) for k in range(5)]
        pairs = 0
        for k in range(1, 5):
            for lam in by_k[k]:
                for nu in by_k[k - 1]:
                    assert oracle_mult1(lam, nu) == oracle_mult1(tau(lam), tau(nu)), \
                        (fmt(lam), fmt(nu))
                    pairs += 1
        assert pairs == 3479

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


def _cores_differ(lam, nu):
    """True when the oracle stops at once on a core mismatch."""
    trace: list[Step] = []
    g = oracle_mult1(lam, nu, trace)
    differ = trace[0].rule == "cores differ"
    assert g == ZERO or not differ
    return differ


class TestCoreComparison:
    """The oracle compares cores on their fields; it must tell two diagrams
    apart exactly when ``core_of`` does."""

    @pytest.mark.parametrize("lam,nu,same", [
        ("+ox>", "+oo>>", False),     # a trailing '>'
        ("+ox", "+o>", False),        # a trailing '>' that also signs the core
        ("o", "<", False),            # the zero '<'
        ("+ox", "<", False),
        ("+ox>", "-oo>", True),       # opposite signs over one '+' core
        ("-oxx>", "x^2oo>", True),    # a signed and a stacked diagram, one '+' core
        ("+oxx", "x^2", True),        # a signed and a stacked diagram, unsigned core
    ])
    def test_even_series_cases(self, lam, nu, same):
        a, b = P(lam, 0), P(nu, 0)
        assert (core_of(a) == core_of(b)) is same
        assert _cores_differ(a, b) is not same
        assert _cores_differ(b, a) is not same

    def test_all_pairs_of_small_lifts(self, small_cores):
        for t, cores in small_cores.items():
            lifts = []
            for g in cores:
                for k in range(3):
                    for h in enumerate_corefree(t, k, 4):
                        try:
                            lifts.extend(unhowl(g, h))
                        except UnhowlError:
                            pass
            for lam in lifts:
                for nu in lifts:
                    assert _cores_differ(lam, nu) is (core_of(lam) != core_of(nu)), \
                        (fmt(lam), fmt(nu))

    @settings(max_examples=200, deadline=None)
    @given(lam=diagrams(), data=st.data())
    def test_random_same_type_pairs(self, lam, data):
        # a random draw of the same type, or a diagram over the same core
        nu = data.draw(st.one_of(diagrams().filter(lambda d: d.t == lam.t),
                                 st.sampled_from([lam, sigma(lam), core_of(lam)])))
        assert _cores_differ(lam, nu) is (core_of(lam) != core_of(nu))


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
        bare = h.with_tail(h.tail_symbols[:p - 1] + EMPTY + h.tail_symbols[p:])
        for sign in (None, "+", "-"):
            if not validate(bare.with_sign(sign)):
                try:
                    out.update(unhowl(core, bare.with_sign(sign)))
                except UnhowlError:
                    pass
    return out


@pytest.mark.parametrize("lam, nu", [
    pytest.param(P("+xoox", 1), P("+ox", 0), id="t=1 against t=0"),
    pytest.param(P("x/>", 2), P("-x", 1), id="t=2 against t=1"),
])
def test_types_must_agree(lam, nu):
    with pytest.raises(DomainError, match="share the block type"):
        oracle_mult1(lam, nu)
