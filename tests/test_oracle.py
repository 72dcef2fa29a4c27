import random

import pytest
from hypothesis import given, settings, strategies as st

import reference
from ospds.diagram import (EMPTY, DomainError, ParseError, atypicality, core_of,
                           enumerate_corefree, fmt, parse, sigma, validate)
from ospds.ds import ZERO, GradedMult, ds1, dsr
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


# the rules a problem can stop at, each of which the corpus below must reach
STOPS = {"cores differ", "wrong atyp gap", "no cross/empty", "stack mismatch",
         "gap too short", "close gap", "shorten gap", "drop zero >"}


def _same_as_the_reference(lam, nu):
    """The library and the reference agree on ``nu`` in the reduction of
    ``lam``, result and trace text; returns the rule the trace stops at."""
    got, want = [], []
    assert oracle_mult1(lam, nu) == oracle_mult1(lam, nu, got) \
        == reference.oracle_mult1(lam, nu, want), (fmt(lam), fmt(nu))
    assert [str(s) for s in got] == [str(s) for s in want], (fmt(lam), fmt(nu))
    # every target is written as a diagram, in text that parse reads back
    for step in got:
        assert any(_parses(step.target, t) for t in (0, 1, 2)), (str(step), fmt(lam))
    return got[-1].rule


def _parses(text, t):
    try:
        parse(text, t)
    except (ParseError, DomainError):
        return False
    return True


class TestAgainstTheReference:
    """The oracle on fields against the oracle on diagrams it replaced."""

    @pytest.fixture(scope="class")
    def corpus(self, small_cores):
        """The width-9, k <= 4 core-free pool and its lifts into the small
        cores, by (type, core, atypicality)."""
        blocks = {}
        for t in (0, 1, 2):
            for k in range(5):
                for h in enumerate_corefree(t, k, 9):
                    for g in [None] + small_cores[t]:
                        try:
                            lifts = [h] if g is None else unhowl(g, h)
                        except UnhowlError:
                            continue
                        for lam in lifts:
                            blocks.setdefault((t, core_of(lam), k), []).append(lam)
        return blocks

    def test_pool_and_lifts(self, corpus):
        rng, stops = random.Random(16), set()
        by_type = {}
        for t, core, k in corpus:
            by_type.setdefault(t, []).append(core)
        for (t, core, k), lams in corpus.items():
            below = corpus.get((t, core, k - 1), [])
            for n, lam in enumerate(lams if k else []):
                targets = [*ds1(lam).components, *rng.sample(below, min(1, len(below)))]
                if n == 0:
                    # once per block: a target one cross below over another
                    # core (a source of this block when that core has none),
                    # and the source itself, one cross too many
                    other = rng.choice(by_type[t])
                    targets += [rng.choice(corpus.get((t, other, k - 1), lams)), lam]
                for nu in targets:
                    stops.add(_same_as_the_reference(lam, nu))
        assert STOPS <= stops, STOPS - stops

    @settings(max_examples=200, deadline=None)
    @given(lam=diagrams())
    def test_random_diagrams(self, lam):
        for nu in (*ds1(lam).components, *_erased_lifts(lam), lam, core_of(lam)):
            _same_as_the_reference(lam, nu)


class TestComposedSteps:
    """The rank-r reduction as r composed oracle steps, a route that builds
    no arc diagram, against ``dsr`` at every rank."""

    @staticmethod
    def _matches(lam):
        for r, want in enumerate(reference.oracle_layers(lam)):
            assert dsr(lam, r).components == want.components, (fmt(lam), r)
        assert r == atypicality(lam)
        assert reference.oracle_dsr(lam, r + 1).components == {}

    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_pool(self, t):
        for k in range(5):
            for lam in enumerate_corefree(t, k, 7):
                self._matches(lam)

    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_wide_pool(self, t):
        # the width-9 pool beyond the width-7 one of test_pool
        for k in range(5):
            for lam in enumerate_corefree(t, k, 9):
                if lam.width > 7:
                    self._matches(lam)

    @settings(max_examples=100, deadline=None)
    @given(lam=diagrams().filter(lambda d: atypicality(d) <= 4 and howl(d).width <= 12))
    def test_random_diagrams(self, lam):
        self._matches(lam)

    def test_cored_lifts(self, small_cores):
        for t, cores in small_cores.items():
            for g in cores:
                for k in range(1, 4):
                    for h in enumerate_corefree(t, k, 5):
                        try:
                            lifts = unhowl(g, h)
                        except UnhowlError:
                            continue
                        for lam in lifts:
                            self._matches(lam)


def _signed_stack(sign, p, rest=""):
    if p == 0:
        return ("o" + rest) if rest else "o"  # signs vanish with the stack
    return sign + ("x" if p == 1 else f"x^{p}") + rest


def _erased_lifts(lam):
    """The diagrams one below ``lam`` in its block that erase one off-zero
    cross of its compacted diagram, in every valid signing."""
    h, core = howl(lam), core_of(lam)
    out = set()
    for p in reference.cross_positions(h):
        bare = h._replace(tail_symbols=h.tail_symbols[:p - 1] + EMPTY + h.tail_symbols[p:])
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
