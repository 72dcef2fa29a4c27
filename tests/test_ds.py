import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import reference
from ospds.diagram import (GT, LT, DomainError, WeightDiagram, atypicality, build,
                           core_of, enumerate_corefree, fmt, is_stable, pari,
                           sigma, validate)
from ospds.ds import (Decomposition, GradedMult, _after_stack, _filters, check_purity, ds1,
                      ds_osp, dsr)
from ospds.howl import UnhowlError, _howl, howl, tau, unhowl
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
                reference.add(step, nu2, gm_mul(g, g2))
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
        for nu in dec.components:
            assert validate(nu) == [], (fmt(lam), r, fmt(nu))
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


def _matches_the_lift(lam):
    """dsr against the erase-and-lift route at every rank, component order
    and multiplicities included."""
    for r in range(atypicality(lam) + 2):
        got = list(dsr(lam, r).components.items())
        want = list(reference.lifted_dsr(lam, r).components.items())
        assert got == want, (fmt(lam), r)


def _tree(rng, size):
    """A seeded tree of ``size`` nested arcs."""
    inner, out = size - 1, []
    while inner:
        part = rng.randint(1, inner)
        out.append(_tree(rng, part))
        inner -= part
    return "x" + "".join(out) + "o"


def _lift(rng, h, zero):
    """A seeded lift of ``h`` into a core with ``zero`` at position 0 and 2
    to 6 symbols spread over twice its width and stack, as in the
    benchmark's cored lifts."""
    span = 2 * (h.width + h.zero_crosses)
    while True:
        body = {p: rng.choice((GT, LT)) for p in rng.sample(range(1, span + 1),
                                                          rng.randint(2, 6))}
        sign = "+" if h.t == 0 and GT in body.values() else None
        try:
            return unhowl(build(h.t, 0, zero, body, sign), h)[0]
        except DomainError:
            continue


class TestAgainstTheLiftedReference:
    """dsr builds each component in the diagram itself; the old route erased
    in the compacted diagram and lifted the result back into the core."""

    ZEROS = {0: (None,), 1: (None, GT, LT), 2: (GT,)}  # zero symbols of a core

    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_cored_arcs(self, t):
        rng = random.Random(f"arcs:{t}")
        # 25 arcs in five chains, 12 in four trees, and ten side by side
        for tail in ("".join("o" * rng.randint(0, 3) + "x" * 5 + "o" * 5 for _ in range(5)),
                     "".join("o" * rng.randint(0, 3) + _tree(rng, 3) for _ in range(4)),
                     "".join("o" * rng.randint(0, 2) + "xo" for _ in range(10))):
            sign = rng.choice("+-") if t == 0 else ""
            h = P(sign + (">" if t == 2 else "o") + tail, t)
            _matches_the_lift(_lift(rng, h, rng.choice(self.ZEROS[t])))

    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_cored_stacks(self, t):
        rng = random.Random(f"stack:{t}")
        # under a t=1 zero core, the "+" stack folds a cross into the core
        for size, sign in ((40, "+"), (200, "-")):
            tail = "".join("o" * rng.randint(0, 16) + "xo" for _ in range(4))
            h = P((sign if t == 1 else "") + f"x^{size}" + ("/>" if t == 2 else "") + tail, t)
            for zero in self.ZEROS[t]:
                _matches_the_lift(_lift(rng, h, zero))

    def test_folded_cross(self):
        # the fold puts the first cross off the core on top of the stack; the
        # ranks that empty the stack erase it
        for zero, stack, before, after in itertools.product(
                "<>", ("", "x/", "x^3/"), ("", "<", "><"), ("", "ox", "x>xo", "o<xx")):
            lam = P(stack + zero + before + "x" + after, 1)
            assert _howl(lam).zero_crosses == lam.zero_crosses + 1
            _matches_the_lift(lam)
            assert list(dsr(lam, atypicality(lam)).components) == [core_of(lam)]

    def test_both_signings(self):
        # emptying a t=0 stack leaves a bare zero position: both signings
        signed = 0
        for stack, tail in itertools.product(("x", "x^2", "x^4"),
                                             ("x", "oxox", "o>x", ">", "x<ox>", "oo>o")):
            lam = P(stack + tail, 0)
            _matches_the_lift(lam)
            for r in range(1, atypicality(lam) + 1):
                dec = dsr(lam, r).components
                signed += sum(nu.sign == "+" and sigma(nu) in dec for nu in dec)
        assert signed


class TestTrustedConstruction:
    """The reduction builds its compacted diagrams and its components
    without a check: each must be what the public constructor makes of its
    own fields."""

    @pytest.fixture
    def built(self, monkeypatch):
        out = []

        def spy(cls, *fields, trusted=WeightDiagram._trusted):
            out.append(trusted(*fields))
            return out[-1]
        monkeypatch.setattr(WeightDiagram, "_trusted", classmethod(spy))
        return out

    def test_pool(self, corefree_pool, built):
        for lam in corefree_pool:
            _built_as_public(lam, built)

    def test_cored_lifts(self, small_cores, built):
        for t, cores in small_cores.items():
            for g in cores:
                for k in range(1, 4):
                    for h in enumerate_corefree(t, k, 7):
                        try:
                            lifts = unhowl(g, h)
                        except UnhowlError:
                            continue
                        for lam in lifts:
                            _built_as_public(lam, built)


def _built_as_public(lam, built):
    for r in range(atypicality(lam) + 1):
        built.clear()
        for nu in dsr(lam, r).components:
            assert validate(nu) == [], (fmt(lam), r, fmt(nu))
        assert built or r == 0
        for d in built:
            public = WeightDiagram(d.t, d.zero_crosses, d.zero_core,
                                   d.tail_symbols, d.sign)
            assert d == public and hash(d) == hash(public), (fmt(lam), r, d)


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
        # a parity-shifted component graded like the source
        shifted_like_source = Decomposition(1, {lam: GradedMult(0, 1)})
        assert not check_purity(shifted_like_source, lam)

    @settings(max_examples=200, deadline=None)
    @given(lam=diagrams(), rng=st.randoms(use_true_random=False))
    def test_matches_the_definition(self, lam, rng):
        # keep, flip or mix the grading of each component of every rank,
        # now and then with an invalid diagram among them
        invalid = WeightDiagram(1, 1, None, "ox", None)  # an unsigned bare stack
        for r in range(atypicality(lam) + 1):
            comps = {nu: rng.choice([g, GradedMult(g.d1, g.d0), GradedMult(g.d0 + 1, g.d1 + 1)])
                     for nu, g in dsr(lam, r).components.items()}
            if rng.random() < 0.2:
                comps[invalid] = GradedMult(rng.randint(0, 1), rng.randint(0, 1))
            dec = Decomposition(lam.t, comps)
            assert _purity(check_purity, dec, lam) == _purity(reference.check_purity, dec, lam), \
                (fmt(lam), r)

    def test_an_invalid_diagram_raises_as_the_definition(self):
        lam, invalid = P("ox", 1), WeightDiagram(1, 1, None, "ox", None)
        for dec, source in ((Decomposition(1, {invalid: GradedMult(1, 0)}), lam),
                            (Decomposition(1, {P("o", 1): GradedMult(0, 2)}), invalid)):
            with pytest.raises(DomainError) as got:
                check_purity(dec, source)
            with pytest.raises(DomainError) as want:
                reference.check_purity(dec, source)
            assert str(got.value) == str(want.value) and "invalid diagram" in str(got.value)


def _purity(check, dec, lam):
    """``check(dec, lam)``, or the message of the DomainError it raises."""
    try:
        return check(dec, lam)
    except DomainError as e:
        return str(e)


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


def _same_as_the_old_rules(lam):
    """``is_stable``, ``pari`` and ``ds_osp`` agree with the rules they
    replaced, component order included; ``pari`` of a core refuses in both."""
    assert is_stable(lam) == reference.is_stable(lam), fmt(lam)
    try:
        want = reference.pari(lam)
    except DomainError:
        with pytest.raises(DomainError, match="core-free"):
            pari(lam)
    else:
        assert pari(lam) == want, fmt(lam)
    assert list(ds_osp(lam).components.items()) \
        == list(reference.ds_osp(lam).components.items()), fmt(lam)


class TestAgainstTheOldRules:
    """Stability and grading read off the tail, and ``ds_osp`` without a
    ``seen`` set, against the position-tuple rules they replaced."""

    def test_pool_and_lifts(self, corefree_pool, small_cores):
        for h in corefree_pool:
            _same_as_the_old_rules(h)
            for g in small_cores[h.t]:
                try:
                    lifts = unhowl(g, h)
                except UnhowlError:
                    continue
                for lam in lifts:
                    _same_as_the_old_rules(lam)

    @settings(max_examples=300, deadline=None)
    @given(lam=diagrams())
    def test_random_diagrams(self, lam):
        _same_as_the_old_rules(lam)


def _same_filters_as_the_bisected_reaches(h):
    """Every order filter of ``h`` from the sweep's rows, against the rows
    built from sorted reaches: the exact order below the whole forest, the
    rows as a set at it."""
    n = atypicality(h)
    for r in range(1, n):
        assert list(_filters(h, r)) == reference.filter_rows(h, r), (fmt(h), r)
    if n:
        assert [sorted(f) for f in _filters(h, n)] == [sorted(reference.forest_rows(h))], fmt(h)


class TestFilterRows:
    """The sweep counts the arcs wholly left of each arc as it goes, and lists
    the zero-stack arcs outermost first for a sort on the support alone."""

    def test_pool(self, corefree_pool):
        stacks = set()
        for h in corefree_pool:
            _same_filters_as_the_bisected_reaches(h)
            stacks.add((h.t, h.zero_crosses))
        assert {(t, 4) for t in (0, 1, 2)} <= stacks

    @settings(max_examples=300, deadline=None)
    @given(lam=diagrams())
    def test_random_diagrams(self, lam):
        _same_filters_as_the_bisected_reaches(_howl(lam))


# (chain, r) pairs that the benchmark's pool_sweep workload sends at seed 1
_POOL_CHAINS = [([1], 2), ([1], 3), ([2], 2), ([2], 3), ([3], 3), ([1, 2], 2), ([1, 2], 3),
                ([1, 3], 3)]


class TestAfterStack:
    """The insertion count of the t=0 zero-stack interleavings: only the
    ratio of its two counts is meaningful."""

    def test_ratio_matches_the_binomial_convolution(self):
        rng = random.Random(25)
        cases = list(_POOL_CHAINS)
        for _ in range(2000):
            chain = [rng.randint(1, 5)]
            for _ in range(rng.randint(0, 5)):
                chain.append(chain[-1] + rng.randint(1, 5))
            cases.append((chain, chain[-1] + rng.randint(0, 5)))
        for chain, r in cases:
            after, orders = _after_stack(chain, r)
            ref_after, ref_orders = reference.after_stack(chain, r)
            assert after * ref_orders == ref_after * orders, (chain, r)

    def test_closed_forms(self):
        for r in range(1, 201):
            # a lone root cross is uniform among r arcs: mean (2^r - 1) / r
            after, orders = _after_stack([1], r)
            assert after * r == (2 ** r - 1) * orders, r
            # a cross enclosing every arc goes first: 2^(r - 1)
            after, orders = _after_stack([r], r)
            assert after == orders << (r - 1), r
            # a cross under a chain of every arc goes last: 1
            after, orders = _after_stack(list(range(1, r + 1)), r)
            assert after == orders, r


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: dsr(P("+xoox", 1), -1), "rank must be non-negative", id="rank -1"),
    pytest.param(lambda: dsr(P("+xoox", 1), 1.5), "rank must be an int, got 1.5",
                 id="rank 1.5"),
    pytest.param(lambda: dsr(P("+xoox", 1), True), "rank must be an int, got True",
                 id="rank True"),
])
def test_public_checks_refuse(call, message):
    with pytest.raises(DomainError, match=message):
        call()
