import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

import reference
from ospds import oracle
from ospds.diagram import (EMPTY, GT, LT, DomainError, ParseError, WeightDiagram,
                           atypicality, check_valid, core_of, enumerate_corefree, fmt,
                           parse, sigma, validate)
from ospds.ds import ZERO, GradedMult, check_purity, ds1, ds_osp, dsr
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

    def test_a_wide_core_free_target(self):
        # a core-free target's crossless tail is cut at once, however many
        # trailing empties it has; the source is core-free too
        lam = P("ox" * 500, 1)
        dec = ds1(lam)
        first, last = P("oo" + "ox" * 499, 1), P("ox" * 499, 1)
        assert first.width >= 1000
        for nu in (first, last):
            assert oracle_mult1(lam, nu) == dec.get(nu) != ZERO, fmt(nu)
        assert oracle_mult1(lam, P("oooo" + "ox" * 498, 1)) == ZERO  # the gap is two


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


def _blocks(small_cores, width):
    """The core-free pool below ``width`` with k <= 4 and its lifts into the
    small cores, by (type, core, atypicality)."""
    blocks = {}
    for t in (0, 1, 2):
        for k in range(5):
            for h in enumerate_corefree(t, k, width):
                for g in [None] + small_cores[t]:
                    try:
                        lifts = [h] if g is None else unhowl(g, h)
                    except UnhowlError:
                        continue
                    for lam in lifts:
                        blocks.setdefault((t, core_of(lam), k), []).append(lam)
    return blocks


def _pairs(blocks, rng):
    """Each source against each ``ds1`` component and a sampled target one
    cross below in its block; once per block also a target one cross below
    over another core (a source of this block when that core has none), and
    the source itself, one cross too many."""
    by_type = {}
    for t, core, k in blocks:
        by_type.setdefault(t, []).append(core)
    for (t, core, k), lams in blocks.items():
        below = blocks.get((t, core, k - 1), [])
        for n, lam in enumerate(lams if k else []):
            targets = [*ds1(lam).components, *rng.sample(below, min(1, len(below)))]
            if n == 0:
                other = rng.choice(by_type[t])
                targets += [rng.choice(blocks.get((t, other, k - 1), lams)), lam]
            for nu in targets:
                yield lam, nu


def test_untraced_calls_do_no_trace_work(small_cores, monkeypatch):
    def written(*args):
        raise AssertionError("an untraced call wrote a trace step")

    monkeypatch.setattr(oracle, "_show", written)
    stops = set()
    for lam, nu in _pairs(_blocks(small_cores, 7), random.Random(7)):
        want = []
        assert oracle_mult1(lam, nu) == reference.oracle_mult1(lam, nu, want), (fmt(lam), fmt(nu))
        stops.add(want[-1].rule)
    assert STOPS <= stops, STOPS - stops
    with pytest.raises(AssertionError, match="wrote a trace step"):
        oracle_mult1(lam, nu, [])


class TestAgainstTheReference:
    """The oracle on fields against the oracle on diagrams it replaced."""

    @pytest.fixture(scope="class")
    def corpus(self, small_cores):
        return _blocks(small_cores, 9)

    def test_pool_and_lifts(self, corpus):
        stops = {_same_as_the_reference(lam, nu) for lam, nu in _pairs(corpus, random.Random(16))}
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


# -- the record of the last source ---------------------------------------------

# the modules themselves: the package's ``howl`` attribute is the function
howl_module = sys.modules["ospds.howl"]
diagram_module = sys.modules["ospds.diagram"]


def _fresh(fn, *args):
    """``fn(*args)`` with the source record emptied first, so that the call
    checks and compacts its source itself."""
    howl_module._last = (object(), None)
    return fn(*args)


def _outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message of its error."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 -- the error itself is compared
        return type(e), str(e)


class TestSourceRecord:
    """``ds1``, ``dsr``, ``ds_osp``, ``oracle_mult1`` and ``check_purity``
    share one record of the last source: a run of calls on one source checks
    it once, and the record never answers for another diagram."""

    @pytest.fixture(scope="class")
    def sweep(self, small_cores):
        """(source, targets) over the width-8 pool and its lifts: every ``ds1``
        component and up to 8 seeded targets one cross below in the block."""
        blocks, rng, ops = _blocks(small_cores, 8), random.Random(32), []
        for (t, core, k), lams in blocks.items():
            below = blocks.get((t, core, k - 1), [])
            for lam in lams:
                ops.append((lam, (*ds1(lam).components,
                                  *rng.sample(below, min(8, len(below))))))
        return ops

    def test_a_source_is_checked_once(self, sweep, monkeypatch):
        validate = diagram_module.validate
        seen = [None, 0]

        def spy(d):
            if d is seen[0]:
                seen[1] += 1
            return validate(d)

        monkeypatch.setattr(diagram_module, "validate", spy)
        # every source, atypicality 0 (no component, no target) included
        for lam, targets in sweep:
            seen[:] = lam, 0
            ds1(lam)
            for nu in targets:
                oracle_mult1(lam, nu)
            dsr(lam, 0)
            # from rank 1: at rank 0 the one component is lam, checked as such
            for r in range(1, atypicality(lam) + 1):
                assert check_purity(dsr(lam, r), lam), (fmt(lam), r)
            ds_osp(lam)
            # the one check is ds1's, which writes the record the rest read
            assert seen[1] == 1, (fmt(lam), seen[1])

    @pytest.mark.parametrize("text,t,fields", [
        ("+oxox", 0, (0, 0, None, "oxox", None)),    # t=0 without its sign
        ("-x^2ox", 1, (1, 2, None, "ox", None)),     # a bare t=1 stack without its sign
        ("+x^2ox", 1, (1, 2, None, "ox", None)),
        (">xoox", 2, (2, 0, None, "xoox", None)),    # t=2 without its zero '>'
        ("x/>ox", 1, (1, 1, GT, "ox", "+")),         # a sign over a zero core
        ("xox", 0, (0, 1, LT, "ox", None)),          # t=0 '<' under a stack
    ])
    def test_a_broken_diagram_after_a_valid_one_is_refused(self, text, t, fields):
        lam = P(text, t)
        bad = tuple.__new__(WeightDiagram, fields)
        assert validate(bad)
        nu = next(iter(ds1(lam).components))
        want = str(_outcome(check_valid, bad)[1])
        for fn, args in ((oracle_mult1, (bad, nu)), (dsr, (bad, 1)), (ds1, (bad,)),
                         (ds_osp, (bad,)), (check_purity, (dsr(lam, 1), bad))):
            oracle_mult1(lam, nu)
            assert howl_module._last[0] is lam
            with pytest.raises(DomainError) as e:
                fn(*args)
            assert str(e.value) == want
            assert howl_module._last[0] is lam

    def test_interleaved_sources_match_fresh_records(self, sweep):
        rng = random.Random(8)
        sources = [op for op in sweep if atypicality(op[0]) >= 2]
        for _ in range(300):
            (a, ta), (b, tb) = rng.sample(sources, 2)
            calls = []
            for lam, targets in ((a, ta), (b, tb), (a, ta)):
                for nu in (*targets[:2], *tb[:1], *ta[:1]):
                    calls.append((oracle_mult1, lam, nu))
                r = rng.randint(1, atypicality(lam))
                calls.append((dsr, lam, r))
                calls.append((check_purity, _fresh(dsr, lam, r), lam))
            # one call per function per source in turn, and each call again
            rng.shuffle(calls)
            for fn, *args in calls + calls:
                assert _outcome(fn, *args) == _outcome(_fresh, fn, *args), \
                    (fn.__name__, *map(fmt, args[:1]))

    def test_a_trace_is_the_same_on_a_hit_and_a_miss(self, small_cores):
        for lam, nu in _pairs(_blocks(small_cores, 7), random.Random(9)):
            miss, hit = [], []
            want = _fresh(oracle_mult1, lam, nu, miss)
            assert howl_module._last[0] is lam
            assert oracle_mult1(lam, nu, hit) == want
            assert hit == miss, (fmt(lam), fmt(nu))

    def test_only_a_weight_diagram_is_recorded(self):
        lam, nu = P("+xoox", 1), P("+x", 1)

        class Sub(WeightDiagram):
            __slots__ = ()

        for other in (tuple(lam), tuple.__new__(Sub, lam)):
            assert _fresh(oracle_mult1, other, nu) == oracle_mult1(lam, nu)
            howl_module._last = (object(), None)
            assert oracle_mult1(other, nu) == GradedMult(0, 2)
            assert howl_module._last[0] is not other

    def test_two_threads_share_the_record(self, sweep):
        def run(ops):
            return [(tuple(oracle_mult1(lam, nu) for nu in targets),
                     dsr(lam, max(atypicality(lam) - 1, 0)).components)
                    for lam, targets in ops]

        halves = sweep[::2], sweep[1::2]
        want = [run(ops) for ops in halves]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter over often
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                got = list(pool.map(run, halves, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert got == want
