from fractions import Fraction as Q

import pytest

from ospds import weightmap
from ospds.diagram import GT, LT, DomainError, atypicality, enumerate_corefree, fmt
from ospds.weightmap import (DominantWeight, diagram_to_weight, parse_weight,
                             weight_to_diagram)
from conftest import P


def B(m, n, a, b):
    return DominantWeight("B", m, n, tuple(map(Q, a)), tuple(map(Q, b)))


def D(m, n, a, b):
    return DominantWeight("D", m, n, tuple(map(Q, a)), tuple(map(Q, b)))


class TestWeightToDiagram:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_odd_zero_weight(self, s):
        w = B(s, s, [Q(-1, 2)] * s, [Q(1, 2)] * s)
        assert fmt(weight_to_diagram(w)) == ("-x" if s == 1 else f"-x^{s}")

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_odd_first_fundamental(self, s):
        w = B(s, s, [Q(1, 2)] + [Q(-1, 2)] * (s - 1), [Q(1, 2)] * s)
        assert fmt(weight_to_diagram(w)) == ("+x" if s == 1 else f"+x^{s}")

    @pytest.mark.parametrize("s", [1, 2])
    def test_even_zero_weight_is_a_bare_stack(self, s):
        w = D(s, s, [0] * s, [0] * s)
        assert fmt(weight_to_diagram(w)) == ("x" if s == 1 else f"x^{s}")

    def test_even_signed_pair(self):
        for last, sign in ((1, "+"), (-1, "-")):
            w = D(2, 2, [3, last], [3, 1])
            assert fmt(weight_to_diagram(w)) == sign + "oxox"

    def test_zero_marker_makes_type_two(self):
        w = D(3, 1, [1, 0, 0], [0])
        assert fmt(weight_to_diagram(w)) == "x/>>"

    def test_shifted_pair_of_type_two(self):
        # the same core with both fundamental coordinates raised by one
        wa = D(3, 1, [1, 0, 0], [0])
        wb = D(3, 1, [2, 1, 0], [0])
        da, db = weight_to_diagram(wa), weight_to_diagram(wb)
        assert fmt(da) == "x/>>" and fmt(db) == "x>>"
        assert da.t == 2 and db.t == 0

    @pytest.mark.parametrize("bad", [
        D(2, 0, [1, -1], []),          # colliding coordinates
        D(2, 0, [1, 1], []),           # tie away from zero
        D(1, 1, [Q(1, 2)], [1]),       # not an integer
        B(1, 1, [Q(-1, 2)], [Q(5, 2)]),  # unpaired zero '>' without +1/2
        B(2, 1, [Q(1, 2), Q(1, 2)], [Q(1, 2)]),  # tie away from -1/2
    ])
    def test_rejects_non_dominant(self, bad):
        with pytest.raises(DomainError):
            weight_to_diagram(bad)


class TestDiagramToWeight:
    def test_odd_minimal(self):
        w = diagram_to_weight(P("-x", 1), 1, 1)
        assert (w.a, w.b) == ((Q(-1, 2),), (Q(1, 2),))

    def test_even_stack(self):
        w = diagram_to_weight(P("x^2", 0), 2, 2)
        assert w.a == (0, 0) and w.b == (0, 0)

    def test_type_two_appends_zero_coordinate(self):
        w = diagram_to_weight(P(">", 2), 0, 0)
        assert w.a == (Q(0),) and w.b == ()

    def test_odd_series_cored_zero_weight(self):
        for n in (1, 2):
            d = P(("-x>>" if n == 1 else f"-x^{n}>>"), 1)
            w = diagram_to_weight(d, n + 2, n)
            assert w.a == (Q(5, 2), Q(3, 2)) + (Q(-1, 2),) * n
            assert w.b == (Q(1, 2),) * n

    def test_count_mismatch(self):
        with pytest.raises(DomainError):
            diagram_to_weight(P("-x", 1), 2, 1)

    def test_round_trip_over_enumeration(self, corefree_pool):
        for h in corefree_pool:
            k = atypicality(h)
            m = h.count(GT) + k - (1 if h.t == 2 else 0)
            n = h.count(LT) + k
            w = diagram_to_weight(h, m, n)
            assert weight_to_diagram(w) == h

    def test_round_trip_with_cores(self, small_cores):
        from ospds.howl import UnhowlError, unhowl
        for t, cores in small_cores.items():
            for g in cores:
                for k in (0, 1, 2):
                    for h in enumerate_corefree(t, k, 5):
                        try:
                            f = unhowl(g, h)[0]
                        except UnhowlError:
                            continue
                        m = f.count(GT) + k - (1 if t == 2 else 0)
                        n = f.count(LT) + k
                        w = diagram_to_weight(f, m, n)
                        assert weight_to_diagram(w) == f, fmt(f)


class TestParseWeight:
    def test_basic(self):
        w = parse_weight("B 1 1 / -1/2 / 1/2")
        assert fmt(weight_to_diagram(w)) == "-x"

    def test_empty_sections(self):
        w = parse_weight("D 0 1 / - / 2")
        assert w.a == () and w.b == (Q(2),)

    def test_bad_header(self):
        with pytest.raises(DomainError):
            parse_weight("E 1 1 / 1 / 1")

    @pytest.mark.parametrize("text", ["1e3", "2.5E-1", ".5e+00001", "3.e0000000000002",
                                      "1e99999", "-7e-5"])
    def test_exponent_literals_of_up_to_five_digits_read_as_fraction(self, text):
        w = parse_weight(f"D 1 0 / {text} / -")
        assert w.a == (Q(text),) and type(w.a[0]) is Q

    def test_only_a_token_that_is_no_plain_number_meets_the_exponent_check(self, monkeypatch):
        calls, real = [], weightmap._check_exponent
        monkeypatch.setattr(weightmap, "_check_exponent", lambda text: calls.append(text) or real(text))
        assert parse_weight("B 1 1 / -1/2 / 1/2").a == (Q(-1, 2),)
        assert calls == []
        assert parse_weight("D 1 0 / 1e3 / -").a == (Q(1000),)
        assert calls == ["1e3"]
        with pytest.raises(DomainError, match="exponent longer than the cap"):
            parse_weight("D 1 0 / 1e100000000 / -")

    def test_fields_stay_fractions(self):
        q = Q(5, 2)
        w = DominantWeight("B", 1, 0, [q], [])
        assert w.a[0] is q and weight_to_diagram(w) == weight_to_diagram(B(1, 0, ["5/2"], []))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: DominantWeight("B", 1, 1, (), ()), "lengths m and n", id="lengths"),
    pytest.param(lambda: DominantWeight("D", True, 0, (1,), ()),
                 "m and n must be ints, got True and 0", id="m=True"),
    pytest.param(lambda: diagram_to_weight(P("+ox", 0), True, 1),
                 "m and n must be ints, got True and 1", id="diagram_to_weight m=True"),
    pytest.param(lambda: weight_to_diagram(D(1, 0, [10_001], [])),
                 "coordinate above the cap", id="coordinate cap"),
    pytest.param(lambda: weight_to_diagram(D(10_001, 10_001, [0] * 10_001, [0] * 10_001)),
                 "zero stack above the cap", id="stack cap"),
    pytest.param(lambda: weight_to_diagram(D(2, 0, [0, 0], [])),
                 "too many coordinates at the zero position", id="zero position"),
    pytest.param(lambda: weight_to_diagram(D(1, 1, [1], [0])),
                 "'<' at the zero position needs m = 0", id="zero '<' with m > 0"),
    pytest.param(lambda: weight_to_diagram(B(0, 1, [], [1])),
                 "delta coefficients must be half-integers", id="integer delta"),
    pytest.param(lambda: weight_to_diagram(D(0, 1, [], [-1])),
                 "coefficients must be non-negative", id="negative D coefficient"),
    pytest.param(lambda: DominantWeight("D", 1, 0, [float("inf")], []),
                 "must be a rational number, got inf", id="inf"),
    pytest.param(lambda: DominantWeight("D", 1, 0, ["a"], []),
                 "must be a rational number, got 'a'", id="coefficient 'a'"),
    pytest.param(lambda: DominantWeight("D", 0, 1, [], [None]),
                 "must be a rational number, got None", id="coefficient None"),
    pytest.param(lambda: DominantWeight("B", 1, 0, [float("nan")], []),
                 "must be a rational number, got nan", id="NaN"),
    pytest.param(lambda: DominantWeight("D", 1, 0, 5, []),
                 "weight coordinates must be a list, got 5", id="coefficients 5"),
    pytest.param(lambda: DominantWeight("D", 1, 0, ["1e100000000"], []),
                 "exponent longer than the cap MAX_WIDTH = 10000", id="exponent 1e100000000"),
    pytest.param(lambda: parse_weight("D 1 0 / 1e-0_123_456 / -"),
                 "exponent longer than the cap MAX_WIDTH = 10000", id="exponent 1e-0_123_456"),
    pytest.param(lambda: D(1, 0, [1], [])._replace(m=1.0),
                 "m and n must be ints, got 1.0 and 0", id="_replace m=1.0"),
])
def test_public_checks_refuse(call, message):
    with pytest.raises(DomainError, match=message):
        call()
