import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qident.hyper import _ints
from qident.identities import _div, random_rational
from qident.qcore import (DegenerateQ, MissingSymbol, ParamPoint, PoleError,
                          Ratio, qbinom, qpoch, qpoch_multi)
import reference_loops as ref

nonzero = st.integers(-60, 60).filter(lambda v: v != 0)
rationals = st.builds(Fraction, nonzero, nonzero)
qvals = rationals.filter(lambda v: v not in (1, -1))


def test_rational_normal_form():
    # lowest terms, positive denominator
    assert Fraction(2, 4).denominator == 2
    assert Fraction(1, -2) == Fraction(-1, 2)
    assert Fraction(1, -2).denominator == 2
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / 0


def test_qpoch_empty_product():
    assert qpoch(Fraction(7, 3), 5, 0) == 1


def test_qpoch_small_products():
    assert qpoch(3, 2, 2) == 10          # (1-3)(1-6)
    assert qpoch(3, 2, 1) == -2
    assert qpoch(Fraction(1, 2), Fraction(1, 3), 3) == \
        Fraction(1, 2) * Fraction(5, 6) * Fraction(17, 18)


def test_qpoch_negative_index():
    assert qpoch(3, 2, -1) == -2         # 1/(1 - 3/2)
    a, q = Fraction(5, 7), Fraction(2, 3)
    for m in range(1, 6):
        assert qpoch(a, q, -m) * qpoch(a * q**(-m), q, m) == 1


def test_qpoch_negative_index_pole():
    # a = q makes the factor 1 - a/q vanish
    with pytest.raises(PoleError):
        qpoch(2, 2, -1)


@settings(max_examples=60)
@given(rationals, qvals, st.integers(-5, 5), st.integers(-5, 5))
def test_qpoch_addition_law(a, q, m, n):
    try:
        lhs = qpoch(a, q, m + n)
        rhs = qpoch(a, q, m) * qpoch(a * q**m, q, n)
    except PoleError:
        return
    assert lhs == rhs


def test_qpoch_multi():
    assert qpoch_multi([Fraction(1, 2), 4], 3, 0) == 1
    assert qpoch_multi([3, 5], 2, 1) == 8   # (1-3)(1-5)
    assert qpoch_multi([], 7, 4) == 1


def test_qpoch_multi_identifies_offender():
    with pytest.raises(PoleError, match="factor 2 of 2"):
        qpoch_multi([3, 2], 2, -1)


def test_qbinom_edges():
    q = Fraction(5, 3)
    assert qbinom(4, 0, q) == 1
    assert qbinom(4, 4, q) == 1
    assert qbinom(3, 5, q) == 0
    assert qbinom(3, -1, q) == 0
    assert qbinom(2, 1, 2) == 3             # 1 + q at q=2


def test_qbinom_degenerate_and_roots():
    with pytest.raises(DegenerateQ):
        qbinom(3, 1, 0)
    with pytest.raises(DegenerateQ):
        qbinom(3, 1, 1)
    with pytest.raises(PoleError):
        qbinom(4, 2, -1)


@settings(max_examples=60)
@given(st.integers(0, 10), st.integers(0, 10), qvals)
def test_qbinom_symmetry(n, k, q):
    try:
        assert qbinom(n, k, q) == qbinom(n, n - k, q)
    except PoleError:
        return


@settings(max_examples=40)
@given(st.integers(0, 10), st.integers(0, 10), qvals)
def test_qbinom_product_formula(n, k, q):
    # independent oracle: the plain k-factor product without the symmetry trick
    if k < 0 or k > n:
        return
    try:
        expected = Fraction(1)
        for i in range(1, k + 1):
            expected *= (1 - q**(n - k + i)) / (1 - q**i)
        assert qbinom(n, k, q) == expected
    except (PoleError, ZeroDivisionError):
        return


def test_qbinom_recurrence_with_free_parameter():
    # [n,k](1 - a q^n) = [n-1,k](1 - a q^{n+k}) + [n-1,k-1](1 - a q^k) q^{n-k}
    # for n >= 1; at n = 0 the relation would need [-1,0] = 1, which the
    # out-of-range convention here maps to 0 instead.
    rng = random.Random(2024)
    for _ in range(5):
        a = Fraction(rng.randint(1, 40), rng.randint(1, 40)) * rng.choice((1, -1))
        q = Fraction(rng.randint(2, 40), rng.randint(1, 40))
        if q in (0, 1, -1):
            continue
        for n in range(1, 13):
            for k in range(0, n + 1):
                lhs = qbinom(n, k, q) * (1 - a * q**n)
                rhs = (qbinom(n - 1, k, q) * (1 - a * q**(n + k))
                       + qbinom(n - 1, k - 1, q) * (1 - a * q**k) * q**(n - k))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# Ratio: a parameter as one product of numerators over one of denominators
# ---------------------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(rationals, st.integers(-5, 5), st.booleans()),
                max_size=5),
       st.sampled_from((1, -1)), st.booleans(), rationals)
def test_ratio_matches_the_fraction_arithmetic(factors, sign, zero, x):
    # sign * prod f^e or its quotients, e < 0 too, or 0: as one int pair and
    # by Ratio arithmetic, the value the Fraction operations give, reduced by
    # the kernel to the same pair and printed alike; so are its sums and
    # differences with a Fraction and its negation
    num, den = (0 if zero else sign), 1
    expected, got = Fraction(num), Ratio(num)
    for f, e, divide in factors:
        fn, fd = (f.numerator, f.denominator)[::-1 if divide else 1]
        num *= fn**e if e >= 0 else fd**-e
        den *= fd**e if e >= 0 else fn**-e
        expected = expected / f**e if divide else expected * f**e
        r = Ratio(f.numerator, f.denominator)**e
        got = got / r if divide else r * got
    for ratio in (Ratio(num, den), got):
        assert _ints(ratio) == (expected.numerator, expected.denominator)
        assert _div(ratio, 1) == expected
        assert str(ratio) == str(expected)
        assert repr(ratio) == repr(expected)
        assert "%s" % ((ratio, ratio),) == "%s" % ((expected, expected),)
    for value, wanted in ((1 - got, 1 - expected), (got - x, expected - x),
                          (x + got, x + expected), (got + 1, expected + 1),
                          (-got, -expected), (x * got, x * expected),
                          (got / x, expected / x)):
        assert type(value) is Ratio and _div(value, 1) == wanted


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**6, 10**6), nonzero, nonzero,
       st.integers(1, 10**6))
def test_ratio_equality_is_exact_and_conversion_refused(a, b, k, d):
    # an unreduced pair equals its value, with either sign of k, from either
    # side, and differs from any other value; it is not hashed, and no
    # Fraction or point is made from it
    r, x = Ratio(a * k, b * k), Fraction(a, b)
    assert r == x and x == r and not r != x
    assert r == Ratio(a, b) and r == Ratio(-a * d, -b * d)
    assert r != x + Fraction(1, d) and x + Fraction(1, d) != r
    assert r != Ratio(a * k + 1, b * k)
    assert (r == a // b) is (a % b == 0) and (a // b == r) is (a % b == 0)
    assert (r in (0, 1)) is (x in (0, 1))
    assert r != "1" and r != None                       # noqa: E711
    with pytest.raises(TypeError):
        hash(r)
    with pytest.raises(TypeError):
        Fraction(r)
    with pytest.raises(TypeError):
        ParamPoint({"a": r})


def test_ratio_keeps_its_ints_and_refuses_a_zero_denominator():
    r = Ratio(6, -4)
    assert (r.numerator, r.denominator) == (6, -4)
    assert _ints(r) == (-3, 2)
    assert 0 == Ratio(0, 5) and Ratio(0, 5) in (0, 1) and r not in (0, 1)
    assert r * Ratio(2, 2) == Fraction(-3, 2)
    for divide_by_zero in (lambda: Ratio(3, 0), lambda: r / Ratio(0, 5),
                           lambda: Ratio(0, 2) ** -1):
        with pytest.raises(ZeroDivisionError):
            divide_by_zero()


def test_point_ratio_view():
    p = ParamPoint({"a": Fraction(-6, 4), "q": 3}, {"n": 2})
    q, a = p.ratios("qa")
    assert (q.numerator, q.denominator, a.numerator, a.denominator) == (
        3, 1, -3, 2)
    assert p.ratios("a")[0] is a
    with pytest.raises(MissingSymbol):
        p.ratios("ab")


point_symbols = st.dictionaries(
    st.sampled_from("abz"),
    st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)), max_size=3)
point_indices = st.dictionaries(st.sampled_from("nm"), st.integers(0, 1),
                                max_size=2)


@settings(max_examples=300)
@given(point_symbols, point_indices, point_symbols, point_indices)
def test_points_are_equal_exactly_when_their_values_are(syms, idxs,
                                                        other_syms,
                                                        other_idxs):
    # equal points, built in any order, from ints or Fractions, or by
    # with_symbols to the same values
    p, other = ParamPoint(syms, idxs), ParamPoint(other_syms, other_idxs)
    same = syms == other_syms and idxs == other_idxs
    assert (p == other) == same and (p != other) == (not same)
    as_ints = {k: int(v) if v.denominator == 1 else v for k, v in syms.items()}
    for twin in (ParamPoint(dict(reversed(as_ints.items())),
                            dict(reversed(idxs.items()))),
                 p.with_symbols(**syms)):
        assert twin == p
    assert ParamPoint(syms, {**idxs, "n": idxs.get("n", 0) + 1}) != p
    assert p != syms


# ---------------------------------------------------------------------------
# the int-pair loops against the per-operation Fraction loops they replaced
# ---------------------------------------------------------------------------

def _draw(rng, bound):
    """A rational of size at most bound, or one of 0, 1 and -1."""
    return rng.choice((0, 1, -1)) if rng.random() < 0.2 else \
        random_rational(rng, bound)


@pytest.mark.parametrize("bound", [2, 3, 1000])
def test_qpoch_matches_the_fraction_loop(bound):
    rng = random.Random(bound)
    poles = 0
    for _ in range(500):
        a, q, n = _draw(rng, bound), _draw(rng, bound), rng.randint(-7, 8)
        expected = ref.outcome(ref.qpoch, a, q, n)
        assert ref.outcome(qpoch, a, q, n) == expected, (a, q, n)
        poles += isinstance(expected, tuple)
    if bound <= 3:
        assert poles > 0


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just(Fraction(0)), rationals),
       st.one_of(st.sampled_from((Fraction(-1), Fraction(1))), rationals),
       st.integers(-8, 8))
def test_qpoch_matches_the_fraction_loop_anywhere(a, q, n):
    assert ref.outcome(qpoch, a, q, n) == ref.outcome(ref.qpoch, a, q, n)


def test_qpoch_negative_index_pole_message_is_unchanged():
    a, q = Fraction(1, 4), Fraction(1, 2)   # a q^{-2} = 1
    got = ref.outcome(qpoch, a, q, -3)
    assert got == ref.outcome(ref.qpoch, a, q, -3)
    assert got == (PoleError, "(a;q)_{-3} hit a vanishing factor "
                              "1 - a q^{-2} at a=1/4, q=1/2")


@pytest.mark.parametrize("bound", [2, 3, 1000])
def test_qbinom_matches_the_fraction_loop(bound):
    rng = random.Random(bound)
    poles = 0
    for _ in range(500):
        n, k, q = rng.randint(-2, 12), rng.randint(-2, 12), _draw(rng, bound)
        expected = ref.outcome(ref.qbinom, n, k, q)
        assert ref.outcome(qbinom, n, k, q) == expected, (n, k, q)
        poles += isinstance(expected, tuple) and expected[0] is PoleError
    assert poles > 0                        # q = -1 with 2 <= k <= n - 2


def test_param_point_validates_q():
    with pytest.raises(DegenerateQ):
        ParamPoint({"q": 0}, {})
    with pytest.raises(DegenerateQ):
        ParamPoint({"q": 1}, {})
    p = ParamPoint({"q": Fraction(2, 3), "a": 5}, {"n": 3})
    assert p.sym("a") == 5
    assert p.idx("n") == 3


def test_param_point_missing_names():
    p = ParamPoint({"a": 1}, {"n": 0})
    with pytest.raises(MissingSymbol):
        p.sym("b")
    with pytest.raises(MissingSymbol):
        p.idx("m")


def test_param_point_updates_leave_original_alone():
    p = ParamPoint({"a": 2, "q": Fraction(1, 2)}, {"n": 1})
    p2 = p.with_symbols(a=7)
    p3 = p.shifted({"a": 1})
    assert p.sym("a") == 2
    assert p2.sym("a") == 7
    assert p3.sym("a") == 1
    assert p2.idx("n") == p.idx("n") == 1


def test_param_point_keeps_fractions_and_converts_the_rest():
    half = Fraction(1, 2)
    given_symbols = {"a": half, "b": 3, "c": "2/6", "q": Fraction(-1, 3)}
    p = ParamPoint(given_symbols, {"n": 2})
    assert p.sym("a") is half
    assert type(p.sym("b")) is Fraction and p.sym("b") == 3
    assert type(p.sym("c")) is Fraction and p.sym("c") == Fraction(1, 3)
    assert p.symbols is not given_symbols
    given_symbols["a"] = 7
    assert p.sym("a") == half
    with pytest.raises(DegenerateQ):
        ParamPoint({"q": Fraction(1)}, {})


def test_param_point_is_frozen_unhashable_and_equal_by_value():
    p = ParamPoint({"a": 2, "q": Fraction(1, 2)}, {"n": 1})
    with pytest.raises(AttributeError):
        p.symbols = {}
    with pytest.raises(AttributeError):
        del p.indices
    with pytest.raises(TypeError):
        hash(p)
    assert p == ParamPoint({"a": Fraction(2), "q": "1/2"}, {"n": 1})
    assert p != ParamPoint({"a": 2, "q": Fraction(1, 2)}, {"n": 2})
    assert p != (p.symbols, p.indices)
    assert ParamPoint({"a": 1}).indices == {}
    # the values made from a point are kept in its __dict__
    p.ratios("a")
    p.derived(ParamPoint.shifted, (("a", 1),))
    assert {"_ratios", "_derived"} <= set(vars(p))
