import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qident.qcore import PoleError, Ratio, qpoch, qpoch_multi
from qident.hyper import (contiguous_alpha, contiguous_beta,
                          contiguous_residual_1, contiguous_residual_2,
                          linear, pair_row, poch_ratio, poch_ratio_pairs,
                          poch_ratio_sum, trivial_identity_residuals,
                          wp_pairs, wp_term)
from qident.identities import CrRow
import reference_loops as ref

small_rats = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
# a parameter and the power of q that is its base
params = st.lists(st.tuples(small_rats, st.sampled_from((1, 2))), max_size=4)


def rand_rational(rng, bound=1000):
    num = 0
    while num == 0:
        num = rng.randint(-bound, bound)
    den = 0
    while den == 0:
        den = rng.randint(-bound, bound)
    return Fraction(num, den)


def rand_q(rng, bound=1000):
    while True:
        v = rand_rational(rng, bound)
        if v not in (0, 1, -1):
            return v


# The phi sums: the terminating r+1_phi_r series sum_{k < terms} of
# (nums;q)_k z^k / (q, dens;q)_k, as poch_ratio_sum with q put first in dens.

def test_phi_sum_single_term():
    assert poch_ratio_sum([2, 3], [2, 5], 2, 1, 1) == 1


def test_phi_sum_two_terms_against_hand_sum():
    # independent oracle: sum the k=0 and k=1 terms from raw Pochhammers
    q = Fraction(2)
    expected = 1 + (qpoch_multi([2, 3], q, 1) * 1
                    / (qpoch(q, q, 1) * qpoch(5, q, 1)))
    assert expected == Fraction(3, 2)
    assert poch_ratio_sum([2, 3], [q, 5], q, 1, 2) == expected


def test_phi_sum_unit_numerator_param_collapses():
    q = Fraction(2, 3)
    assert poch_ratio_sum([1, Fraction(3, 7), 5], [q, 2, 11], q,
                          Fraction(9, 4), 6) == 1


def test_phi_sum_zero_argument():
    rng = random.Random(7)
    for _ in range(5):
        q = rand_q(rng)
        assert poch_ratio_sum([rand_rational(rng) for _ in range(3)],
                              [q] + [rand_rational(rng) for _ in range(2)],
                              q, 0, 5) == 1


def test_phi_sum_parameter_permutation_invariance():
    rng = random.Random(11)
    for _ in range(5):
        nums = [rand_rational(rng) for _ in range(4)]
        dens = [rand_rational(rng) for _ in range(3)]
        q, z = rand_q(rng), rand_rational(rng)
        base = poch_ratio_sum(nums, [q] + dens, q, z, 5)
        for _ in range(3):
            rng.shuffle(nums)
            rng.shuffle(dens)
            assert poch_ratio_sum(nums, [q] + dens, q, z, 5) == base


def test_phi_sum_pole_reported_with_position():
    # denominator parameter q^{-1} makes (q^{-1};q)_k vanish from k=2 on
    with pytest.raises(PoleError, match="k="):
        poch_ratio_sum([2, 3], [2, Fraction(1, 2)], 2, 1, 4)


@settings(max_examples=200, deadline=None)
@given(params, params, small_rats.filter(lambda v: v not in (0, 1, -1)),
       small_rats, st.integers(0, 8))
def test_poch_ratio_terms_match_pochhammers(nums, dens, q, z, n):
    def entries(ps):
        return [a if e == 1 else (a, q**e) for a, e in ps]

    def poch(ps, k):
        out = Fraction(1)
        for a, e in ps:
            out *= ref.qpoch(a, q**e, k)
        return out

    expected = []
    for k in range(n + 1):
        den = poch(dens, k)
        if den == 0:
            break
        expected.append(poch(nums, k) * z**k / den)
    got, error = ref.drain(ref.poch_ratio_terms(entries(nums), entries(dens),
                                                q, z, n + 1))
    assert got == expected
    assert error is None or len(expected) <= n
    assert poch_ratio_sum(entries(nums), entries(dens), q, z,
                          len(got)) == sum(expected)


def _assert_pairs_match_the_fraction_loop(nums, dens, q, z, terms, pre):
    """The kernel's int pairs against the Fraction loop: the same terms, each
    den dividing the next, and a pole at the same k with the same message;
    and the values reduced once from them, ``poch_ratio``, ``poch_ratio_sum``
    and a row of the terms times pre, equal the reference's."""
    expected, error = ref.drain(ref.poch_ratio_terms(nums, dens, q, z, terms))
    pairs, pair_error = ref.drain(poch_ratio_pairs(nums, dens, q, z, terms))
    assert [Fraction(num, den) for num, den in pairs] == expected
    assert pair_error == error
    assert all(den % prev == 0 for (_, prev), (_, den) in zip(pairs, pairs[1:]))
    total = sum(expected, Fraction(0))
    assert (ref.outcome(poch_ratio_sum, nums, dens, q, z, terms)
            == (error if error else total))
    if terms:
        assert (ref.outcome(poch_ratio, nums, dens, q, terms - 1, z)
                == (error if error else expected[-1]))
    row = pair_row(poch_ratio_pairs(nums, dens, q, z, terms), terms - 1, pre)
    assert [row.term(k) for k in range(len(row.pairs))] == [
        pre * t for t in expected]
    assert (ref.outcome(row.total)
            == ((PoleError, error[1]) if error else pre * total))


@settings(max_examples=300, deadline=None)
@given(params, params, small_rats, small_rats,
       st.one_of(st.none(), small_rats), st.integers(0, 9), small_rats)
def test_poch_ratio_terms_matches_the_fraction_loop(nums, dens, q, z, zp,
                                                    terms, pre):
    # any q, zero and negative parameters, pair entries and a pair z: the
    # same terms, and a pole at the same k with the same message
    nums = [a if e == 1 else (a, q**e) for a, e in nums]
    dens = [b if e == 1 else (b, q**e) for b, e in dens]
    z = z if zp is None else (z, zp)
    _assert_pairs_match_the_fraction_loop(nums, dens, q, z, terms, pre)


@pytest.mark.parametrize("bound", [2, 3, 1000])
def test_poch_ratio_terms_matches_the_fraction_loop_at_bound(bound):
    rng = random.Random(bound)

    def draw():
        return rng.choice((0, 1, -1)) if rng.random() < 0.1 else \
            rand_rational(rng, bound)

    def entry():
        return draw() if rng.random() < 0.7 else (draw(), draw())

    poles = 0
    for _ in range(400):
        q = draw()
        nums = [entry() for _ in range(rng.randint(0, 4))]
        dens = [q] + [entry() for _ in range(rng.randint(0, 4))]
        z = draw() if rng.random() < 0.7 else (draw(), draw())
        terms = rng.randint(0, 8)
        expected = ref.drain(ref.poch_ratio_terms(nums, dens, q, z, terms))
        _assert_pairs_match_the_fraction_loop(nums, dens, q, z, terms, draw())
        poles += expected[1] is not None
    if bound <= 3:
        assert poles > 0


def _as_ratios(v):
    """v with every Fraction in it, pair entries too, as an unreduced Ratio,
    numerator and denominator times -2."""
    if isinstance(v, (list, tuple)):
        return type(v)(_as_ratios(x) for x in v)
    return Ratio(-2 * v.numerator, -2 * v.denominator)


@settings(max_examples=300, deadline=None)
@given(params, params, small_rats.filter(lambda v: v not in (0, 1, -1)),
       small_rats, st.one_of(st.none(), small_rats), st.integers(0, 9),
       st.integers(0, 4))
def test_kernel_reads_ratio_parameters_as_fractions(nums, dens, q, z, zp,
                                                    terms, j):
    # the kernel, poch_ratio_sum and wp_pairs on unreduced Ratio parameters:
    # each reduced as it is read, so the same pairs as on Fractions, and a
    # pole with a byte-identical message; a denominator q^{-j} puts a pole at
    # k = j + 1
    nums = [a if e == 1 else (a, q**e) for a, e in nums]
    dens = [q, q**-j] + [b if e == 1 else (b, q**e) for b, e in dens]
    z = z if zp is None else (z, zp)
    args = (nums, dens, q, z)
    expected = ref.drain(poch_ratio_pairs(*args, terms))
    assert ref.drain(poch_ratio_pairs(*_as_ratios(args), terms)) == expected
    assert (ref.outcome(poch_ratio_sum, *_as_ratios(args), terms)
            == ref.outcome(poch_ratio_sum, *args, terms))
    wp = ([q * q] + [a for a in nums if not isinstance(a, tuple)], q, z)
    assert (ref.outcome(lambda: ref.drain(wp_pairs(*_as_ratios(wp), terms)))
            == ref.outcome(lambda: ref.drain(wp_pairs(*wp, terms))))


def test_kernel_pole_message_names_a_ratio_as_its_fraction():
    # (q^{-2};q)_k vanishes from k = 3 on, (q^{-2};q^2)_k from k = 2 on
    q = Fraction(2, 3)
    for b, k in ((q**-2, 3), ((q**-2, q*q), 2)):
        pairs, error = ref.drain(poch_ratio_pairs([], [q, _as_ratios(b)],
                                                  _as_ratios(q), 1, 5))
        assert len(pairs) == k
        assert error == (PoleError, "denominator factor 1 - (%s) q^%d "
                                    "vanished at k=%d" % (b, k - 1, k))


@settings(max_examples=100, deadline=None)
@given(params, params, small_rats.filter(lambda v: v not in (0, 1, -1)),
       small_rats, small_rats.filter(lambda v: v != 0), st.integers(0, 8))
def test_poch_ratio_terms_pair_z_is_quadratic(nums, dens, q, z, p, n):
    # z given as (z, p) reads z^k p^{k(k-1)/2}
    def entries(ps):
        return [a if e == 1 else (a, q**e) for a, e in ps]

    def poch(ps, k):
        out = Fraction(1)
        for a, e in ps:
            out *= ref.qpoch(a, q**e, k)
        return out

    got, error = ref.drain(ref.poch_ratio_terms(entries(nums), entries(dens),
                                                q, (z, p), n + 1))
    if error:
        assert poch(dens, len(got)) == 0
    else:
        assert len(got) == n + 1
    for k, t in enumerate(got):
        assert t == poch(nums, k) * z**k * p**(k*(k-1)//2) / poch(dens, k)
    assert poch_ratio_sum(entries(nums), entries(dens), q, (z, p),
                          len(got)) == sum(got)


def test_poch_ratio_terms_pole_at_known_k():
    # (1/8;2)_k vanishes from k = 4 on: 1 - (1/8) 2^3 = 0
    q = Fraction(2)
    nums, dens = [Fraction(3, 5), Fraction(-7, 2)], [q, Fraction(1, 8)]
    pairs = poch_ratio_pairs(nums, dens, q, Fraction(5, 3), 7)
    for k in range(4):
        assert Fraction(*next(pairs)) == (qpoch_multi(nums, q, k)
                                          * Fraction(5, 3)**k
                                          / qpoch_multi(dens, q, k))
    with pytest.raises(PoleError, match="k=4"):
        next(pairs)
    with pytest.raises(PoleError):
        poch_ratio_sum(nums, dens, q, Fraction(5, 3), 7)
    assert poch_ratio_sum(nums, dens, q, Fraction(5, 3), 4) == sum(
        ref.poch_ratio_terms(nums, dens, q, Fraction(5, 3), 4))
    row = pair_row(poch_ratio_pairs(nums, dens, q, Fraction(5, 3), 7), 6)
    assert len(row.pairs) == 4
    assert row.term(3) != 0
    assert row.term(-1) == row.term(7) == 0
    with pytest.raises(PoleError):
        row.term(4)
    with pytest.raises(PoleError):
        row.total()


# The pair form: a row keeps the kernel's own int pairs times its prefactor,
# and an entry is reduced only where it is read as a term.

def _reduced(outcome):
    """An outcome of a ``pair`` read reduced as ``term`` reduces it; an
    error as it is."""
    return Fraction(*outcome) if isinstance(outcome[0], int) else outcome


@settings(max_examples=300, deadline=None)
@given(params, params, small_rats.filter(lambda v: v not in (0, 1, -1)),
       small_rats, st.integers(1, 9), small_rats)
@example([(Fraction(3, 5), 1)], [(Fraction(1, 4), 1)], Fraction(2),
         Fraction(5, 3), 7, Fraction(-2, 3))        # a pole at k = 3
def test_row_keeps_the_kernel_pairs(nums, dens, q, z, terms, pre):
    nums = [a if e == 1 else (a, q**e) for a, e in nums]
    dens = [b if e == 1 else (b, q**e) for b, e in dens]
    pairs, error = ref.drain(poch_ratio_pairs(nums, dens, q, z, terms))
    # each den divides the next: a step multiplies its ratio's den in
    assert all(den % prev == 0 for (_, prev), (_, den) in zip(pairs, pairs[1:]))
    row = pair_row(poch_ratio_pairs(nums, dens, q, z, terms), terms - 1, pre)
    assert row.pairs == [(num * pre.numerator, den * pre.denominator)
                         for num, den in pairs]
    # a pole raises from pair exactly where, and as, it raises from term
    for k in range(-1, terms + 1):
        assert ref.outcome(row.term, k) == _reduced(ref.outcome(row.pair, k))
    if error is None:
        assert row.total() == sum(row.term(k) for k in range(terms))
    else:
        assert ref.outcome(row.total) == (PoleError, row.pole)


@settings(max_examples=100, deadline=None)
@given(st.lists(small_rats, min_size=1, max_size=3, unique=True), small_rats,
       small_rats.filter(lambda v: v not in (0, 1, -1)), small_rats,
       st.integers(0, 3))
def test_cr_row_pair_agrees_with_its_term(xs, a, q, b, n):
    # axis i has the pole of (a x_i;q)_k where a x_i q^j = 1 for some j < n
    axes = tuple(pair_row(poch_ratio_pairs([b * x], [q, a * x], q, x, n + 1),
                          n) for x in xs)
    row = CrRow(n, a, q, xs, axes)
    terms = []
    for ks in itertools.product(range(-1, n + 2), repeat=len(xs)):
        term = ref.outcome(row.term, ks)
        assert term == _reduced(ref.outcome(row.pair, ks))
        if all(0 <= k <= n for k in ks):
            terms.append(term)
    if all(isinstance(t, Fraction) for t in terms):
        assert row.total() == sum(terms)
    else:
        assert ref.outcome(row.total)[0] is PoleError


# int pairs each of whose den divides the next: a list of (num, den step)
# builds them as (num, den steps multiplied so far)
pair_steps = st.lists(st.tuples(st.integers(-9, 9),
                                st.integers(-6, 6).filter(bool)), max_size=7)
STEPS = [(1, 1), (-2, 3), (5, -2), (4, 7), (-1, 1)]


@settings(max_examples=300, deadline=None)
@given(pair_steps, small_rats, small_rats)
@example(STEPS, Fraction(0), Fraction(5, 2))                 # c = 0
@example(STEPS, Fraction(2, 3), Fraction(-3, 4))             # p < 0
@example(STEPS, Fraction(-4, 9) ** -2, Fraction(-4, 9))      # 0 at k = 2
def test_linear_matches_the_per_term_fraction_product(steps, c, p):
    pairs, den = [], 1
    for num, step in steps:
        den *= step
        pairs.append((num, den))
    got = list(linear(iter(pairs), c, p))
    assert [Fraction(num, den) for num, den in got] == [
        Fraction(num, den) * (1 - c * p**k)
        for k, (num, den) in enumerate(pairs)]
    assert all(d % e == 0 for (_, e), (_, d) in zip(got, got[1:]))
    if len(pairs) > 2 and c * p**2 == 1:
        # a vanished factor is a zero term over a nonzero den, never a pole
        assert got[2][0] == 0 and got[2][1] != 0


def test_wp_term_values():
    assert wp_term((3, 5), 2, 1, 0) == 1
    assert wp_term((3, 5), 2, 1, -1) == 0
    assert wp_term((3, 5), 2, 1, 1) == 40
    assert wp_term((3, 5, 7), Fraction(2, 3), 0, 2) == 0
    with pytest.raises(ValueError, match="at least two parameters"):
        wp_term((3,), 2, 1, 1)


def test_contiguous_residuals_vanish():
    rng = random.Random(123)
    for r in range(2, 10):
        for _ in range(3):
            t = (tuple(rand_rational(rng) for _ in range(r + 1)),
                 rand_q(rng), rand_rational(rng))
            for k in (0, 1, 3, 5):
                assert contiguous_residual_1(*t, k) == 0
                assert contiguous_residual_2(*t, k) == 0


def test_contiguous_residual_2_covers_r1():
    rng = random.Random(5)
    for _ in range(5):
        t = ((rand_rational(rng), rand_rational(rng)),
             rand_q(rng), rand_rational(rng))
        for k in (0, 1, 2, 5):
            assert contiguous_residual_2(*t, k) == 0


def test_contiguous_residual_1_singular_at_r1():
    # bumping the anchor itself: the coefficient denominator 1 - a_1/a_r
    # is identically zero
    with pytest.raises(PoleError):
        contiguous_residual_1((3, 5), 2, 1, 2)


def test_alpha_beta_middle_product_conventions():
    rng = random.Random(31)
    # r = 2: empty middle product in alpha; r = 1: empty middle in beta
    a2 = [rand_rational(rng) for _ in range(3)]
    q, z = rand_q(rng), rand_rational(rng)
    val = contiguous_alpha(a2, q, z)
    expected = ((a2[1] - a2[2]) * (1 - a2[0]/(a2[1]*a2[2]))
                * (1 - a2[0]) * (1 - a2[0]*q) * z
                / ((1 - a2[0]/a2[1]) * (1 - a2[0]/a2[2])
                   * (1 - a2[0]*q/a2[1]) * (1 - a2[0]*q/a2[2])))
    assert val == expected
    a1 = [rand_rational(rng) for _ in range(2)]
    val = contiguous_beta(a1, q, z)
    expected = (-(1 - a1[0]) * (1 - a1[0]*q) * z
                / ((1 - a1[0]/a1[1]) * (1 - a1[0]*q/a1[1])))
    assert val == expected


def test_trivial_identity_residuals():
    assert trivial_identity_residuals(Fraction(2, 3), 5, 7, 4) == (0, 0)
    assert trivial_identity_residuals(Fraction(3, 2), 5, 7, 1) == (0, 0)
    assert trivial_identity_residuals(0, 5, 7, Fraction(9, 2)) == (0, 0)
    rng = random.Random(17)
    for _ in range(10):
        a, b, c, x = (rand_rational(rng) for _ in range(4))
        if b in (0, 1) or c in (0, 1) or a in (b, c):
            continue
        assert trivial_identity_residuals(a, b, c, x) == (0, 0)


def test_trivial_identity_preconditions():
    with pytest.raises(PoleError):
        trivial_identity_residuals(2, 1, 7, 4)
    with pytest.raises(PoleError):
        trivial_identity_residuals(2, 5, 0, 4)
    with pytest.raises(PoleError):
        trivial_identity_residuals(5, 5, 7, 4)
