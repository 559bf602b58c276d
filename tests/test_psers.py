import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qident import psers
from qident.qcore import PoleError
from qident.psers import (QSeries, SERIES_IDENTITIES,
                          infinite_identity_residual,
                          jacobi_product_relation_residual, poch_inf,
                          quintuple_product_relation_residual)
import reference_loops as ref

small_rats = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
coeff_lists = st.lists(small_rats, min_size=1, max_size=9)


def rand_nonzero(rng, bound=1000, exclude=()):
    while True:
        num = rng.randint(-bound, bound)
        den = rng.randint(1, bound)
        v = Fraction(num, den)
        if v != 0 and v not in exclude:
            return v


def test_series_basic_algebra():
    a = QSeries((1, 2, 3))
    b = QSeries((0, 1, Fraction(1, 2)))
    assert (a + b).coeffs == (1, 3, Fraction(7, 2))
    assert (a - b).coeffs == (1, 1, Fraction(5, 2))
    assert (-b).coeffs == (0, -1, Fraction(-1, 2))
    assert (a * b).coeffs == (0, 1, Fraction(5, 2))
    assert (a * 2).coeffs == (2, 4, 6)
    assert a.shift(1).coeffs == (0, 1, 2)
    assert QSeries.monomial(5, 7, 3).is_zero()
    half = Fraction(1, 2)
    kept = QSeries((half, 2, "1/3"))
    assert kept.coeffs[0] is half
    assert kept.coeffs[1:] == (2, Fraction(1, 3))
    assert all(type(c) is Fraction for c in kept.coeffs)
    with pytest.raises(ValueError):
        a + QSeries((1, 2))
    with pytest.raises(ValueError):
        QSeries.monomial(1, -1, 3)
    with pytest.raises(ValueError):
        a.shift(-1)


@settings(max_examples=60)
@given(coeff_lists, coeff_lists)
def test_multiply_then_truncate_is_truncate_then_multiply(xs, ys):
    n = min(len(xs), len(ys)) - 1
    a = QSeries(tuple(xs[:n + 1]))
    b = QSeries(tuple(ys[:n + 1]))
    full = a * b
    for m in range(n + 1):
        assert full.truncate(m) == a.truncate(m) * b.truncate(m)


def test_invert():
    s = QSeries((1, -1, 0, 0, 0))
    inv = s.invert()
    assert inv.coeffs == (1, 1, 1, 1, 1)
    assert (s * inv) == QSeries.one(4)
    with pytest.raises(PoleError):
        QSeries((0, 1)).invert()
    rng = random.Random(12)
    for _ in range(5):
        coeffs = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                       for _ in range(8))
        if coeffs[0] == 0:
            continue
        s = QSeries(coeffs)
        assert s * s.invert() == QSeries.one(7)


def test_series_product_examples():
    euler = poch_inf(1, 1, 1, 5)
    assert euler.coeffs == (1, -1, -1, 0, 0, 1)   # pentagonal pattern
    # extended pentagonal check: exponents j(3j-1)/2 with sign (-1)^j
    big = poch_inf(1, 1, 1, 40)
    expected = [Fraction(0)] * 41
    expected[0] = Fraction(1)
    for j in range(1, 10):
        for e in (j * (3*j - 1) // 2, j * (3*j + 1) // 2):
            if e <= 40:
                expected[e] = Fraction(-1) ** j
    assert big.coeffs == tuple(expected)


def test_jacobi_triple_low_order_example():
    res = infinite_identity_residual("jacobi_triple", {"z": 1}, 1)
    assert res.is_zero()
    # the q^1 coefficient on each side is 2 (k = +/-1 vs the paired products)
    lhs = QSeries.zero(1)
    for k in (-1, 0, 1):
        lhs += QSeries.monomial(Fraction(1) ** k, k * k, 1)
    assert lhs.coeffs[1] == 2


def test_unknown_series_identity():
    with pytest.raises(KeyError):
        infinite_identity_residual("euler", {"z": Fraction(1, 2)}, 10)


def test_series_identities_vanish_to_order_40():
    rng = random.Random(606)
    order = 40
    for identity_id in SERIES_IDENTITIES:
        for _ in range(2):
            if identity_id == "lebesgue_inf":
                params = {"a": rand_nonzero(rng)}
            elif identity_id == "q_kummer":
                params = {"a": rand_nonzero(rng), "b": rand_nonzero(rng)}
            else:
                params = {"z": rand_nonzero(rng)}
            res = infinite_identity_residual(identity_id, params, order)
            assert res.is_zero(), (identity_id, params)


def test_fixed_specializations_to_order_40():
    assert infinite_identity_residual(
        "quintuple", {"z": Fraction(2, 3)}, 40).is_zero()
    assert infinite_identity_residual(
        "ab00", {"z": Fraction(1, 5)}, 40).is_zero()


def test_order_monotonicity():
    # the order-40 residual equals the order-60 residual truncated to 40
    rng = random.Random(607)
    z = rand_nonzero(rng)
    hi = infinite_identity_residual("quintuple", {"z": z}, 60)
    lo = infinite_identity_residual("quintuple", {"z": z}, 40)
    assert hi.truncate(40) == lo
    a, b = rand_nonzero(rng), rand_nonzero(rng)
    hi = infinite_identity_residual("q_kummer", {"a": a, "b": b}, 60)
    lo = infinite_identity_residual("q_kummer", {"a": a, "b": b}, 40)
    assert hi.truncate(40) == lo


def test_product_relations_to_order_60():
    rng = random.Random(608)
    for _ in range(2):
        z = rand_nonzero(rng, exclude=(1, -1))
        assert jacobi_product_relation_residual(z, 60).is_zero()
        assert quintuple_product_relation_residual(z, 60).is_zero()


def test_series_guards():
    with pytest.raises(PoleError):
        infinite_identity_residual("jacobi_triple", {"z": 0}, 10)
    with pytest.raises(PoleError):
        infinite_identity_residual("q_kummer", {"a": 1, "b": 0}, 10)
    with pytest.raises(PoleError):
        quintuple_product_relation_residual(1, 10)
    with pytest.raises(PoleError):
        infinite_identity_residual("lebesgue_inf", {"z": 2}, 10)


# -- binomial-factor kernels ------------------------------------------------

def dense_poch_inf(c, start, step, order):
    """Reference (c q^start; q^step)_infinity: one dense product per factor."""
    result = QSeries.one(order)
    for e in range(start, order + 1, step):
        result = result * (QSeries.one(order) - QSeries.monomial(c, e, order))
    return result


def values(s):
    """The coefficients of an int working series, as Fractions."""
    assert s.den > 0
    return [Fraction(x, s.den) for x in s.nums]


# A working series built from Fractions; ``extra`` puts a common factor in
# every numerator and in the denominator, as the kernels leave behind, and
# ``keep`` truncates it to its first ``keep`` coefficients, as
# ``Coeffs.truncate`` does in the sum builders.
extras = st.sampled_from((1, 2, 3, 6, 7, 36, 5040))
factor_coeffs = st.one_of(st.integers(-9, 9).map(Fraction), small_rats)


def working(xs, extra, keep):
    s = psers.Coeffs.of_fractions(xs)
    s.nums = [extra * x for x in s.nums]
    s.den *= extra
    s.truncate(keep - 1)
    return s


@settings(max_examples=80)
@given(coeff_lists, small_rats, st.integers(0, 10))
def test_mul_kernel_matches_dense_product(xs, c, e):
    n = len(xs) - 1
    out = psers.Coeffs.of_fractions(xs)
    psers._mul_binomial(out, c, e)
    factor = QSeries.one(n) - QSeries.monomial(c, e, n)
    assert out.series() == QSeries(tuple(xs)) * factor


@settings(max_examples=80)
@given(coeff_lists, small_rats, st.integers(1, 10))
def test_div_kernel_matches_inverses(xs, c, e):
    n = len(xs) - 1
    out = psers.Coeffs.of_fractions(xs)
    psers._div_binomial(out, c, e)
    quotient = out.series()
    factor = QSeries.one(n) - QSeries.monomial(c, e, n)
    assert quotient == QSeries(tuple(xs)) * factor.invert()
    assert quotient * factor == QSeries(tuple(xs))


@settings(max_examples=300, deadline=None)
@given(coeff_lists, extras, st.integers(1, 9), factor_coeffs,
       st.integers(0, 12))
def test_mul_kernel_matches_the_fraction_loop(xs, extra, keep, c, e):
    out = working(xs, extra, keep)
    expected = xs[:keep]
    ref._mul_binomial(expected, c, e)
    psers._mul_binomial(out, c, e)
    assert values(out) == expected


@settings(max_examples=300, deadline=None)
@given(coeff_lists, extras, st.integers(1, 9), factor_coeffs,
       st.integers(1, 12))
def test_div_kernel_matches_the_fraction_loop(xs, extra, keep, c, e):
    out = working(xs, extra, keep)
    expected = xs[:keep]
    ref._div_binomial(expected, c, e)
    psers._div_binomial(out, c, e)
    assert values(out) == expected


def test_div_kernel_scales_only_on_demand():
    # 1/(1 - q/2) needs 2^i at q^i: the first step scales by 2^{floor(N/e)}
    out = psers._one(6)
    psers._div_binomial(out, Fraction(1, 2), 1)
    assert out.den == 2 ** 6
    assert values(out) == [Fraction(1, 2 ** i) for i in range(7)]
    # every step of 1/(1 - q^2/2) on 2^6 (1, 1/2, ..., 1/64) stays integral
    psers._div_binomial(out, Fraction(1, 2), 2)
    assert out.den == 2 ** 6
    expected = [Fraction(1, 2 ** i) for i in range(7)]
    ref._div_binomial(expected, Fraction(1, 2), 2)
    assert values(out) == expected


@settings(max_examples=300, deadline=None)
@given(coeff_lists, extras, coeff_lists, extras, st.integers(0, 8),
       small_rats.filter(lambda c: c.denominator != 1 or abs(c) > 1))
def test_add_shifted_matches_the_fraction_loop(acc_xs, acc_extra, term_xs,
                                               term_extra, shift, scale):
    shift = min(shift, len(acc_xs) - 1)
    keep = min(len(term_xs), len(acc_xs) - shift)
    acc = working(acc_xs, acc_extra, len(acc_xs))
    term = working(term_xs, term_extra, keep)
    expected = list(acc_xs)
    ref._add_shifted(expected, term_xs[:keep], shift, scale)
    psers._add_shifted(acc, term, shift, scale)
    assert values(acc) == expected
    assert values(term) == term_xs[:keep]


poch_factors = st.lists(st.tuples(factor_coeffs, st.integers(0, 4),
                                  st.integers(1, 4)), max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 30), poch_factors)
def test_poch_products_match_the_fraction_loop(order, factors):
    assert (values(psers._poch_products(order, *factors))
            == ref._poch_products(order, *factors))


@settings(max_examples=40, deadline=None)
@given(small_rats, st.sampled_from((0, 1, 2)), st.sampled_from((1, 2, 4)),
       st.integers(0, 30))
def test_poch_inf_matches_dense_reference(c, start, step, order):
    assert poch_inf(c, start, step, order) == dense_poch_inf(c, start, step,
                                                              order)


def test_geometric_inverse_powers_and_guards():
    # 1/(1 - c q^3) by the division kernel: c^j at q^{3j}, 0 elsewhere
    g = psers._one(10)
    psers._div_binomial(g, Fraction(-2, 3), 3)
    assert g.series().coeffs == tuple(
        Fraction(-2, 3) ** (i // 3) if i % 3 == 0 else 0 for i in range(11))
    with pytest.raises(ValueError):
        poch_inf(1, -1, 1, 5)


# One fixed specialization per series identity.
FIXED_POINTS = {
    "jacobi_triple": {"z": Fraction(3, 7)},
    "quintuple": {"z": Fraction(-5, 4)},
    "lebesgue_inf": {"a": Fraction(2, 9)},
    "ab11": {"z": Fraction(-7, 3)},
    "ab00": {"z": Fraction(4, 11)},
    "q_kummer": {"a": Fraction(-3, 5), "b": Fraction(7, 2)},
}


def test_series_identities_vanish_to_order_200():
    for identity_id in SERIES_IDENTITIES:
        res = infinite_identity_residual(identity_id,
                                         FIXED_POINTS[identity_id], 200)
        assert len(res.coeffs) == 201
        assert res.is_zero(), identity_id


@pytest.mark.parametrize("identity_id", SERIES_IDENTITIES)
def test_one_perturbed_series_factor_is_caught(identity_id, monkeypatch):
    """Scale the coefficient c of exactly one factor (1 - c q^e) by 102/101.

    The perturbed factors are the first and the last that reach the working
    truncation, and every scalar (e = 0) factor.  A rewrite that dropped any
    of them would leave the residual unchanged under the perturbation.  The
    perturbed residual must equal, coefficient by coefficient, the one the
    Fraction reference loops give under the same perturbation: a FAIL report
    prints those coefficients, and every golden series item is a PASS.
    """
    kernels = {psers: psers._mul_binomial, ref: ref._mul_binomial}
    params, order = FIXED_POINTS[identity_id], 40
    calls = {psers: [], ref: []}    # (c, e) of every factor, in call order
    effective = []      # call indices of the factors that reach the truncation

    def recorder(module):
        def record(out, c, e):
            if module is psers and e < len(out):
                effective.append(len(calls[module]))
            calls[module].append((c, e))
            kernels[module](out, c, e)
        return record

    for module in kernels:
        monkeypatch.setattr(module, "_mul_binomial", recorder(module))
    assert infinite_identity_residual(identity_id, params, order).is_zero()
    assert ref.infinite_identity_residual(identity_id, params, order).is_zero()
    assert calls[psers] == calls[ref]
    targets = {effective[0], effective[-1]}
    targets.update(i for i in effective if calls[psers][i][1] == 0)

    for target in sorted(targets):
        def perturber(module):
            count = itertools.count()

            def perturb(out, c, e):
                if next(count) == target:
                    c = c * Fraction(102, 101)
                kernels[module](out, c, e)
            return perturb

        for module in kernels:
            monkeypatch.setattr(module, "_mul_binomial", perturber(module))
        res = infinite_identity_residual(identity_id, params, order)
        assert not res.is_zero(), (identity_id, target, calls[psers][target])
        expected = ref.infinite_identity_residual(identity_id, params, order)
        assert res.coeffs == expected.coeffs, (identity_id, target)
