"""Truncated formal power series in q with exact rational coefficients.

A QSeries holds coefficients c_0..c_N of a series modulo q^{N+1}; it is the
residual a check reads, through ``coeffs`` and ``is_zero``, and its dense
product is the reference the tests hold the kernels below to.  These
series verify the limiting product identities (triple product, quintuple
product, and allied sums) to a prescribed order: the non-q symbols are
specialized to random nonzero rationals, so every q-coefficient comparison
is a rational-function identity check in its own right.  ``SERIES`` names
each identity's symbols, in the order they are drawn, and its residual.

The products are built from factors (1 - c q^e)^{+-1} (Gasper & Rahman,
*Basic Hypergeometric Series*, 2nd ed., section 1.2).  Each factor is applied
in place to a working series in O(N), so an infinite product
(c q^s; q^t)_infinity costs O(N^2 / t) and every identity side is
accumulated in one working series.  A working series holds int numerators
over one shared int denominator, so the factors multiply plain ints; a
QSeries of normalized Fractions is built only for the returned residual.
``qident series --id all --order 200 --trials 1``, one specialization of
each of the six identities, runs in 0.25-0.36 s wall at seeds 1, 2, 3 and
42 (2-core VM, CPython 3.11.7).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, List, Mapping, NamedTuple, Tuple, Union

from .qcore import MissingSymbol, PoleError, _Frozen


class QSeries(_Frozen):
    """Series sum_j c_j q^j + O(q^{N+1}) with exact rational coefficients,
    equal and hashed by ``coeffs``."""

    def __init__(self, coeffs: Tuple[Fraction, ...]):
        self.__dict__["coeffs"] = tuple(
            c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a QSeries needs at least the constant coefficient")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return "QSeries(coeffs=%r)" % (self.coeffs,)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _check_order(self, other: "QSeries") -> None:
        if self.order != other.order:
            raise ValueError("order mismatch: %d vs %d"
                             % (self.order, other.order))

    def __mul__(self, other: Union["QSeries", Fraction, int]) -> "QSeries":
        if not isinstance(other, QSeries):
            s = Fraction(other)
            return QSeries(tuple(a * s for a in self.coeffs))
        self._check_order(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return QSeries(tuple(out))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


# ---------------------------------------------------------------------------
# in-place binomial-factor kernels
# ---------------------------------------------------------------------------
#
# A working series is a list of int numerators s_0..s_N over one shared
# positive int denominator D, so coefficient i is s_i / D.  Multiplying or
# dividing it by one factor (1 - (u/v) q^e) touches each coefficient once
# with int arithmetic only, and no gcd is taken until the residual builds
# its Fractions (Knuth, TAOCP vol. 2, section 4.5.1).  A product of F
# factors costs O(F N) int operations instead of the O(F N^2) of building
# every factor as a dense QSeries.  Coefficients that cannot reach the
# truncation order are never computed: a caller that adds the working series
# at offset q^s keeps only its first N - s + 1 coefficients.

class Coeffs:
    """A working series: int numerators ``nums`` over the shared int
    denominator ``den`` > 0."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: List[int], den: int = 1):
        self.nums = nums
        self.den = den

    def __len__(self) -> int:
        return len(self.nums)

    def copy(self) -> "Coeffs":
        return Coeffs(self.nums[:], self.den)

    def truncate(self, order: int) -> None:
        """Drop the coefficients above q^order in place."""
        del self.nums[order + 1:]

    @classmethod
    def of_fractions(cls, coeffs: List[Fraction]) -> "Coeffs":
        den = lcm(*(c.denominator for c in coeffs))
        return cls([c.numerator * (den // c.denominator) for c in coeffs], den)

    def series(self) -> QSeries:
        den = self.den
        return QSeries(tuple(Fraction(x, den) for x in self.nums))


def _one(order: int) -> Coeffs:
    if order < 0:
        raise ValueError("order must be at least 0, got %d" % order)
    return Coeffs([1] + [0] * order)


def _mul_binomial(out: Coeffs, c: Fraction, e: int) -> None:
    """out *= (1 - c q^e) in place, truncated at len(out) - 1.

    With c = u/v, s_i becomes v s_i - u s_{i-e} (v s_i below q^e) over the
    denominator v D; every s_{i-e} read is the old coefficient.  For e = 0
    the factor is the scalar (1 - c).
    """
    nums = out.nums
    if e >= len(nums):
        return
    u, v = c.numerator, c.denominator
    if v == 1:
        nums[e:] = [x - u * y for x, y in zip(nums[e:], nums)]
        return
    nums[:] = ([v * x for x in nums[:e]]
               + [v * x - u * y for x, y in zip(nums[e:], nums)])
    out.den *= v


def _div_binomial(out: Coeffs, c: Fraction, e: int) -> None:
    """out /= (1 - c q^e) in place for e >= 1, truncated at len(out) - 1.

    Walks up so every s_{i-e} read is already a coefficient of the
    quotient: the recurrence of out = old + c q^e out.  With c = u/v each
    step adds u s_{i-e} / v, kept over D while it is an integer.  At the
    first step where it is not, everything is scaled by v^{floor(N/e)} and
    the walk goes on over v^{floor(N/e)} D: the quotient's coefficient i is
    sum_j (u/v)^j old_{i-je} with j <= i/e, so every later division by v is
    exact.  Scaling on demand keeps q-Kummer's numerators short: its
    1/(aq/b;q)_k needs at most v^i at q^i, where scaling every division up
    front would carry v^{sum_e floor(N/e)} through the whole sum.
    """
    nums = out.nums
    n = len(nums)
    if e >= n:
        return
    u, v = c.numerator, c.denominator
    for i in range(e, n):
        x = nums[i - e]
        if x:
            y, r = divmod(u * x, v)
            if r:
                break
            nums[i] += y
    else:
        return
    scale = v ** ((n - 1) // e)
    nums[:] = [scale * x for x in nums]
    out.den *= scale
    for i in range(i, n):
        nums[i] += u * nums[i - e] // v


def _mul_poch_inf(out: Coeffs, c: Fraction, start: int, step: int) -> None:
    """out *= (c q^start; q^step)_infinity in place."""
    for e in range(start, len(out), step):
        _mul_binomial(out, c, e)


def _div_poch_inf(out: Coeffs, c: Fraction, start: int, step: int) -> None:
    """out /= (c q^start; q^step)_infinity in place, for start >= 1."""
    for e in range(start, len(out), step):
        _div_binomial(out, c, e)


def _poch_products(order: int, *factors: Tuple[Fraction, int, int]) -> Coeffs:
    """prod of (c q^start; q^step)_infinity over (c, start, step) triples."""
    out = _one(order)
    for c, start, step in factors:
        _mul_poch_inf(out, c, start, step)
    return out


def _add_shifted(acc: Coeffs, term: Coeffs, shift: int, scale: Fraction) -> None:
    """acc += scale * q^shift * term; term holds len(acc) - shift coefficients.

    Both lists are brought to the lcm of acc.den and scale's denominator
    times term.den, with one gcd per call.
    """
    term_den = scale.denominator * term.den
    g = gcd(acc.den, term_den)
    grow = term_den // g
    if grow != 1:
        acc.nums = [grow * x for x in acc.nums]
        acc.den *= grow
    factor = scale.numerator * (acc.den // term_den)
    nums = acc.nums
    nums[shift:shift + len(term)] = [
        x + factor * y for x, y in zip(nums[shift:], term.nums)]


def _residual(lhs: Coeffs, rhs: Coeffs) -> QSeries:
    g = gcd(lhs.den, rhs.den)
    lhs_scale, rhs_scale = rhs.den // g, lhs.den // g
    return Coeffs([lhs_scale * a - rhs_scale * b
                   for a, b in zip(lhs.nums, rhs.nums)],
                  lhs.den * lhs_scale).series()


# ---------------------------------------------------------------------------
# the public constructor
# ---------------------------------------------------------------------------

def poch_inf(coeff, start: int, step: int, order: int) -> QSeries:
    """(c q^{start}; q^{step})_infinity truncated: prod_j (1 - c q^{start + j step})."""
    if step <= 0:
        raise ValueError("step must be positive")
    if start < 0:
        raise ValueError("negative q-exponent; specialize symbols instead")
    out = _one(order)
    _mul_poch_inf(out, Fraction(coeff), start, step)
    return out.series()


def _params_of(params: Mapping) -> Mapping[str, Fraction]:
    return {k: Fraction(v) for k, v in params.items()}


def _need(symbols: Mapping[str, Fraction], name: str) -> Fraction:
    if name not in symbols:
        raise MissingSymbol("series identity needs symbol %r" % name)
    return symbols[name]


# ---------------------------------------------------------------------------
# residuals: each side accumulates in one coefficient list
# ---------------------------------------------------------------------------

def _jacobi_triple_residual(z: Fraction, order: int) -> QSeries:
    lhs = [Fraction(1)] + [Fraction(0)] * order
    k = 1
    while k * k <= order:
        lhs[k * k] = z ** k + z ** (-k)
        k += 1
    rhs = _poch_products(order,
                         (Fraction(1), 2, 2),   # (q^2;q^2)_inf
                         (-1 / z, 1, 2),        # (-q/z;q^2)_inf
                         (-z, 1, 2))            # (-qz;q^2)_inf
    return _residual(Coeffs.of_fractions(lhs), rhs)


def _quintuple_exponents(k: int) -> Tuple[int, int]:
    # orders of the two monomials of the k-th bilateral term
    base = k * (3 * k + 1) // 2
    return base + 2 * k + 1, base


def _quintuple_residual(z: Fraction, order: int) -> QSeries:
    lhs = [Fraction(0)] * (order + 1)
    for ks, sign in ((itertools.count(), 1), (itertools.count(1), -1)):
        for k in ks:
            k *= sign
            e_hi, e_lo = _quintuple_exponents(k)
            if min(e_hi, e_lo) > order:
                break
            if e_hi <= order:
                lhs[e_hi] += z ** (3*k + 3)
            if e_lo <= order:
                lhs[e_lo] -= z ** (3*k + 1)
    rhs = _poch_products(order,
                         (Fraction(1), 1, 1),   # (q;q)_inf
                         (z, 0, 1),             # (z;q)_inf
                         (1 / z, 1, 1),         # (q/z;q)_inf
                         (z * z, 1, 2),         # (qz^2;q^2)_inf
                         (1 / (z * z), 1, 2))   # (q/z^2;q^2)_inf
    return _residual(Coeffs.of_fractions(lhs), rhs)


def _lebesgue_inf_residual(a: Fraction, order: int) -> QSeries:
    # sum_k (a;q)_k / (q;q)_k q^{k(k+1)/2}
    lhs = Coeffs([0] * (order + 1))
    term = _one(order)
    one = Fraction(1)
    for k in itertools.count():
        shift = k * (k + 1) // 2
        if shift > order:
            break
        term.truncate(order - shift)
        if k > 0:
            _mul_binomial(term, a, k - 1)
            _div_binomial(term, one, k)
        _add_shifted(lhs, term, shift, one)
    rhs = _poch_products(order,
                         (a, 1, 2),             # (aq;q^2)_inf
                         (-one, 1, 1))          # (-q;q)_inf
    return _residual(lhs, rhs)


def _ab_rhs(z: Fraction, order: int) -> Coeffs:
    return _poch_products(order,
                          (-z, 1, 2),           # (-zq;q^2)_inf
                          (z * z, 4, 4))        # (z^2q^4;q^4)_inf


def _ab11_residual(z: Fraction, order: int) -> QSeries:
    # 1 + sum_{k>=1} z^k q^{2k^2-k} (z^2q^2;q^2)_{k-1} / (q^2;q^2)_k
    #                                              * (1 - z^2 q^{4k})
    lhs = _one(order)
    term = _one(order)
    one, zz = Fraction(1), z * z
    for k in itertools.count(1):
        shift = 2 * k * k - k
        if shift > order:
            break
        term.truncate(order - shift)
        if k > 1:
            _mul_binomial(term, zz, 2 * (k - 1))
        _div_binomial(term, one, 2 * k)
        tail = term.copy()
        _mul_binomial(tail, zz, 4 * k)
        _add_shifted(lhs, tail, shift, z ** k)
    return _residual(lhs, _ab_rhs(z, order))


def _ab00_residual(z: Fraction, order: int) -> QSeries:
    # sum_{k>=0} z^k q^{2k^2+k} (z^2q^2;q^2)_k / (q^2;q^2)_k (1 + z q^{2k+1})
    lhs = Coeffs([0] * (order + 1))
    term = _one(order)
    one, zz = Fraction(1), z * z
    for k in itertools.count():
        shift = 2 * k * k + k
        if shift > order:
            break
        term.truncate(order - shift)
        if k > 0:
            _mul_binomial(term, zz, 2 * k)
            _div_binomial(term, one, 2 * k)
        tail = term.copy()
        _mul_binomial(tail, -z, 2 * k + 1)
        _add_shifted(lhs, tail, shift, z ** k)
    return _residual(lhs, _ab_rhs(z, order))


def _q_kummer_residual(a: Fraction, b: Fraction, order: int) -> QSeries:
    if b == 0:
        raise PoleError("q-Kummer requires b != 0")
    # sum_k (a;q)_k (b;q)_k / ((q;q)_k (aq/b;q)_k) (-q/b)^k; the (-1/b)^k
    # is applied as a scalar when the term is added
    lhs = Coeffs([0] * (order + 1))
    term = _one(order)
    one, a_over_b, ratio = Fraction(1), a / b, Fraction(-1) / b
    scale = one
    for k in range(order + 1):
        term.truncate(order - k)
        if k > 0:
            _mul_binomial(term, a, k - 1)
            _mul_binomial(term, b, k - 1)
            _div_binomial(term, one, k)
            _div_binomial(term, a_over_b, k)
            scale *= ratio
        _add_shifted(lhs, term, k, scale)
    rhs = _poch_products(order,
                         (a, 1, 2),             # (aq;q^2)_inf
                         (a / (b * b), 2, 2),   # (aq^2/b^2;q^2)_inf
                         (-one, 1, 1))          # (-q;q)_inf
    _div_poch_inf(rhs, a_over_b, 1, 1)          # 1/(aq/b;q)_inf
    _div_poch_inf(rhs, ratio, 1, 1)             # 1/(-q/b;q)_inf
    return _residual(lhs, rhs)


class Series(NamedTuple):
    """A limiting identity's symbols, in the order they are drawn, and its
    residual, called with their values and the order."""
    symbols: Tuple[str, ...]
    residual: Callable[..., QSeries]


SERIES: Dict[str, Series] = {
    "jacobi_triple": Series(("z",), _jacobi_triple_residual),
    "quintuple": Series(("z",), _quintuple_residual),
    "lebesgue_inf": Series(("a",), _lebesgue_inf_residual),
    "ab11": Series(("z",), _ab11_residual),
    "ab00": Series(("z",), _ab00_residual),
    "q_kummer": Series(("a", "b"), _q_kummer_residual),
}
SERIES_IDENTITIES = tuple(SERIES)


def infinite_identity_residual(identity_id: str,
                               params: Mapping, order: int) -> QSeries:
    """LHS-series minus RHS-series of a limiting identity; the zero series.
    Raises MissingSymbol where ``params`` lacks one of its symbols."""
    if identity_id not in SERIES:
        raise KeyError("unknown series identity %r (known: %s)"
                       % (identity_id, ", ".join(SERIES_IDENTITIES)))
    if order < 0:
        raise ValueError("order must be at least 0, got %d" % order)
    symbols = _params_of(params)
    series = SERIES[identity_id]
    values = [_need(symbols, name) for name in series.symbols]
    if "z" in series.symbols and symbols["z"] == 0:
        raise PoleError("z must be nonzero")
    return series.residual(*values, order)


def jacobi_product_relation_residual(z, order: int) -> QSeries:
    """Cross-multiplied residual of the base-q to base-q^2 product reshuffle
    feeding the triple-product limit; the zero series."""
    z = Fraction(z)
    if z == 0:
        raise PoleError("z must be nonzero")
    one = Fraction(1)
    lhs = _poch_products(order, (-one, 1, 1), (one, 1, 1), (-1 / z, 1, 1),
                         (-z, 0, 1))
    rhs = _poch_products(order, (one, 2, 2), (-1 / z, 1, 2), (-z, 1, 2),
                         (-1 / z, 2, 2), (-z, 0, 2))
    return _residual(lhs, rhs)


def quintuple_product_relation_residual(z, order: int) -> QSeries:
    """Cross-multiplied residual of the product reshuffle feeding the
    quintuple-product limit; the zero series.  Requires z not in {0, 1, -1}.

    The (q/z^2; .)_infinity factor lives in base q^2, matching the base of
    the quintuple product it feeds.
    """
    z = Fraction(z)
    if z in (0, 1, -1):
        raise PoleError("z must avoid {0, 1, -1}")
    zz = z * z
    lhs = _poch_products(order, (-z, 0, 1), (-1 / z, 1, 1), (zz, 1, 2),
                         (z, 0, 1), (1 / zz, 1, 2), (1 / z, 1, 1))
    rhs = _poch_products(order, (zz, 1, 1), (1 / zz, 0, 1))
    rhs.nums = [-zz.numerator * x for x in rhs.nums]
    rhs.den *= zz.denominator
    return _residual(lhs, rhs)
