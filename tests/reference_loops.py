"""The exact loops as they stood before they carried ints: one
``Fraction`` operation per factor, verbatim.  The tests compare the int
loops in ``qident`` against these references, with ``outcome`` and
``drain``: a value, or the error raised, with its message.

The two bilateral sums ``_jacobi_finite_lhs`` and ``_quintuple_mn_lhs``
are the per-k loops as they stood before they moved onto the term-ratio
kernel, verbatim: one q-binomial and two to four Pochhammers per k.

The series kernels below work on plain lists of ``Fraction`` coefficients,
and ``infinite_identity_residual`` is the one in ``psers``, built on
them."""

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

from qident.identities import _div, _require_multisum_budget, _xs
from qident.psers import (QSeries, SERIES_IDENTITIES, _need, _params_of,
                          _quintuple_exponents)
from qident.qcore import DegenerateQ, ParamPoint, PoleError, QIdentityError


def outcome(fn, *args):
    """fn(*args), or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (QIdentityError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def drain(terms: Iterable):
    """The values a generator yields, and the error that ended it, if any."""
    out = []
    try:
        for t in terms:
            out.append(t)
    except (QIdentityError, ZeroDivisionError) as exc:
        return out, (type(exc), str(exc))
    return out, None


def qpoch(a, q, n: int) -> Fraction:
    """q-shifted factorial (a;q)_n, exact, for any integer n.

    For n >= 0 this is the finite product prod_{k=0}^{n-1} (1 - a q^k); for
    n < 0 it is 1 / (a q^n;q)_{-n}, which raises PoleError when a factor of
    that product vanishes.
    """
    a = Fraction(a)
    q = Fraction(q)
    if n >= 0:
        result = Fraction(1)
        p = a
        for _ in range(n):
            result *= 1 - p
            p *= q
        return result
    m = -n
    result = Fraction(1)
    p = a / q
    for j in range(1, m + 1):
        factor = 1 - p
        if factor == 0:
            raise PoleError("(a;q)_{%d} hit a vanishing factor 1 - a q^{-%d} "
                            "at a=%s, q=%s" % (n, j, a, q))
        result *= factor
        p /= q
    return 1 / result


def qbinom(n: int, k: int, q) -> Fraction:
    """Gaussian binomial coefficient, via the factored k-term product.

    Returns 0 for k outside [0, n].  Raises DegenerateQ for q in {0, 1} and
    PoleError if q is a root of unity that annihilates a denominator factor
    (e.g. q = -1 with k >= 2).
    """
    q = Fraction(q)
    if q == 0 or q == 1:
        raise DegenerateQ("qbinom is undefined at q=%s" % q)
    if k < 0 or k > n:
        return Fraction(0)
    k = min(k, n - k)
    result = Fraction(1)
    for i in range(1, k + 1):
        den = 1 - q ** i
        if den == 0:
            raise PoleError("qbinom denominator factor 1 - q^%d vanished at q=%s"
                            % (i, q))
        result *= (1 - q ** (n - k + i)) / den
    return result


def poch_ratio_terms(nums: Sequence, dens: Sequence, q, z,
                     terms: int) -> Iterator[Fraction]:
    """Yield T_0 = 1, T_1, ..., T_{terms-1} of T_k = (nums;q)_k z^k / (dens;q)_k.

    Each term is the one before times the term ratio
    z prod(1 - a q^k) / prod(1 - b q^k), so no Pochhammer is recomputed.  An
    entry of ``nums`` or ``dens`` is a value a, read as (a;q)_k, or a pair
    (a, p), read as (a;p)_k.  Likewise z may be a pair (z, p), read as
    z^k p^{k(k-1)/2}.  ``dens`` must already include q itself when the
    usual (q;q)_k factor is wanted.  When a denominator factor vanishes, every
    term before it has been yielded and PoleError is raised.
    """
    q = Fraction(q)
    z, zp = (Fraction(v) for v in (z if isinstance(z, tuple) else (z, 1)))
    num_runs = _runs(nums, q)
    den_runs = _runs(dens, q)
    term = Fraction(1)
    for k in range(terms):
        yield term
        if k == terms - 1:
            return
        ratio = z
        z *= zp
        for run in num_runs:
            ratio *= 1 - run[0]
            run[0] *= run[1]
        for run, b in zip(den_runs, dens):
            factor = 1 - run[0]
            if factor == 0:
                raise PoleError(
                    "denominator factor 1 - (%s) q^%d vanished at k=%d"
                    % (b, k, k + 1))
            ratio /= factor
            run[0] *= run[1]
        term *= ratio


def _runs(params: Sequence, q: Fraction) -> list:
    """[current factor, base] for each Pochhammer parameter."""
    return [[Fraction(a[0]), Fraction(a[1])] if isinstance(a, tuple)
            else [Fraction(a), q] for a in params]


def _well_poised(a, q, terms: Iterable[Fraction]) -> Iterator[Fraction]:
    """The given terms, the k-th times the well-poised factor
    (1 - a q^{2k})/(1 - a)."""
    if a == 1:
        raise PoleError("very-well-poised anchor must differ from 1")
    for k, t in enumerate(terms):
        yield t * (1 - a * q**(2*k)) / (1 - a)


def pair_product(a, q, xs: Sequence, shifts: Sequence[int]) -> Fraction:
    """The pair-interaction product of the C_r sums,

        prod_{i<j} (x_i q^{s_i} - x_j q^{s_j})(1 - a x_i x_j q^{s_i+s_j}).
    """
    ys = [x * q**s for x, s in zip(xs, shifts)]
    t = Fraction(1)
    for i in range(len(ys)):
        for j in range(i + 1, len(ys)):
            t *= (ys[i] - ys[j]) * (1 - a * ys[i] * ys[j])
    return t


def _cr_lhs(p: ParamPoint, signed: bool) -> Fraction:
    a, q = p.sym("a"), p.sym("q")
    n, r = p.idx("n"), p.idx("r")
    _require_multisum_budget(n, r)
    xs = _xs(p, r)
    pair_den = pair_product(a*q**n, q, xs, [0] * r)
    if pair_den == 0:
        raise PoleError("pair-interaction denominator vanished")
    total = Fraction(0)
    for ss in itertools.product(range(n + 1), repeat=r):
        t = pair_product(a, q, xs, ss)
        s_tot = sum(ss)
        w = q ** (-(r - 1) * s_tot)
        if signed and s_tot % 2 == 1:
            w = -w
        total += t * w
    return total / pair_den



def _jacobi_summand(z, q, n: int, m: int, k: int) -> Fraction:
    """(-q^2/z;q^2)_m (-z;q^2)_{n+1} q^{k^2} z^k / ((-q/z;q)_{m-k} (-z;q)_{n+k+1})."""
    t = qpoch(-q*q/z, q*q, m) * qpoch(-z, q*q, n + 1)
    t = _div(t, qpoch(-q/z, q, m - k) * qpoch(-z, q, n + k + 1))
    return t * q**(k*k) * z**k


def _jacobi_finite_lhs(p: ParamPoint) -> Fraction:
    z, q = p.sym("z"), p.sym("q")
    n, m = p.idx("n"), p.idx("m")
    return sum((qbinom(m + n, m + k, q) * _jacobi_summand(z, q, n, m, k)
                for k in range(-m, n + 1)), Fraction(0))


def _quintuple_mn_lhs(p: ParamPoint) -> Fraction:
    z, q = p.sym("z"), p.sym("q")
    n, m = p.idx("n"), p.idx("m")
    total = Fraction(0)
    for k in range(-m, n + 1):
        t = (1 - z*z*q**(2*k+1)) * qbinom(m + n, m + k, q)
        t *= qpoch(-q/z, q, m - 1) * qpoch(-z, q, n + 1)
        t = _div(t, qpoch(1/(z*z), q, m - k) * qpoch(z*z*q, q, n + k + 1))
        total += t * z**(3*k-1) * q**(k*(3*k+1)//2)
    return total

# -- truncated power series on Fraction lists ---------------------------------

Coeffs = List[Fraction]


def _one(order: int) -> Coeffs:
    return [Fraction(1)] + [Fraction(0)] * order


def _mul_binomial(out: Coeffs, c: Fraction, e: int) -> None:
    """out *= (1 - c q^e) in place, truncated at len(out) - 1.

    Walks down from the top so every out[i - e] read is still the old
    coefficient.  For e = 0 the factor is the scalar (1 - c).
    """
    for i in range(len(out) - 1, e - 1, -1):
        x = out[i - e]
        if x:
            out[i] -= c * x


def _div_binomial(out: Coeffs, c: Fraction, e: int) -> None:
    """out /= (1 - c q^e) in place for e >= 1, truncated at len(out) - 1.

    Walks up so every out[i - e] read is already a coefficient of the
    quotient: the recurrence of out = old + c q^e out.
    """
    for i in range(e, len(out)):
        x = out[i - e]
        if x:
            out[i] += c * x


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
    """acc += scale * q^shift * term; term holds len(acc) - shift coefficients."""
    for i, x in enumerate(term, shift):
        if x:
            acc[i] += scale * x


def _residual(lhs: Coeffs, rhs: Coeffs) -> QSeries:
    return QSeries(tuple(a - b for a, b in zip(lhs, rhs)))


def _jacobi_triple_residual(z: Fraction, order: int) -> QSeries:
    lhs = _one(order)
    k = 1
    while k * k <= order:
        lhs[k * k] = z ** k + z ** (-k)
        k += 1
    rhs = _poch_products(order,
                         (Fraction(1), 2, 2),   # (q^2;q^2)_inf
                         (-1 / z, 1, 2),        # (-q/z;q^2)_inf
                         (-z, 1, 2))            # (-qz;q^2)_inf
    return _residual(lhs, rhs)


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
    return _residual(lhs, rhs)


def _lebesgue_inf_residual(a: Fraction, order: int) -> QSeries:
    # sum_k (a;q)_k / (q;q)_k q^{k(k+1)/2}
    lhs = [Fraction(0)] * (order + 1)
    term = _one(order)
    one = Fraction(1)
    for k in itertools.count():
        shift = k * (k + 1) // 2
        if shift > order:
            break
        del term[order - shift + 1:]
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
        del term[order - shift + 1:]
        if k > 1:
            _mul_binomial(term, zz, 2 * (k - 1))
        _div_binomial(term, one, 2 * k)
        tail = term[:]
        _mul_binomial(tail, zz, 4 * k)
        _add_shifted(lhs, tail, shift, z ** k)
    return _residual(lhs, _ab_rhs(z, order))


def _ab00_residual(z: Fraction, order: int) -> QSeries:
    # sum_{k>=0} z^k q^{2k^2+k} (z^2q^2;q^2)_k / (q^2;q^2)_k (1 + z q^{2k+1})
    lhs = [Fraction(0)] * (order + 1)
    term = _one(order)
    one, zz = Fraction(1), z * z
    for k in itertools.count():
        shift = 2 * k * k + k
        if shift > order:
            break
        del term[order - shift + 1:]
        if k > 0:
            _mul_binomial(term, zz, 2 * k)
            _div_binomial(term, one, 2 * k)
        tail = term[:]
        _mul_binomial(tail, -z, 2 * k + 1)
        _add_shifted(lhs, tail, shift, z ** k)
    return _residual(lhs, _ab_rhs(z, order))


def _q_kummer_residual(a: Fraction, b: Fraction, order: int) -> QSeries:
    if b == 0:
        raise PoleError("q-Kummer requires b != 0")
    # sum_k (a;q)_k (b;q)_k / ((q;q)_k (aq/b;q)_k) (-q/b)^k; the (-1/b)^k
    # is applied as a scalar when the term is added
    lhs = [Fraction(0)] * (order + 1)
    term = _one(order)
    one, a_over_b, ratio = Fraction(1), a / b, Fraction(-1) / b
    scale = one
    for k in range(order + 1):
        del term[order - k + 1:]
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


def infinite_identity_residual(identity_id: str,
                               params: Union[ParamPoint, Mapping],
                               order: int) -> QSeries:
    """LHS-series minus RHS-series of a limiting identity; the zero series."""
    symbols = _params_of(params)
    if identity_id in ("jacobi_triple", "quintuple", "ab11", "ab00"):
        z = _need(symbols, "z")
        if z == 0:
            raise PoleError("z must be nonzero")
    if identity_id == "jacobi_triple":
        return _jacobi_triple_residual(symbols["z"], order)
    if identity_id == "quintuple":
        return _quintuple_residual(symbols["z"], order)
    if identity_id == "lebesgue_inf":
        return _lebesgue_inf_residual(_need(symbols, "a"), order)
    if identity_id == "ab11":
        return _ab11_residual(symbols["z"], order)
    if identity_id == "ab00":
        return _ab00_residual(symbols["z"], order)
    if identity_id == "q_kummer":
        return _q_kummer_residual(_need(symbols, "a"), _need(symbols, "b"), order)
    raise KeyError("unknown series identity %r (known: %s)"
                   % (identity_id, ", ".join(SERIES_IDENTITIES)))

