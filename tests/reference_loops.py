"""The exact loops as they stood before they carried ints: one
``Fraction`` operation per factor, verbatim.  The tests compare the int
loops in ``qident`` against these references, with ``outcome`` and
``drain``: a value, or the error raised, with its message.

The two bilateral sums ``_jacobi_finite_lhs`` and ``_quintuple_mn_lhs``
are the per-k loops as they stood before they moved onto the term-ratio
kernel, verbatim: one q-binomial and two to four Pochhammers per k.

``FRACTION_SIDES``, ``FRACTION_COEFFICIENTS`` and ``FRACTION_ANTI_DIFFS``
hold the identity sides, step coefficients and anti-difference rows as they
stood before their parameters were built from the point's ``Ratio`` int
pairs: one reduced ``Fraction`` operation per product or quotient, verbatim,
on the same term-ratio kernel.  Their well-poised factor is
``_well_poised_pairs``, the int loop as it stood before it ran on
``hyper.linear``, verbatim, so these rows do not follow the rewritten factor.

The C_r replay's split coefficient, split residual, alpha_s and coefficient
residual are the ``Fraction`` forms they had before they ran on ``Ratio``
int pairs, verbatim, with ``_pair_ratio_term`` for the certificate's
per-point pair-ratio table.

The series kernels below work on plain lists of ``Fraction`` coefficients,
and ``infinite_identity_residual`` is the one in ``psers``, built on
them."""

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, List, Mapping, Sequence, Tuple

from qident.hyper import (Pairs, TermRow, _ints, pair_row, pair_sum,
                         poch_ratio, poch_ratio_pairs)
from qident.identities import CrRow, _div, _require_multisum_budget, _xs
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


def _well_poised_pairs(a, q, pairs: Iterable[Tuple[int, int]]) -> Pairs:
    """The given int pairs, the k-th times the well-poised factor
    (1 - a q^{2k})/(1 - a); if each den divides the next, so does each den
    yielded."""
    an, ad = _ints(a)
    if an == ad:
        raise PoleError("very-well-poised anchor must differ from 1")
    q2n, q2d = (v * v for v in _ints(q))
    pn, pd = an, ad                                 # a q^{2k}
    for num, den in pairs:
        yield num * (pd - pn) * ad, den * pd * (ad - an)
        pn *= q2n
        pd *= q2d


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


# -- the sides and certificate factors as they stood before their parameters
# were built from the point's ints: one reduced Fraction operation per
# product or quotient, verbatim, on the same kernel; no row is kept --

def _sym(point: ParamPoint, names: str):
    return tuple(point.sym(s) for s in names)


def wp_pairs(a_list: Sequence, q, z, terms: int) -> Pairs:
    """The terms k = 0..terms-1 of the well-poised series
    (a_1, ..., a_{r+1};q)_k z^k / (q, a_1 q/a_2, ..., a_1 q/a_{r+1};q)_k, as
    the int pairs of ``poch_ratio_pairs``; a zero a_2, ..., a_{r+1} raises
    PoleError before any term is read."""
    q = Fraction(q)
    a_list = [Fraction(a) for a in a_list]
    if any(a == 0 for a in a_list[1:]):
        raise PoleError("well-poised parameter must be nonzero")
    dens = [q] + [a_list[0] * q / a for a in a_list[1:]]
    return poch_ratio_pairs(a_list, dens, q, z, terms)


def _vwp_pairs(a1, middles: Sequence, q, n: int, z) -> Pairs:
    """The terms k = 0..n of ``vwp_sum``, as int pairs."""
    a1, q = Fraction(a1), Fraction(q)
    return _well_poised_pairs(a1, q, wp_pairs([a1, *middles, q**(-n)], q, z, n + 1))


def vwp_sum(a1, middles: Sequence, q, n: int, z) -> Fraction:
    """Terminating very-well-poised sum with anchor a1 and the given middle
    parameters: sum_{k=0}^{n} of

        (1 - a1 q^{2k})/(1 - a1)
        * (a1, middles..., q^{-n};q)_k z^k
        / (q, a1 q/middles..., a1 q^{n+1};q)_k.

    The paired square-root parameters of the classical printing enter only
    through the ratio (1 - a1 q^{2k})/(1 - a1), so everything stays rational.
    """
    return pair_sum(_vwp_pairs(a1, middles, q, n, z))


def jackson_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, q = (p.sym(s) for s in "abcdeq")
    n = p.idx("n")
    return pair_row(_vwp_pairs(a, [b, c, d, e], q, n, q), n)


def _jackson_rhs(p: ParamPoint) -> Fraction:
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    n = p.idx("n")
    return poch_ratio([a*q, a*q/(b*c), a*q/(b*d), a*q/(c*d)],
                      [a*q/b, a*q/c, a*q/d, a*q/(b*c*d)], q, n)


def _jackson_derive(p: ParamPoint) -> ParamPoint:
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    return p.with_symbols(e=a*a*q**(p.idx("n")+1) / (b*c*d))


def _6phi5_lhs(p: ParamPoint) -> Fraction:
    a, b, c, q = (p.sym(s) for s in "abcq")
    n = p.idx("n")
    return vwp_sum(a, [b, c], q, n, a*q**(n+1)/(b*c))


def _6phi5_rhs(p: ParamPoint) -> Fraction:
    a, b, c, q = (p.sym(s) for s in "abcq")
    n = p.idx("n")
    return poch_ratio([a*q, a*q/(b*c)], [a*q/b, a*q/c], q, n)


def watson_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, q = (p.sym(s) for s in "abcdeq")
    n = p.idx("n")
    z = a*a*q**(n+2)/(b*c*d*e)
    return pair_row(_vwp_pairs(a, [b, c, d, e], q, n, z), n)


def watson_rhs_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, q = (p.sym(s) for s in "abcdeq")
    n = p.idx("n")
    pre = poch_ratio([a*q, a*q/(d*e)], [a*q/d, a*q/e], q, n)
    ser = poch_ratio_pairs([a*q/(b*c), d, e, q**(-n)],
                           [q, a*q/b, a*q/c, d*e*q**(-n)/a], q, q, n + 1)
    return pair_row(ser, n, pre)


def _vwp_derive(p: ParamPoint) -> ParamPoint:
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    return p.with_symbols(lam=a*a*q/(b*c*d))


def _vwp_rhs(p: ParamPoint) -> Fraction:
    a, b, c, d, e, q, lam = (p.sym(s) for s in ("a", "b", "c", "d", "e", "q", "lam"))
    n = p.idx("n")
    pre = poch_ratio([a*q, lam*q/e], [a*q/e, lam*q], q, n)
    return pre * vwp_sum(lam, [lam*b/a, lam*c/a, lam*d/a, e], q, n, a*q**(n+1)/e)


def bailey_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, f, q, lam = (p.sym(s) for s in ("a", "b", "c", "d", "e", "f", "q", "lam"))
    n = p.idx("n")
    g = lam*a*q**(n+1)/(e*f)
    return pair_row(_vwp_pairs(a, [b, c, d, e, f, g], q, n, q), n)


def bailey_rhs_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, f, q, lam = (p.sym(s) for s in ("a", "b", "c", "d", "e", "f", "q", "lam"))
    n = p.idx("n")
    g = lam*a*q**(n+1)/(e*f)
    pre = poch_ratio([a*q, a*q/(e*f), lam*q/e, lam*q/f],
                     [a*q/e, a*q/f, lam*q/(e*f), lam*q], q, n)
    ser = _vwp_pairs(lam, [lam*b/a, lam*c/a, lam*d/a, e, f, g], q, n, q)
    return pair_row(ser, n, pre)


def singh_lhs_row(p: ParamPoint) -> TermRow:
    A, B, c, q = (p.sym(s) for s in ("A", "B", "c", "q"))
    n = p.idx("n")
    return pair_row(poch_ratio_pairs([A, B, c, q**(-n)],
                                     [q, (A*B*q, q*q), -c*q**(-n)], q, q, n + 1), n)


def singh_rhs_row(p: ParamPoint) -> TermRow:
    A, B, c, q = (p.sym(s) for s in ("A", "B", "c", "q"))
    n = p.idx("n")
    q2 = q * q
    # (-c q^{-n};q)_{2k} = (-c q^{-n}, -c q^{1-n};q^2)_k
    return pair_row(poch_ratio_pairs([A, B, c*c, q**(-2*n)],
                                     [q2, A*B*q, -c*q**(-n), -c*q**(1-n)],
                                     q2, q2, n + 1), n)


def schlosser_row(p: ParamPoint) -> CrRow:
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    n, r = p.idx("n"), p.idx("r")
    xs = tuple(_xs(p, r))
    axes = []
    for xi in xs:
        middles = [b*xi, c*xi, d*xi, a*a*xi*q**(n-r+2)/(b*c*d)]
        axes.append(pair_row(_vwp_pairs(a*xi*xi, middles, q, n, q), n))
    return CrRow(n, a, q, xs, tuple(axes))


def schlosser_lhs(p: ParamPoint) -> Fraction:
    _require_multisum_budget(p.idx("n"), p.idx("r"))
    return schlosser_row(p).total()


def _schlosser_axes_rhs(p: ParamPoint, n: int) -> Fraction:
    """The per-axis closed-form product of the C_r sum at level n."""
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    r = p.idx("r")
    t = Fraction(1)
    for i, xi in enumerate(_xs(p, r), 1):
        t *= poch_ratio([a*xi*xi*q, a*q**(2-i)/(b*c),
                         a*q**(2-i)/(b*d), a*q**(2-i)/(c*d)],
                        [a*q**(2-r)/(b*c*d*xi), a*xi*q/b,
                         a*xi*q/c, a*xi*q/d], q, n)
    return t


def schlosser_rhs(p: ParamPoint) -> Fraction:
    a, q = p.sym("a"), p.sym("q")
    n, r = p.idx("n"), p.idx("r")
    xs = _xs(p, r)
    t = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            t *= _div(1 - a*xs[i]*xs[j]*q**n, 1 - a*xs[i]*xs[j])
    return t * _schlosser_axes_rhs(p, n)


def _sch_special_rhs(p: ParamPoint) -> Fraction:
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    n = p.idx("n")
    return (b*c*d*q**(n-2)/a) ** n * poch_ratio(
        [a*q**(2-n)/(b*c), a*q**(2-n)/(b*d), a*q**(2-n)/(c*d)],
        [b, c, d, a*a*q**(3-n)/(b*c*d)], q, n)


def _cr1_rhs(p: ParamPoint) -> Fraction:
    q = p.sym("q")
    n, r = p.idx("n"), p.idx("r")
    return ((n + 1) * poch_ratio([(q**(n+1), q**(n+1))], [q], q, r - 1)
            / q**(n * (r*(r-1)//2)))


def _cr2_rhs(p: ParamPoint) -> Fraction:
    q = p.sym("q")
    n, r = p.idx("n"), p.idx("r")
    if n % 2 == 1:
        return Fraction(0)
    return (poch_ratio([(-q**(n+1), q**(n+1))], [-q], q, r - 1)
            / q**(n * (r*(r-1)//2)))


def _andrews_jain_rhs(p: ParamPoint) -> Fraction:
    a, b, q = (p.sym(s) for s in "abq")
    n = p.idx("n")
    q2 = q*q
    return poch_ratio([a*q, b*q], [q, a*b*q], q2, n)


def lebesgue_row(p: ParamPoint) -> TermRow:
    """F_{n,k} = [n, k]_q q^{k(k+1)/2} / (a q^k;q)_{n+1}, which is
    (q^{-n}, a;q)_k (-q^{n+1})^k / (q, a q^{n+1};q)_k / (a;q)_{n+1}."""
    a, q = p.sym("a"), p.sym("q")
    n = p.idx("n")
    pre = poch_ratio([], [a], q, n + 1)
    ser = poch_ratio_pairs([q**(-n), a], [q, a*q**(n+1)], q, -q**(n+1), n + 1)
    return pair_row(ser, n, pre)


def _lebesgue_rhs(p: ParamPoint) -> Fraction:
    a, q = p.sym("a"), p.sym("q")
    n = p.idx("n")
    return _div(qpoch(-q, q, n), qpoch(a, q*q, n + 1))


def _jacobi_finite_rhs(p: ParamPoint) -> Fraction:
    return qpoch(-p.sym("q"), p.sym("q"), p.idx("m") + p.idx("n"))


def _jacobi_pref_lhs(p: ParamPoint) -> Fraction:
    z, q = p.sym("z"), p.sym("q")
    n, m, k = p.idx("n"), p.idx("m"), p.idx("k")
    return (poch_ratio([(-z*q**(-2*m), q*q)], [-z*q**(k-m)], q, m + n + 1)
            * q**((m+k+1)*(m+k)//2))


def _jacobi_pref_rhs(p: ParamPoint) -> Fraction:
    return _jacobi_summand(p.sym("z"), p.sym("q"), p.idx("n"), p.idx("m"),
                           p.idx("k"))


def quintuple_row(p: ParamPoint) -> TermRow:
    """F_{n,k} = (1 - z^2 q^{2k+1}) [n, k]_q (zq;q)_n z^k q^{k^2}
    / (z^2 q^{k+1};q)_{n+1}; with a = z^2 q that is (zq;q)_n / (aq;q)_n times
    the well-poised factor of a times
    (a, q^{-n};q)_k (-z q^{n+1})^k q^{k(k-1)/2} / (q, a q^{n+1};q)_k."""
    z, q = p.sym("z"), p.sym("q")
    n = p.idx("n")
    a = z*z*q
    pre = poch_ratio([z*q], [a*q], q, n)
    ser = _well_poised_pairs(a, q, wp_pairs([a, q**(-n)], q, (-z*q**(n+1), q),
                                      n + 1))
    return pair_row(ser, n, pre)


def jackson_gamma(p: ParamPoint, n: int) -> Fraction:
    a, b, c, d, q = _sym(p, "abcdq")
    num = ((a*a*q**n/(b*c*d) - q**(-n)) * (1 - b*c*d/a) * (1 - a*q)
           * (1 - a*q*q) * (1 - b) * (1 - c) * (1 - d) * q)
    den = ((1 - b*c*d*q**(-n)/a) * (1 - a*q**n) * (1 - a*q/b) * (1 - a*q/c)
           * (1 - a*q/d) * (1 - b*c*d*q**(1-n)/a) * (1 - a*q**(n+1)))
    return _div(num, den)


def watson_beta(p: ParamPoint, n: int) -> Fraction:
    a, b, c, d, e, q = _sym(p, "abcdeq")
    num = -(1 - a*q) * (1 - a*q*q) * (1 - b) * (1 - c) * (1 - d) * (1 - e) \
        * a*a*q**(n+1)
    den = ((1 - a*q/b) * (1 - a*q/c) * (1 - a*q/d) * (1 - a*q/e)
           * (1 - a*q**n) * (1 - a*q**(n+1)) * b*c*d*e)
    return _div(num, den)


def watson_anti_diff_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, q = _sym(p, "abcdeq")
    n = p.idx("n")
    x = d*e*q**(-n)/a
    pre = _div(poch_ratio([a*q], [], q, n - 1)
               * poch_ratio([a*q/(d*e)], [a*q/d, a*q/e], q, n)
               * (1 - d) * (1 - e), 1 - x)
    ser = poch_ratio_pairs([a*q/(b*c), q**(1-n), d*q, e*q],
                           [q, a*q/b, a*q/c, x*q], q, 1, n + 1)
    return pair_row(ser, n, pre)


def bailey_alpha(p: ParamPoint, n: int) -> Fraction:
    a, b, c, d, e, f, q = _sym(p, "abcdefq")
    lam = a*a*q / (b*c*d)
    num = (-(1 - b) * (1 - c) * (1 - d) * (1 - e) * (1 - f)
           * (1 - a*q) * (1 - a*q*q) * (1 - e*f/lam) * (1 - lam*a*q**(2*n)/(e*f)))
    den = ((1 - a*q/b) * (1 - a*q/c) * (1 - a*q/d) * (1 - a*q/e) * (1 - a*q/f)
           * (1 - a*q**n) * (1 - a*q**(n+1))
           * (1 - e*f*q**(1-n)/lam) * (1 - e*f*q**(-n)/lam) * q**(n-1))
    return _div(num, den)


def bailey_anti_diff_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, f, q = _sym(p, "abcdefq")
    lam, n = p.sym("lam"), p.idx("n")
    g = lam*a*q**(n+1) / (e*f)
    x, y = e*f*q**(-n)/a, lam*q**n
    pre = _div((1 - a*lam*q**(2*n)/(e*f))
               * poch_ratio([a*q, lam*q/e, lam*q/f], [], q, n - 1)
               * poch_ratio([a*q/(e*f)], [a*q/e, a*q/f, lam*q/(e*f), lam], q, n)
               * (1 - lam) * (1 - e) * (1 - f), (1 - x) * (1 - y))
    ser = poch_ratio_pairs(
        [lam*b/a, lam*c/a, lam*d/a, g, q**(1-n), lam*q, e*q, f*q],
        [q, a*q/b, a*q/c, a*q/d, lam*q/e, lam*q/f, x*q, y*q], q, 1, n + 1)

    def terms() -> Pairs:
        ratio = lam / a
        pn, pd = ratio.numerator, ratio.denominator  # lam q^k / a
        for num, den in ser:
            yield num * (pd - pn), den * pd
            pn *= q.numerator
            pd *= q.denominator
    return pair_row(terms(), n, pre)


def singh_gamma(p: ParamPoint, n: int) -> Fraction:
    A, B, c, q = _sym(p, "ABcq")
    num = ((1 - A) * (1 - B) * (1 - c*c) * (1 - A*q) * (1 - B*q)
           * (1 - c*c*q*q) * q**(3 - 2*n))
    den = ((1 - A*B*q) * (1 - A*B*q**3) * (1 + c*q**(-n)) * (1 + c*q**(1-n))
           * (1 + c*q**(2-n)) * (1 + c*q**(3-n)))
    return _div(num, den)


def singh_anti_diff_row(p: ParamPoint) -> TermRow:
    A, B, c, q = _sym(p, "ABcq")
    n = p.idx("n")
    q2 = q*q

    def terms() -> Pairs:
        # the printed H_{n,0} carries (q^2;q^2)_{-1}, a vanishing reciprocal,
        # so the entry is 0 and the prefactor only starts at k = 1
        yield 0, 1
        pre = _div(-(1 - A) * (1 - B) * (1 - c*c) * (1 - c*c*q2) * q**(2 - 2*n),
                   (1 - A*B*q) * (1 + c*q**(-n)) * (1 + c*q**(1-n))
                   * (1 + c*q**(2-n)) * (1 + c*q**(3-n)))
        ser = poch_ratio_pairs([A*q2, B*q2, q**(4-2*n), c*c*q2*q2],
                               [q2, A*B*q**3, -c*q**(4-n), -c*q**(5-n)],
                               q2, 1, n)
        prn, prd = pre.numerator, pre.denominator
        pn, pd = q.numerator, q.denominator         # q^{2j+1}
        for num, den in ser:
            yield prn * num * (pd - pn), prd * den * pd
            pn *= q2.numerator
            pd *= q2.denominator
    return pair_row(terms(), n)


def _total(row):
    """The side that is the total of the row."""
    def total(p: ParamPoint) -> Fraction:
        return row(p).total()
    total.__name__ = row.__name__
    return total


def _cr1_lhs(p: ParamPoint) -> Fraction:
    return _cr_lhs(p, False)


def _cr2_lhs(p: ParamPoint) -> Fraction:
    return _cr_lhs(p, True)


def _one_side(p: ParamPoint) -> Fraction:
    return Fraction(1)


# (identity, side) -> the side as a Fraction expression; each side is
# evaluated at the point derive() gives, with FRACTION_DERIVES for derive
FRACTION_SIDES = {
    ("jackson_8phi7", "lhs"): _total(jackson_row),
    ("jackson_8phi7", "rhs"): _jackson_rhs,
    ("jackson_6phi5", "lhs"): _6phi5_lhs,
    ("jackson_6phi5", "rhs"): _6phi5_rhs,
    ("watson_transform", "lhs"): _total(watson_row),
    ("watson_transform", "rhs"): _total(watson_rhs_row),
    ("vwp_transform", "lhs"): _total(watson_row),
    ("vwp_transform", "rhs"): _vwp_rhs,
    ("bailey_10phi9", "lhs"): _total(bailey_row),
    ("bailey_10phi9", "rhs"): _total(bailey_rhs_row),
    ("singh_quadratic", "lhs"): _total(singh_lhs_row),
    ("singh_quadratic", "rhs"): _total(singh_rhs_row),
    ("schlosser_cr", "lhs"): schlosser_lhs,
    ("schlosser_cr", "rhs"): schlosser_rhs,
    ("sch_8phi7_special", "rhs"): _sch_special_rhs,
    ("cr_prop_1", "lhs"): _cr1_lhs,
    ("cr_prop_1", "rhs"): _cr1_rhs,
    ("cr_prop_2", "lhs"): _cr2_lhs,
    ("cr_prop_2", "rhs"): _cr2_rhs,
    ("lebesgue_finite", "lhs"): _total(lebesgue_row),
    ("lebesgue_finite", "rhs"): _lebesgue_rhs,
    ("jacobi_finite", "rhs"): _jacobi_finite_rhs,
    ("jacobi_prefactor_relation", "lhs"): _jacobi_pref_lhs,
    ("jacobi_prefactor_relation", "rhs"): _jacobi_pref_rhs,
    ("quintuple_finite", "lhs"): _total(quintuple_row),
    ("quintuple_finite", "rhs"): _one_side,
    ("quintuple_finite_mn", "rhs"): _one_side,
    ("quintuple_ccg", "rhs"): _one_side,
    ("andrews_jain", "rhs"): _andrews_jain_rhs,
}
FRACTION_DERIVES = {"jackson_8phi7": _jackson_derive,
                    "vwp_transform": _vwp_derive,
                    "bailey_10phi9": _vwp_derive}
# the step coefficients and anti-difference rows of the certificates
FRACTION_COEFFICIENTS = {"jackson": jackson_gamma, "watson": watson_beta,
                         "bailey": bailey_alpha, "singh": singh_gamma}
FRACTION_ANTI_DIFFS = {"watson": watson_anti_diff_row,
                       "bailey": bailey_anti_diff_row,
                       "singh": singh_anti_diff_row}


# -- the C_r replay's residuals, one Fraction per factor ------------------------

def qpoch_multi(avals: Sequence, q, n: int) -> Fraction:
    result = Fraction(1)
    for a in avals:
        result *= qpoch(a, q, n)
    return result


def _pair_ratio_term(p: ParamPoint, ss) -> Fraction:
    return CrRow(1, p.sym("a"), p.sym("q"), _xs(p, p.idx("r")), ()).term(ss)


def schlosser_split_coeff(p: ParamPoint, n: int, ss: Tuple[int, ...]) -> Fraction:
    r = p.idx("r")
    a, b, c, d, q = map(p.sym, "abcdq")
    xs = _xs(p, r)
    t = _pair_ratio_term(p, ss)
    for i in range(r):
        xi, si = xs[i], ss[i]
        num = (Fraction(-1)**si * qpoch(a*xi*xi*q, q, 2*si)
               * qpoch_multi([b*xi, c*xi, d*xi, b*c*d*xi*q**(r-1)/a,
                              a*a*xi*q**(2*n-r+3)/(b*c*d)], q, si))
        den = (q**(n*si)
               * qpoch_multi([a*xi*xi*q**(n+1), b*c*d*xi*q**(r-n-2)/a], q, 2*si)
               * qpoch_multi([a*xi*q/b, a*xi*q/c, a*xi*q/d], q, si))
        t *= _div(num, den)
    return t


def schlosser_split_residual(point: ParamPoint, n: int, i: int,
                             k_i: int) -> Fraction:
    a, b, c, d, q = map(point.sym, "abcdq")
    r, xi = point.idx("r"), point.sym("x%d" % i)
    lhs_num = ((1 - a*a*xi*q**(n+k_i-r+2)/(b*c*d))
               * (1 - b*c*d*xi*q**(k_i+r-n-2)/a))
    lhs_den = (1 - q**(-n+k_i-1)) * (1 - a*xi*xi*q**(n+k_i+1))
    t1_num = (-q**(n+1) * (1 - a*a*xi*q**(n-r+2)/(b*c*d))
              * (1 - b*c*d*xi*q**(r-n-2)/a))
    t2_num = ((1 - a*a*xi*q**(2*n-r+3)/(b*c*d)) * (1 - b*c*d*xi*q**(r-1)/a)
              * (1 - a*xi*xi*q**k_i) * (1 - q**k_i))
    common = (1 - q**(n+1)) * (1 - a*xi*xi*q**(n+1))
    return lhs_num * common - t1_num * lhs_den - t2_num


def schlosser_alpha_s(point: ParamPoint, n: int,
                      ss: Sequence[int]) -> Fraction:
    a, b, c, d, q = map(point.sym, "abcdq")
    r = point.idx("r")
    xs = _xs(point, r)
    t = _div(Fraction(1), (1 - q**(n+1)) ** r)
    for i in range(r):
        xi, si = xs[i], ss[i]
        t *= _div((-q**(n+1)) ** (1 - si), 1 - a*xi*xi*q**(n+1))
        t *= (1 - a*a*xi*q**(n-r+2)/(b*c*d)) ** (1 - si)
        t *= (1 - b*c*d*xi*q**(r-n-2)/a) ** (1 - si)
        t *= (1 - a*a*xi*q**(2*n-r+3)/(b*c*d)) ** si
        t *= (1 - b*c*d*xi*q**(r-1)/a) ** si
    return t


def schlosser_coeff_residual(point: ParamPoint, n: int,
                             s_vector: Sequence[int]) -> Fraction:
    ss, r = tuple(s_vector), point.idx("r")
    if len(ss) != r or any(s not in (0, 1) for s in ss):
        raise ValueError("s_vector must lie in {0,1}^r")
    a, b, c, d, q = map(point.sym, "abcdq")
    xs = _xs(point, r)
    form1 = schlosser_alpha_s(point, n, ss) * _pair_ratio_term(point, ss)
    for i in range(r):
        xi, si = xs[i], ss[i]
        form1 *= _div(1 - a*xi*xi*q**(2*si), 1 - a*xi*xi)
        num = (qpoch(a*xi*xi, q, 2*si)
               * qpoch_multi([b*xi, c*xi, d*xi], q, si) * q**si
               * (1 - a*xi*xi*q**(n+si+1)) ** (1 - 2*si) * (1 - q**(-n-1)))
        den = (qpoch_multi([a*xi*q/b, a*xi*q/c, a*xi*q/d], q, si)
               * qpoch(b*c*d*xi*q**(r-n-2)/a, q, si + 1)
               * qpoch(a*a*xi*q**(n-r+2)/(b*c*d), q, 1 - si))
        form1 *= _div(num, den)
    return form1 - schlosser_split_coeff(point, n, ss)


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
                               params: Mapping, order: int) -> QSeries:
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

