"""The exact loops as they stood before they carried int pairs: one
``Fraction`` operation per factor, verbatim.  The tests compare the
int-pair loops in ``qident`` against these references, with ``outcome``
and ``drain``: a value, or the error raised, with its message."""

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from qident.identities import _require_multisum_budget, _xs
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

