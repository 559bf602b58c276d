"""Terminating basic hypergeometric sums and the well-poised contiguous relations.

``poch_ratio_pairs`` is the one term-ratio loop behind every one-sided
terminating sum, same-index Pochhammer quotient and certificate row; z may
be a pair (z, p), read as z^k p^{k(k-1)/2}.  Parameters arrive as
``Fraction``s, or as ``Ratio``s built from a point's symbols, and the kernel
reduces each with one gcd as it reads it.  It yields each term as an
unreduced int pair, each denominator dividing the next, and takes no gcd per
step: the factors every step's ratio is known to share (powers of q's
denominator, and the parameters' denominators common to both sides) are
cancelled exactly, once per call.  A sum is brought over the last
denominator with exact int quotients (Knuth, TAOCP vol. 2, section 4.5.1),
and nothing is reduced: ``poch_ratio``, ``pair_sum`` and a ``TermRow``'s
total are each one unreduced ``Ratio``, which its caller compares by
cross-multiplied ints.  A ``TermRow`` keeps the kernel's own pairs, times
its prefactor, so the certificates' residuals combine them as ints; a term
is reduced where it is read.  ``linear`` is the one loop for a per-term
factor 1 - c p^k that no Pochhammer ratio holds: the well-poised factor, the
1 + z q^k of ``quintuple_ccg``, the bilateral sums' 1 - w q^{2j} and the
anti-differences' factors.  The bilateral ``jacobi_finite`` and
``quintuple_finite_mn`` run on it too, after a pole check that refuses
exactly the points where their per-k Pochhammers of any index vanish.

The two contiguous relations connect the k-th term of a well-poised series
whose last two parameters (first relation) or whose argument (second) differ
by a factor of q to the (k-1)-th term at a uniformly q-shifted parameter
list; both are exposed as zero-residual checks on (a_list, q, z, k), whose
terms are read by ``wp_term``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence, Tuple

from .qcore import PoleError, Ratio, _ints

# Terms as unreduced int pairs (num_k, den_k), each den_k dividing den_{k+1}.
Pairs = Iterator[Tuple[int, int]]


def poch_ratio_pairs(nums: Sequence, dens: Sequence, q, z,
                     terms: int) -> Pairs:
    """Yield T_0 = 1, T_1, ..., T_{terms-1} of T_k = (nums;q)_k z^k / (dens;q)_k
    as unreduced int pairs (num_k, den_k); each den_k is nonzero and divides
    den_{k+1}.

    Each term is the one before times the term ratio
    z prod(1 - a q^k) / prod(1 - b q^k), so no Pochhammer is recomputed.  An
    entry of ``nums`` or ``dens`` is a value a, read as (a;q)_k, or a pair
    (a, p), read as (a;p)_k.  Likewise z may be a pair (z, p), read as
    z^k p^{k(k-1)/2}.  ``dens`` must already include q itself when the
    usual (q;q)_k factor is wanted.  When a denominator factor vanishes, every
    term before it has been yielded and PoleError is raised.

    Every base-q parameter a = an/ad, reduced once, reads q^k from one shared
    power pair (Qn, Qd): its factor is (ad Qd - an Qn)/(ad Qd).  The dens of
    those factors are cancelled exactly, once per call: the parameters' ad
    over their gcd, and as many Qd as both sides hold.  What remains of the
    ratio outside its factors (z, and the ad and Qd left over) is reduced
    once too, as is what a step multiplies it by.  A pair-base parameter
    keeps a run of its own.  No gcd is taken per step, and the terms are not
    reduced.  Per base-q factor a step reads one constant (an, ad) and makes
    one product; only a step whose den is 0 looks for the factor that
    vanished.
    """
    qn, qd = _ints(q)
    zn, zd, zpn, zpd = _run(z) if z.__class__ is tuple else (*_ints(z), 1, 1)
    num_params, num_runs, pa = _split(nums)
    den_params, den_runs, pb = _split(dens)
    g = gcd(pa, pb)
    extra = len(den_params) - len(num_params)       # the Qd left over
    # the ratio's factors outside the products, and what each step adds,
    # each reduced once
    sn, sd = zn * (pb // g), zd * (pa // g)
    stepn, stepd = zpn * qd ** max(extra, 0), zpd * qd ** max(-extra, 0)
    g, h = gcd(sn, sd), gcd(stepn, stepd)
    sn, sd, stepn, stepd = sn // g, sd // g, stepn // h, stepd // h
    runs = num_runs or den_runs
    pn = pd = 1                                     # q^k
    tn = td = 1
    for k in range(terms):
        yield tn, td
        if k == terms - 1:
            return
        rn, rd = sn, sd
        for an, ad in num_params:
            rn *= ad * pd - an * pn
        for bn, bd in den_params:
            rd *= bd * pd - bn * pn
        if runs:
            rn, rd = _run_step(num_runs, rn, rd)
            rd, rn = _run_step(den_runs, rd, rn)
        if not rd:
            _pole(dens, q, k)
        tn *= rn
        td *= rd
        sn *= stepn
        sd *= stepd
        pn *= qn
        pd *= qd


def _run(a) -> list:
    """[num, den, base num, base den] of a pair (a, p), read as (a;p)_k."""
    return [*_ints(a[0]), *_ints(a[1])]


def _split(params: Sequence) -> Tuple[list, list, int]:
    """The base-q parameters as int pairs, each reduced with one gcd; a run
    (``_run``) for each pair (a, p); and the product of the pairs' dens."""
    pairs, runs, dens = [], [], 1
    for a in params:
        if a.__class__ is tuple:
            runs.append(_run(a))
            continue
        num, den = a.numerator, a.denominator
        g = gcd(num, den)
        if den < 0:
            g = -g
        den //= g
        pairs.append((num // g, den))
        dens *= den
    return pairs, runs, dens


def _run_step(runs: list, rn: int, rd: int) -> Tuple[int, int]:
    """rn times each run's 1 - c, and rd times its den, at c = a p^k; then
    each run moves on to c p."""
    for run in runs:
        cn, cd, pn, pd = run
        rn *= cd - cn
        rd *= cd
        run[0] = cn * pn
        run[1] = cd * pd
    return rn, rd


def _pole(dens: Sequence, q, k: int) -> None:
    """Raise PoleError naming the first of dens, in list order, whose factor
    1 - b q^k (or 1 - b p^k, for a pair (b, p)) vanishes."""
    for b in dens:
        (cn, cd), (pn, pd) = map(_ints, b if isinstance(b, tuple) else (b, q))
        if cn * pn**k == cd * pd**k:
            raise PoleError("denominator factor 1 - (%s) q^%d vanished at k=%d"
                            % (b, k, k + 1))


def poch_ratio(nums: Sequence, dens: Sequence, q, n: int, z=1,
               pre=1) -> Ratio:
    """pre times the term T_n = (nums;q)_n z^n / (dens;q)_n of
    ``poch_ratio_pairs``, one unreduced ``Ratio``; PoleError where
    (dens;q)_n is 0."""
    if n < 0:
        raise ValueError("poch_ratio needs n >= 0, got %d" % n)
    for num, den in poch_ratio_pairs(nums, dens, q, z, n + 1):
        pass
    return Ratio(num * pre.numerator, den * pre.denominator)


def linear(pairs: Iterable[Tuple[int, int]], c, p) -> Pairs:
    """The given int pairs, the k-th times the per-term factor 1 - c p^k; if
    each den divides the next, so does each den yielded."""
    cn, cd = _ints(c)                               # c p^k
    pn, pd = _ints(p)
    for num, den in pairs:
        yield num * (cd - cn), den * cd
        cn *= pn
        cd *= pd


def pair_sum(pairs: Iterable[Tuple[int, int]],
             pre: Fraction = Fraction(1)) -> Ratio:
    """pre times the sum of the terms num/den of int pairs each of whose den
    divides the next, as one unreduced ``Ratio``: the running numerator is
    brought over each new den by the exact quotient of the dens."""
    num, den = 0, 1
    for n, d in pairs:
        num = num * (d // den) + n
        den = d
    return Ratio(num * pre.numerator, den * pre.denominator)


def poch_ratio_sum(nums: Sequence, dens: Sequence, q, z, terms: int) -> Ratio:
    """Exact sum_{k=0}^{terms-1} (nums;q)_k z^k / (dens;q)_k (see
    ``poch_ratio_pairs``)."""
    return pair_sum(poch_ratio_pairs(nums, dens, q, z, terms))


class TermRow:
    """The terms F_0, ..., F_n of one terminating sum, as far as defined: the
    kernel's unreduced int pairs ``pairs``, each den dividing the next.

    ``pairs`` stops short of n + 1 entries where a denominator factor
    vanished; reading a term from there on, or the total, raises PoleError
    with the message ``pole``.  Terms outside [0, n] are 0.  ``pair`` reads
    an entry as it is, ``term`` reduces it to a ``Fraction`` and ``total``
    is one unreduced ``Ratio``.  A plain class, like every class of the
    package (``qcore._Frozen`` says why).
    """

    __slots__ = ("pairs", "n", "pole")

    def __init__(self, pairs: Sequence[Tuple[int, int]], n: int,
                 pole: str = ""):
        self.pairs, self.n, self.pole = pairs, n, pole

    def pair(self, k: int) -> Tuple[int, int]:
        """The entry at k as an unreduced int pair; (0, 1) outside [0, n]."""
        if k < 0 or k > self.n:
            return 0, 1
        if k >= len(self.pairs):
            raise PoleError(self.pole)
        return self.pairs[k]

    def term(self, k: int) -> Fraction:
        return Fraction(*self.pair(k))

    def total(self) -> Ratio:
        if len(self.pairs) <= self.n:
            raise PoleError(self.pole)
        return pair_sum(self.pairs)


def pair_row(pairs: Iterable[Tuple[int, int]], n: int,
             pre: Fraction = Fraction(1)) -> TermRow:
    """The row of the terms k = 0..n, given as int pairs each of whose den
    divides the next, each times pre; a PoleError ends the row where it
    arose."""
    out = []
    pole = ""
    pn, pd = pre.numerator, pre.denominator
    try:
        for num, den in pairs:
            out.append((num * pn, den * pd))
    except PoleError as exc:
        pole = str(exc)
    return TermRow(out, n, pole)


def wp_pairs(a_list: Sequence, q, z, terms: int) -> Pairs:
    """The terms k = 0..terms-1 of the well-poised series
    (a_1, ..., a_{r+1};q)_k z^k / (q, a_1 q/a_2, ..., a_1 q/a_{r+1};q)_k, as
    the int pairs of ``poch_ratio_pairs``; a zero a_2, ..., a_{r+1} raises
    PoleError before any term is read.  Each a_1 q/a_i is one ``Ratio``."""
    ((an, ad), *rest), (qn, qd) = map(_ints, a_list), _ints(q)
    if any(n == 0 for n, _ in rest):
        raise PoleError("well-poised parameter must be nonzero")
    dens = [q] + [Ratio(an * qn * d, ad * qd * n) for n, d in rest]
    return poch_ratio_pairs(a_list, dens, q, z, terms)


def wp_term(a_list: Sequence, q, z, k: int) -> Fraction:
    """Exact k-th term of the well-poised series of ``wp_pairs``; 0 for
    k < 0, 1 at k = 0.  The list needs at least two parameters."""
    if len(a_list) < 2:
        raise ValueError("well-poised term needs at least two parameters")
    if k < 0:
        return Fraction(0)
    *_, (num, den) = wp_pairs(a_list, q, z, k + 1)
    return Fraction(num, den)


def contiguous_alpha(a_list: Sequence, q, z) -> Fraction:
    """Coefficient of the first contiguous relation.

    Defined for r >= 2 (a parameter list of length >= 3); for r = 1 the
    factor 1 - a_1/a_r vanishes identically and PoleError is raised.
    """
    a = [Fraction(x) for x in a_list]
    q = Fraction(q)
    z = Fraction(z)
    r = len(a) - 1
    a1, ar, ar1 = a[0], a[r - 1], a[r]
    num = (ar - ar1) * (1 - a1 / (ar * ar1)) * (1 - a1) * (1 - a1 * q) * z
    for ai in a[1:r - 1]:
        num *= 1 - ai
    den = (1 - a1 / ar) * (1 - a1 / ar1)
    for ai in a[1:]:
        den *= 1 - a1 * q / ai
    if den == 0:
        detail = " (r=1 is identically singular)" if r == 1 else ""
        raise PoleError("contiguous_alpha denominator vanished" + detail)
    return num / den


def contiguous_beta(a_list: Sequence, q, z) -> Fraction:
    """Coefficient of the second contiguous relation (any r >= 1)."""
    a = [Fraction(x) for x in a_list]
    q = Fraction(q)
    z = Fraction(z)
    r = len(a) - 1
    a1, ar1 = a[0], a[r]
    num = -(1 - a1) * (1 - a1 * q) * z
    for ai in a[1:r]:
        num *= 1 - ai
    den = 1 - a1 / ar1
    for ai in a[1:]:
        den *= 1 - a1 * q / ai
    if den == 0:
        raise PoleError("contiguous_beta denominator vanished")
    return num / den


def _shifted(a_list: Sequence[Fraction], q: Fraction) -> list:
    return [a_list[0] * q * q] + [a * q for a in a_list[1:]]


def contiguous_residual_1(a_list: Sequence, q, z, k: int) -> Fraction:
    """Residual of the first contiguous relation at term index k; always 0.

    F_k(..., a_r q, a_{r+1}) - F_k(..., a_r, a_{r+1} q)
        - alpha * F_{k-1}(a_1 q^2, a_2 q, ..., a_{r+1} q).
    """
    *head, ar, ar1 = a_list
    first = wp_term([*head, ar * q, ar1], q, z, k)
    second = wp_term([*head, ar, ar1 * q], q, z, k)
    alpha = contiguous_alpha(a_list, q, z)
    return first - second - alpha * wp_term(_shifted(a_list, q), q, z, k - 1)


def contiguous_residual_2(a_list: Sequence, q, z, k: int) -> Fraction:
    """Residual of the second contiguous relation at term index k; always 0.

    F_k(..., a_{r+1}; q, qz) - F_k(..., a_{r+1} q; q, z)
        - beta * F_{k-1}(a_1 q^2, a_2 q, ..., a_{r+1} q; q, z).
    """
    *head, ar1 = a_list
    first = wp_term(a_list, q, q * z, k)
    second = wp_term([*head, ar1 * q], q, z, k)
    beta = contiguous_beta(a_list, q, z)
    return first - second - beta * wp_term(_shifted(a_list, q), q, z, k - 1)


def trivial_identity_residuals(a, b, c, x) -> Tuple[Fraction, Fraction]:
    """Residuals of the two rational-function identities behind the
    contiguous relations; both are always exactly 0.
    """
    a, b, c, x = Fraction(a), Fraction(b), Fraction(c), Fraction(x)
    if b in (0, 1) or c in (0, 1):
        raise PoleError("b and c must avoid {0, 1}")
    if a == b or a == c:
        raise PoleError("a/b and a/c must differ from 1")
    lhs1 = ((1 - b * x) * (1 - a * x / b) / ((1 - b) * (1 - a / b))
            - (1 - c * x) * (1 - a * x / c) / ((1 - c) * (1 - a / c)))
    rhs1 = ((b - c) * (1 - a / (b * c)) * (1 - x) * (1 - a * x)
            / ((1 - b) * (1 - c) * (1 - a / b) * (1 - a / c)))
    res1 = lhs1 - rhs1
    lhs2 = x - (1 - c * x) * (1 - a * x / c) / ((1 - c) * (1 - a / c))
    rhs2 = -(1 - x) * (1 - a * x) / ((1 - c) * (1 - a / c))
    res2 = lhs2 - rhs2
    return res1, res2
