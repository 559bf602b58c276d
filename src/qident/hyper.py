"""Terminating basic hypergeometric sums and the well-poised contiguous relations.

``poch_ratio_pairs`` is the one term-ratio loop behind every one-sided
terminating sum, same-index Pochhammer quotient and certificate row; z may
be a pair (z, p), read as z^k p^{k(k-1)/2}.  Parameters arrive as reduced
int pairs: ``Fraction``s, or ``Ratio``s built from a point's symbols and
reduced with one gcd as the kernel reads them.  It yields each term as an
unreduced int pair, each denominator dividing the next: each step's ratio is
divided by its gcd before it is multiplied in, and the terms are not reduced.
A sum is brought over the last denominator with exact int quotients (Knuth,
TAOCP vol. 2, section 4.5.1), and each side is reduced once: ``poch_ratio``
and ``pair_sum`` build one ``Fraction``.  A ``TermRow`` keeps the kernel's
own pairs, times its prefactor, so the certificates' residuals combine them
as ints; its total is one ``Fraction`` and a term is reduced where it is
read.  ``linear`` is the one loop for a per-term
factor 1 - c p^k that no Pochhammer ratio holds: the well-poised factor, the
1 + z q^k of ``quintuple_ccg``, the bilateral sums' 1 - w q^{2j} and the
anti-differences' factors.  The bilateral ``jacobi_finite`` and
``quintuple_finite_mn`` run on it too, after a pole check that refuses
exactly the points where their per-k Pochhammers of any index vanish.

The two contiguous relations connect the k-th term of a well-poised series
whose last two parameters (first relation) or whose argument (second) differ
by a factor of q to the (k-1)-th term at a uniformly q-shifted parameter
list; both are exposed as zero-residual checks.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    Each run [num, den, base num, base den] holds a q^k and its base as
    unreduced ints.  The ratio is an int pair, small next to the terms; it is
    divided by its gcd before it is multiplied in, and the terms are not
    reduced.
    """
    qn, qd = _ints(q)
    zn, zd, zpn, zpd = _run(z if isinstance(z, tuple) else (z, 1), qn, qd)
    num_runs = [_run(a, qn, qd) for a in nums]
    den_runs = [_run(b, qn, qd) for b in dens]
    tn = td = 1
    for k in range(terms):
        yield tn, td
        if k == terms - 1:
            return
        rn, rd = zn, zd
        zn *= zpn
        zd *= zpd
        for run in num_runs:
            cn, cd, pn, pd = run
            rn *= cd - cn
            rd *= cd
            run[0] = cn * pn
            run[1] = cd * pd
        for run, b in zip(den_runs, dens):
            cn, cd, pn, pd = run
            if cn == cd:
                raise PoleError(
                    "denominator factor 1 - (%s) q^%d vanished at k=%d"
                    % (b, k, k + 1))
            rn *= cd
            rd *= cd - cn
            run[0] = cn * pn
            run[1] = cd * pd
        g = gcd(rn, rd)
        tn *= rn // g
        td *= rd // g


def _run(a, qn: int, qd: int) -> list:
    """[num, den, base num, base den] of a Pochhammer parameter a, read with
    base q = qn/qd, or of a pair (a, p)."""
    if isinstance(a, tuple):
        return [*_ints(a[0]), *_ints(a[1])]
    num, den = a.numerator, a.denominator
    g = gcd(num, den) * (-1 if den < 0 else 1)
    return [num // g, den // g, qn, qd]


def poch_ratio(nums: Sequence, dens: Sequence, q, n: int, z=1,
               pre=1) -> Fraction:
    """pre times the term T_n = (nums;q)_n z^n / (dens;q)_n of
    ``poch_ratio_pairs``, one ``Fraction``; PoleError where (dens;q)_n is 0."""
    if n < 0:
        raise ValueError("poch_ratio needs n >= 0, got %d" % n)
    for num, den in poch_ratio_pairs(nums, dens, q, z, n + 1):
        pass
    return Fraction(num * pre.numerator, den * pre.denominator)


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
             pre: Fraction = Fraction(1)) -> Fraction:
    """pre times the sum of the terms num/den of int pairs each of whose den
    divides the next, as one ``Fraction``: the running numerator is brought
    over each new den by the exact quotient of the dens."""
    num, den = 0, 1
    for n, d in pairs:
        num = num * (d // den) + n
        den = d
    return Fraction(num * pre.numerator, den * pre.denominator)


def poch_ratio_sum(nums: Sequence, dens: Sequence, q, z, terms: int) -> Fraction:
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
    is one ``Fraction``.  A plain class, like ``identities.CrRow``.
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

    def total(self) -> Fraction:
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


@dataclass(frozen=True)
class WellPoisedTerm:
    """Inputs for the k-th term of a well-poised series.

    The denominator parameters are implied: (q, a_1 q/a_2, ..., a_1 q/a_{r+1}).
    """

    a_list: Tuple[Fraction, ...]
    q: Fraction
    z: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a_list", tuple(Fraction(a) for a in self.a_list))
        object.__setattr__(self, "q", Fraction(self.q))
        object.__setattr__(self, "z", Fraction(self.z))
        if len(self.a_list) < 2:
            raise ValueError("well-poised term needs at least two parameters")


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


def _wp_value(a_list: Sequence[Fraction], q: Fraction, z: Fraction, k: int) -> Fraction:
    if k < 0:
        return Fraction(0)
    *_, (num, den) = wp_pairs(a_list, q, z, k + 1)
    return Fraction(num, den)


def wp_term(t: WellPoisedTerm, k: int) -> Fraction:
    """Exact k-th well-poised term; 0 for k < 0, 1 at k = 0."""
    return _wp_value(t.a_list, t.q, t.z, k)


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


def contiguous_residual_1(t: WellPoisedTerm, k: int) -> Fraction:
    """Residual of the first contiguous relation at term index k; always 0.

    F_k(..., a_r q, a_{r+1}) - F_k(..., a_r, a_{r+1} q)
        - alpha * F_{k-1}(a_1 q^2, a_2 q, ..., a_{r+1} q).
    """
    a = list(t.a_list)
    q, z = t.q, t.z
    bumped_r = a[:-2] + [a[-2] * q, a[-1]]
    bumped_r1 = a[:-1] + [a[-1] * q]
    first = _wp_value(bumped_r, q, z, k)
    second = _wp_value(bumped_r1, q, z, k)
    alpha = contiguous_alpha(a, q, z)
    return first - second - alpha * _wp_value(_shifted(a, q), q, z, k - 1)


def contiguous_residual_2(t: WellPoisedTerm, k: int) -> Fraction:
    """Residual of the second contiguous relation at term index k; always 0.

    F_k(..., a_{r+1}; q, qz) - F_k(..., a_{r+1} q; q, z)
        - beta * F_{k-1}(a_1 q^2, a_2 q, ..., a_{r+1} q; q, z).
    """
    a = list(t.a_list)
    q, z = t.q, t.z
    bumped_r1 = a[:-1] + [a[-1] * q]
    first = _wp_value(a, q, q * z, k)
    second = _wp_value(bumped_r1, q, z, k)
    beta = contiguous_beta(a, q, z)
    return first - second - beta * _wp_value(_shifted(a, q), q, z, k - 1)


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
