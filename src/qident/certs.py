"""Mechanical replay of the inductive proofs behind the registered identities.

Each certificate packages one proof's machinery: the summand F_{n,k}, a
parameter shift sigma, the k-independent recurrence coefficients, and (for
the transformation proofs, whose right side is itself a sum of closed forms
G_{n,k}) an anti-difference H_{n,k} whose telescoping collapses the right
side's recurrence.  Three operations expose the machinery as zero-residual
checks; ``inductive_replay`` then re-derives each identity from its base
case by propagating the recurrence over the shift orbit and comparing every
node against direct evaluation of both sides.

``check_ranges`` is the one rule for how far each check runs, and
``check_point`` runs and counts every check of one sampled point within it.

F, G and H are read a level at a time: ``term``, ``rhs_term`` and
``anti_diff`` map (point, n) to the row of level n, whose ``pair(k)`` is the
entry at k as an unreduced int pair ((0, 1) outside [0, n]; PoleError from a
vanished denominator on) and ``term(k)`` the same entry reduced.
F_{n,k} and G_{n,k} are entries of the proved identity's summand rows in
``identities`` (the C_r row, ``schlosser_row``, is read by k-vector).  The
symbols, the index r of a multi-index proof and both sides at level n are
that identity's own, read from its registry entry, so a certificate replays
the proof of exactly the sums the harness verifies.

Every recurrence is one tuple of steps (c, dn, s), read as

    F_{n,k} = sum over steps of c(p, n) F_{n-dn, k-s*k_shift}(sigma^s p):

    jackson, watson, bailey:   (1, 1, 0)        (c_move, 1, 1)
    lebesgue, quintuple:       (c_keep, 1, 0)   (c_move, 1, 1)
    singh:                     (alpha, 1, 0)    (-beta, 2, 0)    (gamma, 2, 1)

The multi-index certificate (the C_r sum) has no steps: its recurrence is a
2^r-fold split over s in {0,1}^r with per-s coefficients beta_s and per-axis
shifts x_i -> x_i q^{s_i}.  ``_level_residuals`` is the one residual loop:
per level it evaluates each coefficient once and fetches each row once, then
yields the residuals in k order.  The term recurrence and the telescoped
right-side combination run on it, the per-k checks as one-k levels;
``check_point`` sums the combinations for the boundary check in its
telescoping pass, and the replay's propagation reads the same steps.  A
residual is one unreduced int pair, combined from the rows' own int pairs
(``pair``) and the coefficients' ints, so ``check_point``'s zero tests read
one int each; the public residual functions build one ``Fraction`` per
residual, which costs nothing where the numerator is 0.  The replay runs
no ``Fraction`` arithmetic either: a node's propagated value is one
unreduced int pair, cross-multiplied against the node's left side, which
is kept as the node's value; the C_r split residual, split coefficient and
coefficient residual are products of the point's ``Ratio`` int pairs,
reduced once, to one ``Fraction`` each.  A point keeps what is made from it (``ParamPoint.derived``): its shifts, and per
level its identity point, its rows and its step and C_r split coefficients,
so the sweeps and the replay make each once.

The anti-differences are rows on the term kernel, with any per-term factor
1 - c p^k applied by ``hyper.linear``.  They are not kept on the point: the
telescoping check reads each (point, n) once.  Each (x;q)_{k+1} of the
printed form is taken as (1 - x)(xq;q)_k, with 1 - x moved into the
k-independent prefactor P:

    watson   H_{n,k} = P (aq/bc, q^{1-n}, dq, eq;q)_k
                       / (q, aq/b, aq/c, de q^{1-n}/a;q)_k
    bailey   H_{n,k} = P (1 - lam q^k/a)
                       (lam b/a, lam c/a, lam d/a, g, q^{1-n}, lam q, eq, fq;q)_k
                       / (q, aq/b, aq/c, aq/d, lam q/e, lam q/f,
                          ef q^{1-n}/a, lam q^{n+1};q)_k
    singh    H_{n,0} = 0,  H_{n,j+1} = P (1 - q^{2j+1})
                       (Aq^2, Bq^2, q^{4-2n}, c^2 q^4;q^2)_j
                       / (q^2, ABq^3, -c q^{4-n}, -c q^{5-n};q^2)_j

with g = lam a q^{n+1}/(ef) and lam = a^2 q/(bcd).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import (Callable, Dict, Iterable, Iterator, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from .hyper import Pairs, TermRow, linear, pair_row, poch_ratio, poch_ratio_pairs
from .qcore import ParamPoint, PoleError, Ratio
from . import identities as _ident
from .identities import _div, _quot, _xs

LevelFn = Callable[[ParamPoint, int], "TermRow | _ident.CrRow"]
CoeffFn = Callable[[ParamPoint, int], Fraction]
Step = Tuple[CoeffFn, int, int]     # (coefficient, levels down, shifts)
Pair = Tuple[int, int]              # an unreduced value num/den, den nonzero


@dataclass(frozen=True)
class ProofCertificate:
    """One proof's machinery; what its identity says (symbols, indices and
    both sides) is read from the identity registry."""

    id: str
    identity: str                   # the registered identity the proof proves
    k_shift: int
    term: LevelFn
    shift: Callable[[ParamPoint], ParamPoint]
    steps: Tuple[Step, ...]
    rhs_term: Optional[LevelFn] = None
    anti_diff: Optional[LevelFn] = None

    @property
    def symbols(self) -> Tuple[str, ...]:
        return _ident.get_identity(self.identity).symbols

    @property
    def multi(self) -> bool:
        """True for the multi-index certificate, whose identity has index r."""
        return "r" in _ident.get_identity(self.identity).index_names

    @property
    def order(self) -> int:
        """The recurrence depth in n: the largest dn over the steps."""
        return max((dn for _, dn, _ in self.steps), default=1)

    def lhs_value(self, point: ParamPoint, n: int) -> Fraction:
        desc = _ident.get_identity(self.identity)
        return desc.lhs(_identity_point(self.identity, point, n))

    def rhs_value(self, point: ParamPoint, n: int) -> Fraction:
        desc = _ident.get_identity(self.identity)
        return desc.rhs(_identity_point(self.identity, point, n))


def _identity_point(identity_id: str, point: ParamPoint, n: int) -> ParamPoint:
    """The identity's own point at level n: index n set, derived symbols
    (e for jackson, lam for bailey) applied; made once per point."""
    return point.derived(_at_level, n, _ident.get_identity(identity_id).derive)


def _at_level(point: ParamPoint, n: int, derive) -> ParamPoint:
    point = ParamPoint(point.symbols, {**point.indices, "n": n})
    return derive(point) if derive is not None else point


def _row_level(identity_id: str,
               row: Union[str, Callable[[ParamPoint], TermRow]]) -> LevelFn:
    """Level reader of a row builder at the identity's own points.  A name is
    a builder in ``identities``, read by ``identities.read_row``; a function
    is called at each read.  A pole raised before the row exists gives a row
    with no entries, so that, as for any row, only reads inside [0, n] raise
    it."""
    def level(point: ParamPoint, n: int) -> TermRow:
        at = _identity_point(identity_id, point, n)
        try:
            return _ident.read_row(at, row) if isinstance(row, str) else row(at)
        except PoleError as exc:
            return TermRow([], n, str(exc))
    return level


# ---------------------------------------------------------------------------
# balanced very-well-poised summation (four free parameters)
# ---------------------------------------------------------------------------

def jackson_gamma(p: ParamPoint, n: int) -> Fraction:
    a, b, c, d, q = p.ratios("abcdq")
    num = ((a*a*q**n/(b*c*d) - q**(-n)) * (1 - b*c*d/a) * (1 - a*q)
           * (1 - a*q*q) * (1 - b) * (1 - c) * (1 - d) * q)
    den = ((1 - b*c*d*q**(-n)/a) * (1 - a*q**n) * (1 - a*q/b) * (1 - a*q/c)
           * (1 - a*q/d) * (1 - b*c*d*q**(1-n)/a) * (1 - a*q**(n+1)))
    return _div(num, den)


# ---------------------------------------------------------------------------
# q-Whipple transformation (five free parameters)
# ---------------------------------------------------------------------------

def watson_beta(p: ParamPoint, n: int) -> Fraction:
    a, b, c, d, e, q = p.ratios("abcdeq")
    num = -(1 - a*q) * (1 - a*q*q) * (1 - b) * (1 - c) * (1 - d) * (1 - e) \
        * a*a*q**(n+1)
    den = ((1 - a*q/b) * (1 - a*q/c) * (1 - a*q/d) * (1 - a*q/e)
           * (1 - a*q**n) * (1 - a*q**(n+1)) * b*c*d*e)
    return _div(num, den)


def watson_anti_diff_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, q = p.ratios("abcdeq")
    n = p.idx("n")
    x = d*e*q**(-n)/a
    pre = _div((1 - d) * (1 - e) * poch_ratio([a*q], [], q, n - 1)
               * poch_ratio([a*q/(d*e)], [a*q/d, a*q/e], q, n), 1 - x)
    ser = poch_ratio_pairs([a*q/(b*c), q**(1-n), d*q, e*q],
                           [q, a*q/b, a*q/c, x*q], q, 1, n + 1)
    return pair_row(ser, n, pre)


# ---------------------------------------------------------------------------
# two-level very-well-poised transformation (six free parameters)
# ---------------------------------------------------------------------------

def bailey_alpha(p: ParamPoint, n: int) -> Fraction:
    a, b, c, d, e, f, q = p.ratios("abcdefq")
    lam = a*a*q / (b*c*d)
    num = (-(1 - b) * (1 - c) * (1 - d) * (1 - e) * (1 - f)
           * (1 - a*q) * (1 - a*q*q) * (1 - e*f/lam) * (1 - lam*a*q**(2*n)/(e*f)))
    den = ((1 - a*q/b) * (1 - a*q/c) * (1 - a*q/d) * (1 - a*q/e) * (1 - a*q/f)
           * (1 - a*q**n) * (1 - a*q**(n+1))
           * (1 - e*f*q**(1-n)/lam) * (1 - e*f*q**(-n)/lam) * q**(n-1))
    return _div(num, den)


def bailey_anti_diff_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, f, q, lam = p.ratios([*"abcdefq", "lam"])
    n = p.idx("n")
    g = lam*a*q**(n+1) / (e*f)
    x, y = e*f*q**(-n)/a, lam*q**n
    pre = _div((1 - a*lam*q**(2*n)/(e*f))
               * poch_ratio([a*q, lam*q/e, lam*q/f], [], q, n - 1)
               * poch_ratio([a*q/(e*f)], [a*q/e, a*q/f, lam*q/(e*f), lam], q, n)
               * (1 - lam) * (1 - e) * (1 - f), (1 - x) * (1 - y))
    ser = poch_ratio_pairs(
        [lam*b/a, lam*c/a, lam*d/a, g, q**(1-n), lam*q, e*q, f*q],
        [q, a*q/b, a*q/c, a*q/d, lam*q/e, lam*q/f, x*q, y*q], q, 1, n + 1)
    return pair_row(linear(ser, lam / a, q), n, pre)


# ---------------------------------------------------------------------------
# quadratic transformation (free symbols A = a^2, B = b^2, c)
# ---------------------------------------------------------------------------

def singh_alpha(p: ParamPoint, n: int) -> Fraction:
    c, q = p.ratios("cq")
    return _div((1 + q) * (1 + c*q**(1-n)), q * (1 + c*q**(-n)))


def singh_beta(p: ParamPoint, n: int) -> Fraction:
    c, q = p.ratios("cq")
    return _div(1 + c*q**(2-n), q * (1 + c*q**(-n)))


def singh_gamma(p: ParamPoint, n: int) -> Fraction:
    A, B, c, q = p.ratios("ABcq")
    num = ((1 - A) * (1 - B) * (1 - c*c) * (1 - A*q) * (1 - B*q)
           * (1 - c*c*q*q) * q**(3 - 2*n))
    den = ((1 - A*B*q) * (1 - A*B*q**3) * (1 + c*q**(-n)) * (1 + c*q**(1-n))
           * (1 + c*q**(2-n)) * (1 + c*q**(3-n)))
    return _div(num, den)


def singh_first_order_residual(p: ParamPoint, n: int, k: int) -> Fraction:
    """Residual of the first-order relation F_{n,k} - F_{n-1,k}
    = gamma'_n F_{n-1,k-1}(Aq, Bq, cq); always 0 for n >= 1."""
    A, B, c, q = map(p.sym, "ABcq")
    gamma1 = _div(-(1 - A) * (1 - B) * (1 - c*c) * q**(1-n),
                  (1 - A*B*q) * (1 + c*q**(-n)) * (1 + c*q**(1-n)))
    shifted = p.scaled(A=q, B=q, c=q)
    level = get_certificate("singh").term
    return (level(p, n).term(k) - level(p, n - 1).term(k)
            - gamma1 * level(shifted, n - 1).term(k - 1))


def singh_anti_diff_row(p: ParamPoint) -> TermRow:
    A, B, c, q = p.ratios("ABcq")
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
        for num, den in linear(ser, q, q2):         # 1 - q^{2j+1}
            yield pre.numerator * num, pre.denominator * den
    return pair_row(terms(), n)


# ---------------------------------------------------------------------------
# q-binomial / Pochhammer-quotient summations (one free symbol)
# ---------------------------------------------------------------------------

def lebesgue_keep(p: ParamPoint, n: int) -> Fraction:
    a, q = p.ratios("aq")
    return _div(1, 1 - a*q**n)


def lebesgue_move(p: ParamPoint, n: int) -> Fraction:
    a, q = p.ratios("aq")
    return _div(q**n, 1 - a*q**n)


def quintuple_keep(p: ParamPoint, n: int) -> Fraction:
    z, q = p.ratios("zq")
    return _div(1 - z*q**n, 1 - z*z*q**(n+1))


def quintuple_move(p: ParamPoint, n: int) -> Fraction:
    z, q = p.ratios("zq")
    return _div((1 - z*q) * z * q**n, 1 - z*z*q**(n+1))


# ---------------------------------------------------------------------------
# C_r certificate (multi-index)
# ---------------------------------------------------------------------------

def _pair_ratios(p: ParamPoint) -> "_ident.CrRow":
    """The pair products at shifts s over their value at no shift, by s."""
    return _ident.CrRow(1, p.sym("a"), p.sym("q"), _xs(p, p.idx("r")), ())


def _x_ratios(p: ParamPoint) -> list:
    return p.ratios(["x%d" % i for i in range(1, p.idx("r") + 1)])


def _poch(q: Ratio, m: int, *avals: Ratio) -> Ratio:
    """(avals;q)_m for m >= 0, as one unreduced Ratio."""
    t = Ratio(1)
    for a in avals:
        for _ in range(m):
            t *= 1 - a
            a *= q
    return t


def schlosser_split_coeff(p: ParamPoint, n: int, ss: Tuple[int, ...]) -> Fraction:
    """Per-s coefficient of the 2^r-fold split (product form), at lower level n.

    The checks read it through ``p.derived``, once per point, n and s: the
    replay's coefficient residual reads the value the sweep evaluated."""
    r = p.idx("r")
    a, b, c, d, q = p.ratios("abcdq")
    t = Ratio(*p.derived(_pair_ratios).pair(ss))
    for xi, si in zip(_x_ratios(p), ss):
        num = (_poch(q, 2*si, a*xi*xi*q)
               * _poch(q, si, b*xi, c*xi, d*xi, b*c*d*xi*q**(r-1)/a,
                       a*a*xi*q**(2*n-r+3)/(b*c*d)))
        den = (q**(n*si)
               * _poch(q, 2*si, a*xi*xi*q**(n+1), b*c*d*xi*q**(r-n-2)/a)
               * _poch(q, si, a*xi*q/b, a*xi*q/c, a*xi*q/d))
        t *= _quot(-num if si else num, den)
    return _div(t, 1)


def _schlosser_shift_s(p: ParamPoint, ss: Sequence[int]) -> ParamPoint:
    q = p.sym("q")
    updates = {"x%d" % (i + 1): q**ss[i] for i in range(len(ss)) if ss[i]}
    return p.scaled(**updates) if updates else p


def schlosser_split_residual(point: ParamPoint, n: int, i: int,
                             k_i: int) -> Fraction:
    """Denominator-cleared residual of the two-term partial-fraction split
    used in the C_r induction step; always 0.

    The displayed fraction form is 0/0 at k_i = n + 1, so the residual is the
    identity multiplied through by
    (1 - q^{-n+k_i-1})(1 - a x_i^2 q^{n+k_i+1})(1 - q^{n+1})(1 - a x_i^2 q^{n+1}),
    which is defined everywhere and vanishes iff the split holds.
    """
    a, b, c, d, q, xi = point.ratios([*"abcdq", "x%d" % i])
    r = point.idx("r")
    lhs_num = ((1 - a*a*xi*q**(n+k_i-r+2)/(b*c*d))
               * (1 - b*c*d*xi*q**(k_i+r-n-2)/a))
    lhs_den = (1 - q**(-n+k_i-1)) * (1 - a*xi*xi*q**(n+k_i+1))
    t1_num = (-q**(n+1) * (1 - a*a*xi*q**(n-r+2)/(b*c*d))
              * (1 - b*c*d*xi*q**(r-n-2)/a))
    t2_num = ((1 - a*a*xi*q**(2*n-r+3)/(b*c*d)) * (1 - b*c*d*xi*q**(r-1)/a)
              * (1 - a*xi*xi*q**k_i) * (1 - q**k_i))
    common = (1 - q**(n+1)) * (1 - a*xi*xi*q**(n+1))
    return _div(lhs_num * common - t1_num * lhs_den - t2_num, 1)


def _schlosser_alpha_s(point: ParamPoint, n: int,
                       ss: Sequence[int]) -> Ratio:
    a, b, c, d, q = point.ratios("abcdq")
    r = point.idx("r")
    t = _quot(Ratio(1), (1 - q**(n+1)) ** r)
    for xi, si in zip(_x_ratios(point), ss):
        num = (((1 - a*a*xi*q**(2*n-r+3)/(b*c*d)) * (1 - b*c*d*xi*q**(r-1)/a))
               if si else (-q**(n+1) * (1 - a*a*xi*q**(n-r+2)/(b*c*d))
                           * (1 - b*c*d*xi*q**(r-n-2)/a)))
        t *= _quot(num, 1 - a*xi*xi*q**(n+1))
    return t


def schlosser_coeff_residual(point: ParamPoint, n: int,
                             s_vector: Sequence[int]) -> Fraction:
    """Residual between the two displayed forms of the split coefficient
    beta_{s_1..s_r} (the alpha-based expansion vs. the product form); always 0.
    """
    ss, r = tuple(s_vector), point.idx("r")
    if len(ss) != r or any(s not in (0, 1) for s in ss):
        raise ValueError("s_vector must lie in {0,1}^r")
    a, b, c, d, q = point.ratios("abcdq")
    form1 = (_schlosser_alpha_s(point, n, ss)
             * Ratio(*point.derived(_pair_ratios).pair(ss)))
    for xi, si in zip(_x_ratios(point), ss):
        form1 *= _quot(1 - a*xi*xi*q**(2*si), 1 - a*xi*xi)
        num = (_poch(q, 2*si, a*xi*xi) * _poch(q, si, b*xi, c*xi, d*xi)
               * q**si * (1 - q**(-n-1)))
        den = (_poch(q, si, a*xi*q/b, a*xi*q/c, a*xi*q/d)
               * _poch(q, si + 1, b*c*d*xi*q**(r-n-2)/a)
               * _poch(q, 1 - si, a*a*xi*q**(n-r+2)/(b*c*d)))
        f = 1 - a*xi*xi*q**(n+si+1)         # to the power 1 - 2 s_i
        form1 *= _quot(num, den * f) if si else _quot(num * f, den)
    return _div(form1 - point.derived(schlosser_split_coeff, n, ss), 1)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _scale_shift(**factors_of_q):
    powers = dict(factors_of_q)

    def shift(point: ParamPoint) -> ParamPoint:
        q = point.sym("q")
        return point.scaled(**{name: q**e for name, e in powers.items()})
    return shift


def _one(p: ParamPoint, n: int) -> Fraction:
    return Fraction(1)


def _build_certificates() -> Dict[str, ProofCertificate]:
    certs = {}

    def add(cert: ProofCertificate) -> None:
        certs[cert.id] = cert

    add(ProofCertificate(
        id="jackson", identity="jackson_8phi7", k_shift=1,
        term=_row_level("jackson_8phi7", "jackson_row"),
        shift=_scale_shift(a=2, b=1, c=1, d=1),
        steps=((_one, 1, 0), (jackson_gamma, 1, 1))))

    add(ProofCertificate(
        id="watson", identity="watson_transform", k_shift=1,
        term=_row_level("watson_transform", "watson_row"),
        shift=_scale_shift(a=2, b=1, c=1, d=1, e=1),
        steps=((_one, 1, 0), (watson_beta, 1, 1)),
        rhs_term=_row_level("watson_transform", "watson_rhs_row"),
        anti_diff=_row_level("watson_transform", watson_anti_diff_row)))

    add(ProofCertificate(
        id="bailey", identity="bailey_10phi9", k_shift=1,
        term=_row_level("bailey_10phi9", "bailey_row"),
        shift=_scale_shift(a=2, b=1, c=1, d=1, e=1, f=1),
        steps=((_one, 1, 0), (bailey_alpha, 1, 1)),
        rhs_term=_row_level("bailey_10phi9", "bailey_rhs_row"),
        anti_diff=_row_level("bailey_10phi9", bailey_anti_diff_row)))

    add(ProofCertificate(
        id="singh", identity="singh_quadratic", k_shift=2,
        term=_row_level("singh_quadratic", "singh_lhs_row"),
        shift=_scale_shift(A=2, B=2, c=2),
        steps=((singh_alpha, 1, 0), (lambda p, n: -singh_beta(p, n), 2, 0),
               (singh_gamma, 2, 1)),
        rhs_term=_row_level("singh_quadratic", "singh_rhs_row"),
        anti_diff=_row_level("singh_quadratic", singh_anti_diff_row)))

    add(ProofCertificate(
        id="lebesgue", identity="lebesgue_finite", k_shift=1,
        term=_row_level("lebesgue_finite", "lebesgue_row"),
        shift=_scale_shift(a=2),
        steps=((lebesgue_keep, 1, 0), (lebesgue_move, 1, 1))))

    add(ProofCertificate(
        id="quintuple", identity="quintuple_finite", k_shift=1,
        term=_row_level("quintuple_finite", "quintuple_row"),
        shift=_scale_shift(z=1),
        steps=((quintuple_keep, 1, 0), (quintuple_move, 1, 1))))

    add(ProofCertificate(
        id="schlosser", identity="schlosser_cr", k_shift=1,
        term=_row_level("schlosser_cr", "schlosser_row"), shift=lambda p: p,
        steps=()))

    return certs


_CERTS = _build_certificates()


def list_certificates() -> Tuple[ProofCertificate, ...]:
    return tuple(_CERTS.values())


def certificate_ids() -> Tuple[str, ...]:
    return tuple(_CERTS.keys())


def get_certificate(proof_id: str) -> ProofCertificate:
    try:
        return _CERTS[proof_id]
    except KeyError:
        raise KeyError("unknown proof certificate %r (known: %s)"
                       % (proof_id, ", ".join(_CERTS))) from None


CertOrId = Union[ProofCertificate, str]


def _resolve(cert: CertOrId) -> ProofCertificate:
    return cert if isinstance(cert, ProofCertificate) else get_certificate(cert)


REPLAY_N_MAX = 5
CHECKS = ("term_recurrence", "telescoping", "boundary", "replay")
# the largest n of the term recurrence, telescoping and boundary checks, the
# largest n of the replay, and the range r is drawn from (None: no index r)
CheckRanges = NamedTuple("CheckRanges", [
    ("sweep_n", int), ("replay_n", int), ("r", Optional[Tuple[int, int]])])


def check_ranges(cert: ProofCertificate, n_max: int, r_max: int) -> CheckRanges:
    """How far each check runs: a single-index proof sweeps to n_max and
    replays to at most REPLAY_N_MAX; the C_r proof does both to the n, and
    draws r from the range, of its identity's ``sampled_ranges``."""
    if not cert.multi:
        return CheckRanges(n_max, min(n_max, REPLAY_N_MAX), None)
    ranges = _ident.sampled_ranges(_ident.get_identity(cert.identity), n_max,
                                   r_max=r_max)
    return CheckRanges(ranges["n"][1], ranges["n"][1], ranges["r"])


def check_point(cert: ProofCertificate, point: ParamPoint, ranges: CheckRanges
                ) -> Tuple[Dict[str, int], Optional[Dict]]:
    """Run every check for one sampled point; returns (counts, failure)."""
    counts = dict.fromkeys(CHECKS, 0)

    def fail(check: str, **extra) -> Dict:
        info = {"check": check, "point": _ident.serialize_point(point)}
        info.update(extra)
        return info

    # each residual is an unreduced int pair, zero exactly when its num is
    for n in range(cert.order, ranges.sweep_n + 1):
        for k, (residual, _) in _term_residuals(cert, point, n):
            if residual:
                return counts, fail("term_recurrence", n=n, k=(
                    list(k) if cert.multi else k))
            counts["term_recurrence"] += 1
    if cert.anti_diff is not None:
        # the boundary sum is taken in the telescoping pass
        for n in range(cert.order, ranges.sweep_n + 1):
            boundary = 0, 1
            for k, combo, (residual, _) in _telescoped(cert, point, n,
                                                       range(n + 1)):
                if residual:
                    return counts, fail("telescoping", n=n, k=k)
                counts["telescoping"] += 1
                boundary = _plus(boundary, combo)
            if boundary[0]:
                return counts, fail("boundary", n=n)
            counts["boundary"] += 1
    if not inductive_replay(cert, point, ranges.replay_n):
        return counts, fail("inductive_replay")
    counts["replay"] += 1
    return counts, None


# ---------------------------------------------------------------------------
# residual operations
# ---------------------------------------------------------------------------

def _back(k, back):
    """The index k moved back by a step's k-shift (a vector for the C_r sum)."""
    if isinstance(k, tuple):
        return tuple(ki - bi for ki, bi in zip(k, back))
    return k - back


def _level_residuals(cert: ProofCertificate, read: LevelFn, point: ParamPoint,
                     n: int, ks: Iterable) -> Iterator[Tuple[object, Pair]]:
    """(k, residual) for each k of ks in order: read's entry at (point, n, k)
    minus the recurrence's right side read off read's lower rows, as one
    unreduced int pair.

    Coefficients, shifted points and rows are fixed per level and are made
    here, once; per k only row entries are read, as the rows' own int pairs,
    so a nonzero residual at k is yielded before any entry past k is read.
    """
    top = read(point, n)
    lower = []              # (coefficient num, den, row, k-shift)
    if cert.multi:
        for ss in itertools.product((0, 1), repeat=point.idx("r")):
            c = point.derived(schlosser_split_coeff, n - 1, ss)
            lower.append((c.numerator, c.denominator,
                          read(point.derived(_schlosser_shift_s, ss), n - 1),
                          ss))
    else:
        shifted = [point]
        for coeff, dn, s in cert.steps:
            while len(shifted) <= s:
                shifted.append(shifted[-1].derived(cert.shift))
            c = point.derived(coeff, n)
            lower.append((c.numerator, c.denominator,
                          read(shifted[s], n - dn), s * cert.k_shift))
    for k in ks:
        num, den = top.pair(k)
        for cn, cd, row, back in lower:
            rn, rd = row.pair(_back(k, back))
            if rn:
                rd *= cd
                num = num * rd - cn * rn * den
                den *= rd
        yield k, (num, den)


def term_recurrence_residuals(cert: CertOrId, point: ParamPoint, n: int,
                              ks: Optional[Iterable] = None
                              ) -> Iterator[Tuple[object, Fraction]]:
    """(k, F_{n,k} minus its recurrence right side) for each k of ks, by
    default every k of level n (k-vectors for the multi-index certificate);
    every residual is exactly 0."""
    return ((k, Fraction(*residual))
            for k, residual in _term_residuals(_resolve(cert), point, n, ks))


def _term_residuals(cert: ProofCertificate, point: ParamPoint, n: int,
                    ks: Optional[Iterable] = None
                    ) -> Iterator[Tuple[object, Pair]]:
    """The residuals of ``term_recurrence_residuals`` as unreduced int pairs;
    an n below the proof's order is refused at the call."""
    if n < cert.order:
        raise ValueError("term recurrence needs n >= %d" % cert.order)
    if ks is None:
        ks = (itertools.product(range(n + 1), repeat=point.idx("r"))
              if cert.multi else range(n + 1))
    return _level_residuals(cert, cert.term, point, n, ks)


def term_recurrence_residual(cert: CertOrId, point: ParamPoint, n: int,
                             k) -> Fraction:
    """F_{n,k} minus its recurrence right side; always exactly 0.

    ``k`` is an int for the single-index certificates and a k-vector (tuple)
    for the multi-index one (an int is accepted there when r = 1).
    """
    cert = _resolve(cert)
    if cert.multi and isinstance(k, int):
        k = (k,)
    return next(term_recurrence_residuals(cert, point, n, (k,)))[1]


def _right_side_levels(cert: ProofCertificate, point: ParamPoint, n: int,
                       ks: Iterable, check: str
                       ) -> Iterator[Tuple[int, Pair]]:
    """The recurrence's residual on the right-side terms G: the telescoped
    right-side combination at each k of ks."""
    if cert.rhs_term is None or cert.anti_diff is None:
        raise ValueError("certificate %s has no anti-difference" % cert.id)
    if n < cert.order:
        raise ValueError("%s needs n >= %d" % (check, cert.order))
    return _level_residuals(cert, cert.rhs_term, point, n, ks)


def _telescoped(cert: ProofCertificate, point: ParamPoint, n: int,
                ks: Iterable[int]) -> Iterator[Tuple[int, Pair, Pair]]:
    """(k, combination, telescoping residual) for each k of ks, both as
    unreduced int pairs."""
    combos = _right_side_levels(cert, point, n, ks, "telescoping")
    h = cert.anti_diff(point, n)
    return ((k, c, _minus(c, _minus(h.pair(k), h.pair(k - 1))))
            for k, c in combos)


def _minus(x: Pair, y: Pair) -> Pair:
    """x - y as an unreduced int pair: over x's den where y's den divides
    it, as it does within a row, else over the product of the dens."""
    (xn, xd), (yn, yd) = x, y
    quot, rem = divmod(xd, yd)
    if rem:
        return xn * yd - yn * xd, xd * yd
    return xn - yn * quot, xd


def _plus(x: Pair, y: Pair) -> Pair:
    """x + y as an unreduced int pair over the lcm of the dens, so that a
    running sum does not carry every den it has met."""
    (xn, xd), (yn, yd) = x, y
    g = gcd(xd, yd)
    return xn * (yd // g) + yn * (xd // g), xd // g * yd


def telescoping_residuals(cert: CertOrId, point: ParamPoint, n: int,
                          ks: Optional[Iterable[int]] = None
                          ) -> Iterator[Tuple[int, Fraction]]:
    """(k, telescoped right-side combination minus (H_{n,k} - H_{n,k-1}))
    for each k of ks, by default 0..n; every residual is exactly 0."""
    return ((k, Fraction(*residual)) for k, _, residual in _telescoped(
        _resolve(cert), point, n, range(n + 1) if ks is None else ks))


def telescoping_residual(cert: CertOrId, point: ParamPoint, n: int,
                         k: int) -> Fraction:
    """Telescoped right-side combination minus (H_{n,k} - H_{n,k-1}); always 0."""
    return next(telescoping_residuals(cert, point, n, (k,)))[1]


def boundary_check(cert: CertOrId, point: ParamPoint, n: int) -> bool:
    """True iff the summed telescoping collapses exactly:
    sum_{k=0}^{n} of the telescoped right-side combination is 0.
    ``check_point`` takes this sum from its telescoping pass."""
    cert = _resolve(cert)
    total = 0, 1
    for _, c in _right_side_levels(cert, point, n, range(n + 1),
                                   "boundary check"):
        total = _plus(total, c)
    return total[0] == 0


# ---------------------------------------------------------------------------
# inductive replay
# ---------------------------------------------------------------------------

def inductive_replay(proof: CertOrId, point: ParamPoint, n_max: int) -> bool:
    """Re-derive the identity from its base case at the given point.

    The level-n recurrence references lower levels at shifted points, so the
    replay propagates values over the triangle V[m][j] = level m at the
    j-fold shifted point, V[m][j] = sum of c(p_j, m) V[m-dn][j+s] over the
    steps, starting from directly evaluated levels 0..order-1, and checks
    every node against direct evaluation of both sides.  Returns True iff
    all checks hold exactly.
    """
    cert = _resolve(proof)
    if cert.multi:
        return _schlosser_replay(cert, point, n_max)
    pts = [point]
    for _ in range(n_max):
        pts.append(pts[-1].derived(cert.shift))

    values: Dict[Tuple[int, int], Fraction] = {}
    for m in range(cert.order):
        for j in range(n_max + 1):
            base = cert.lhs_value(pts[j], m)
            if base != cert.rhs_value(pts[j], m):
                return False
            values[(m, j)] = base

    for m in range(cert.order, n_max + 1):
        for j in range(n_max + 1 - m):
            p = pts[j]
            num, den = 0, 1         # the propagated value, unreduced
            for coeff, dn, s in cert.steps:
                c, v = p.derived(coeff, m), values[(m - dn, j + s)]
                cd = c.denominator * v.denominator
                num = num * cd + c.numerator * v.numerator * den
                den *= cd
            lhs = cert.lhs_value(p, m)
            if lhs.numerator * den != num * lhs.denominator:
                return False
            if lhs != cert.rhs_value(p, m):
                return False
            values[(m, j)] = lhs    # the propagated value, reduced
    return True


def sample_certificate_point(cert: CertOrId, rng,
                             size_bound: int = _ident.DEFAULT_SIZE_BOUND,
                             r_range: Optional[Tuple[int, int]] = None
                             ) -> ParamPoint:
    """Random rational point carrying the certificate's symbols (plus q, and
    the x-vector with index r for the multi-index certificate).  r is drawn
    from r_range, by default from the identity's ``sampled_ranges``."""
    cert = _resolve(cert)
    symbols = {s: _ident.random_rational(rng, size_bound) for s in cert.symbols}
    symbols["q"] = _ident.random_q(rng, size_bound)
    indices: Dict[str, int] = {}
    if cert.multi:
        indices["r"] = rng.randint(*(r_range or _ident.sampled_ranges(
            _ident.get_identity(cert.identity))["r"]))
        symbols.update(_ident._sample_x_vector(rng, indices["r"], size_bound,
                                               symbols.values()))
    return ParamPoint(symbols, indices)


def _schlosser_replay(cert: ProofCertificate, point: ParamPoint,
                      n_max: int) -> bool:
    """Replay the C_r induction: at each level, the n=1 lemma re-based at
    a -> a q^{level-1}, the split residuals, the coefficient residuals, and a
    direct two-sided evaluation must all hold."""
    r = point.idx("r")
    if n_max > _ident.MULTISUM_MAX_N:
        raise ValueError("replay cost guard: n <= %d" % _ident.MULTISUM_MAX_N)
    if r > _ident.MULTISUM_MAX_R:
        raise ValueError("replay cost guard: r <= %d" % _ident.MULTISUM_MAX_R)
    a = point.sym("a")
    q = point.sym("q")
    if cert.lhs_value(point, 0) != cert.rhs_value(point, 0):
        return False
    for level in range(1, n_max + 1):
        lemma_point = point.with_symbols(a=a * q**(level - 1))
        if (_ident.schlosser_lemma_lhs(lemma_point)
                != _ident.schlosser_lemma_rhs(lemma_point)):
            return False
        for i in range(1, r + 1):
            for k_i in range(level + 1):
                if schlosser_split_residual(point, level - 1, i, k_i) != 0:
                    return False
        for ss in itertools.product((0, 1), repeat=r):
            if schlosser_coeff_residual(point, level - 1, ss) != 0:
                return False
        if cert.lhs_value(point, level) != cert.rhs_value(point, level):
            return False
    return True
