"""Registry of terminating q-series summation/transformation identities.

Each identity carries exact left/right evaluators over rational parameter
points and is certified by random-rational evaluation: every trial samples a
fresh point, applies the identity's derived-symbol constraints (balancing
conditions such as e = a^2 q^{n+1}/bcd), rejects points on pole guards, and
asserts exact equality of the two sides.  Failure probability per trial is
bounded by total degree over sample-space size and is negligible here.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import (Callable, Dict, Iterable, Iterator, Mapping, Optional,
                    Sequence, Tuple)

from .qcore import (ParamPoint, PoleError, QIdentityError,
                    qbinom, qpoch, qpoch_multi)
from .hyper import TermRow, poch_ratio_terms, term_row

# Cost guard for the r-fold multi-sums (exact bignum arithmetic grows fast).
MULTISUM_MAX_R = 4
# Largest n the multi-sums are verified at by default and from the CLI.
MULTISUM_MAX_N = 3
MULTISUM_MAX_TERMS = 2500

DEFAULT_SIZE_BOUND = 1000
DEFAULT_RETRY_CAP = 100


class RetryExhausted(QIdentityError):
    """Every trial was lost to pole rejections: the guards look mis-specified."""


class CounterexampleFound(QIdentityError):
    """Exact LHS != RHS at a sampled point; carries the point and report."""

    def __init__(self, message, point=None, report=None):
        super().__init__(message)
        self.point = point
        self.report = report


def _div(num: Fraction, den: Fraction, what: str = "denominator") -> Fraction:
    if den == 0:
        raise PoleError("%s vanished" % what)
    return num / den


def _well_poised(a, q, terms: Iterable[Fraction]) -> Iterator[Fraction]:
    """The given terms, the k-th times the well-poised factor
    (1 - a q^{2k})/(1 - a)."""
    if a == 1:
        raise PoleError("very-well-poised anchor must differ from 1")
    for k, t in enumerate(terms):
        yield t * (1 - a * q**(2*k)) / (1 - a)


def _vwp_terms(a1, middles: Sequence, q, n: int, z) -> Iterator[Fraction]:
    """The terms k = 0..n of ``vwp_sum``."""
    a1 = Fraction(a1)
    q = Fraction(q)
    middles = [Fraction(m) for m in middles]
    for m in middles:
        if m == 0:
            raise PoleError("very-well-poised middle parameter must be nonzero")
    nums = [a1] + middles + [q ** (-n)]
    dens = [q] + [a1 * q / m for m in middles] + [a1 * q ** (n + 1)]
    return _well_poised(a1, q, poch_ratio_terms(nums, dens, q, z, n + 1))


def vwp_sum(a1, middles: Sequence, q, n: int, z) -> Fraction:
    """Terminating very-well-poised sum with anchor a1 and the given middle
    parameters: sum_{k=0}^{n} of

        (1 - a1 q^{2k})/(1 - a1)
        * (a1, middles..., q^{-n};q)_k z^k
        / (q, a1 q/middles..., a1 q^{n+1};q)_k.

    The paired square-root parameters of the classical printing enter only
    through the ratio (1 - a1 q^{2k})/(1 - a1), so everything stays rational.
    """
    return sum(_vwp_terms(a1, middles, q, n, z), Fraction(0))


_ROW_MEMOS: Dict[str, Callable] = {}


def _memo_rows(build: Callable[[ParamPoint], "TermRow | CrRow"]
               ) -> Callable[[ParamPoint], "TermRow | CrRow"]:
    """Memoize a summand-row builder on the point's symbol and index values.

    At n <= 6 one certificate point's checks read each builder's rows at 23
    (point, n) keys: the sweeps read levels 1..6 at the point and 0..5 at its
    first shift, the replay levels 0..5-j at its j-th shift.  The memo holds
    32 rows, so each is built once.  A pole raised before the row exists is
    not cached.
    """
    @functools.lru_cache(maxsize=32)
    def cached(symbols, indices):
        return build(ParamPoint(dict(symbols), dict(indices)))

    @functools.wraps(build)
    def row(point: ParamPoint):
        return cached(tuple(sorted(point.symbols.items())),
                      tuple(sorted(point.indices.items())))
    _ROW_MEMOS[build.__name__] = cached
    return row


def clear_row_memo() -> None:
    """Forget every memoized row and reset the memo counts."""
    for cached in _ROW_MEMOS.values():
        cached.cache_clear()


def row_memo_info() -> Dict[str, Tuple[int, int, int, int]]:
    """Per row builder: (hits, misses, maxsize, currsize) since the last clear;
    a miss is one row build."""
    return {name: tuple(cached.cache_info())
            for name, cached in _ROW_MEMOS.items()}


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


# ---------------------------------------------------------------------------
# descriptor and report types
# ---------------------------------------------------------------------------

Evaluator = Callable[[ParamPoint], Fraction]


@dataclass(frozen=True)
class IdentityDescriptor:
    """Metadata and exact evaluators for one registered identity."""

    id: str
    symbols: Tuple[str, ...]
    index_names: Tuple[str, ...]
    lhs: Evaluator
    rhs: Evaluator
    derive: Optional[Callable[[ParamPoint], ParamPoint]] = None
    guards: Optional[Callable[[ParamPoint], Iterable[Tuple[str, Fraction]]]] = None
    sample_indices: Optional[Callable[[random.Random, Mapping], Dict[str, int]]] = None
    xcheck: Optional[Callable[[ParamPoint, random.Random, int],
                              Tuple[Fraction, Fraction]]] = None
    default_ranges: Mapping[str, Tuple[int, int]] = field(default_factory=dict)
    notes: str = ""


@dataclass
class VerificationReport:
    """Outcome of one verify() run."""

    identity: str
    status: str = "PASS"
    attempted: int = 0
    succeeded: int = 0
    rejected: int = 0            # trials lost entirely to pole rejections
    point_rejections: int = 0    # individual resample events
    seed: int = 0
    index_ranges: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    elapsed_s: float = 0.0
    mutated: bool = False
    counterexample: Optional[Dict] = None

    def as_dict(self) -> Dict:
        return {
            "identity": self.identity,
            "status": self.status,
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "rejected": self.rejected,
            "point_rejections": self.point_rejections,
            "seed": self.seed,
            "index_ranges": {k: list(v) for k, v in sorted(self.index_ranges.items())},
            "mutated": self.mutated,
            "counterexample": self.counterexample,
            "elapsed_s": self.elapsed_s,
        }


def serialize_point(point: ParamPoint) -> Dict:
    """Exact fraction strings, never decimals."""
    return {
        "symbols": {k: str(v) for k, v in sorted(point.symbols.items())},
        "indices": dict(sorted(point.indices.items())),
    }


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def derive_trial_seed(seed: int, item_id: str, trial: int) -> int:
    data = ("%d:%s:%d" % (seed, item_id, trial)).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def random_rational(rng: random.Random, bound: int = DEFAULT_SIZE_BOUND) -> Fraction:
    if bound < 1:
        raise ValueError("size bound must be at least 1, got %d" % bound)
    num = 0
    while num == 0:
        num = rng.randint(-bound, bound)
    den = 0
    while den == 0:
        den = rng.randint(-bound, bound)
    return Fraction(num, den)


def random_q(rng: random.Random, bound: int = DEFAULT_SIZE_BOUND) -> Fraction:
    if bound < 2:
        raise ValueError("q needs a size bound of at least 2, got %d" % bound)
    while True:
        v = random_rational(rng, bound)
        if v not in (0, 1, -1):
            return v


def _default_sample_indices(names: Sequence[str], defaults: Mapping[str, Tuple[int, int]]
                            ) -> Callable[[random.Random, Mapping], Dict[str, int]]:
    def sample(rng: random.Random, ranges: Mapping) -> Dict[str, int]:
        out = {}
        for name in names:
            lo, hi = ranges.get(name, defaults.get(name, (0, 6)))
            out[name] = rng.randint(lo, hi)
        return out
    return sample


def _sample_symbols(rng: random.Random, names: Sequence[str], indices: Mapping,
                    bound: int) -> Dict[str, Fraction]:
    """The named symbols, then q, then x_1..x_r when the point has index r."""
    out = {name: random_rational(rng, bound) for name in names}
    out["q"] = random_q(rng, bound)
    if "r" in indices:
        out.update(_sample_x_vector(rng, indices["r"], bound))
    return out


def _sample_x_vector(rng: random.Random, r: int, bound: int,
                     seen: Iterable[Fraction] = ()) -> Dict[str, Fraction]:
    """x_1..x_r, distinct from each other and from the values in seen."""
    xs: Dict[str, Fraction] = {}
    seen = set(seen)
    for i in range(1, r + 1):
        while True:
            v = random_rational(rng, bound)
            if v not in seen:
                seen.add(v)
                xs["x%d" % i] = v
                break
    return xs


def _xs(point: ParamPoint, r: int) -> list:
    return [point.sym("x%d" % i) for i in range(1, r + 1)]


# ---------------------------------------------------------------------------
# identity evaluators
# ---------------------------------------------------------------------------

# A summand row holds the terms k = 0..n of one side at one point; each side
# below that is a single sum is the total of its row, and the certificates
# read their summands F_{n,k} and G_{n,k} from the same rows.

def _total(row_name: str) -> Evaluator:
    """The total of the named row, whose builder is looked up at each call,
    so that a patched builder takes effect."""
    def total(p: ParamPoint) -> Fraction:
        return globals()[row_name](p).total()
    return total


@_memo_rows
def jackson_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, q = (p.sym(s) for s in "abcdeq")
    n = p.idx("n")
    return term_row(_vwp_terms(a, [b, c, d, e], q, n, q), n)


def _jackson_rhs(p: ParamPoint) -> Fraction:
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    n = p.idx("n")
    return _div(qpoch_multi([a*q, a*q/(b*c), a*q/(b*d), a*q/(c*d)], q, n),
                qpoch_multi([a*q/b, a*q/c, a*q/d, a*q/(b*c*d)], q, n))


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
    return _div(qpoch_multi([a*q, a*q/(b*c)], q, n),
                qpoch_multi([a*q/b, a*q/c], q, n))


@_memo_rows
def watson_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, q = (p.sym(s) for s in "abcdeq")
    n = p.idx("n")
    z = a*a*q**(n+2)/(b*c*d*e)
    return term_row(_vwp_terms(a, [b, c, d, e], q, n, z), n)


@_memo_rows
def watson_rhs_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, q = (p.sym(s) for s in "abcdeq")
    n = p.idx("n")
    pre = _div(qpoch_multi([a*q, a*q/(d*e)], q, n),
               qpoch_multi([a*q/d, a*q/e], q, n))
    ser = poch_ratio_terms([a*q/(b*c), d, e, q**(-n)],
                           [q, a*q/b, a*q/c, d*e*q**(-n)/a], q, q, n + 1)
    return term_row((pre * t for t in ser), n)


def _vwp_derive(p: ParamPoint) -> ParamPoint:
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    return p.with_symbols(lam=a*a*q/(b*c*d))


def _vwp_rhs(p: ParamPoint) -> Fraction:
    a, b, c, d, e, q, lam = (p.sym(s) for s in ("a", "b", "c", "d", "e", "q", "lam"))
    n = p.idx("n")
    pre = _div(qpoch_multi([a*q, lam*q/e], q, n),
               qpoch_multi([a*q/e, lam*q], q, n))
    return pre * vwp_sum(lam, [lam*b/a, lam*c/a, lam*d/a, e], q, n, a*q**(n+1)/e)


@_memo_rows
def bailey_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, f, q, lam = (p.sym(s) for s in ("a", "b", "c", "d", "e", "f", "q", "lam"))
    n = p.idx("n")
    g = lam*a*q**(n+1)/(e*f)
    return term_row(_vwp_terms(a, [b, c, d, e, f, g], q, n, q), n)


@_memo_rows
def bailey_rhs_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, f, q, lam = (p.sym(s) for s in ("a", "b", "c", "d", "e", "f", "q", "lam"))
    n = p.idx("n")
    g = lam*a*q**(n+1)/(e*f)
    pre = _div(qpoch_multi([a*q, a*q/(e*f), lam*q/e, lam*q/f], q, n),
               qpoch_multi([a*q/e, a*q/f, lam*q/(e*f), lam*q], q, n))
    ser = _vwp_terms(lam, [lam*b/a, lam*c/a, lam*d/a, e, f, g], q, n, q)
    return term_row((pre * t for t in ser), n)


@_memo_rows
def singh_lhs_row(p: ParamPoint) -> TermRow:
    A, B, c, q = (p.sym(s) for s in ("A", "B", "c", "q"))
    n = p.idx("n")
    return term_row(poch_ratio_terms([A, B, c, q**(-n)],
                                     [q, (A*B*q, q*q), -c*q**(-n)], q, q, n + 1), n)


@_memo_rows
def singh_rhs_row(p: ParamPoint) -> TermRow:
    A, B, c, q = (p.sym(s) for s in ("A", "B", "c", "q"))
    n = p.idx("n")
    q2 = q * q
    # (-c q^{-n};q)_{2k} = (-c q^{-n}, -c q^{1-n};q^2)_k
    return term_row(poch_ratio_terms([A, B, c*c, q**(-2*n)],
                                     [q2, A*B*q, -c*q**(-n), -c*q**(1-n)],
                                     q2, q2, n + 1), n)


def _require_multisum_budget(n: int, r: int) -> None:
    if r > MULTISUM_MAX_R or (n + 1) ** r > MULTISUM_MAX_TERMS:
        raise ValueError("multi-sum cost guard: need r <= %d and (n+1)^r <= %d, "
                         "got n=%d r=%d" % (MULTISUM_MAX_R, MULTISUM_MAX_TERMS, n, r))


class CrRow:
    """Level n of the schlosser_cr summand at one point, read by k-vector:
    the pair-interaction product at shifts k over its value at no shift,
    times one entry of each axis row.  Axis row i holds, for k_i = 0..n, the
    factors that depend on x_i and k_i alone.  The pair denominator is
    evaluated once, and a vanished one raises PoleError on read, as a
    TermRow's pole does.  A plain class: generating a dataclass's methods is
    a measurable share of import time."""

    __slots__ = ("n", "a", "q", "xs", "axes", "pair_den")

    def __init__(self, n: int, a: Fraction, q: Fraction,
                 xs: Tuple[Fraction, ...], axes: Tuple[TermRow, ...]):
        self.n, self.a, self.q, self.xs, self.axes = n, a, q, xs, axes
        self.pair_den = pair_product(a, q, xs, [0] * len(xs))

    def term(self, ks) -> Fraction:
        ks = (ks,) if isinstance(ks, int) else tuple(ks)
        if len(ks) != len(self.xs):
            raise ValueError("need a k-vector of length r=%d" % len(self.xs))
        if any(k < 0 or k > self.n for k in ks):
            return Fraction(0)
        t = _div(pair_product(self.a, self.q, self.xs, ks), self.pair_den,
                 "pair-interaction denominator")
        for row, k in zip(self.axes, ks):
            t *= row.term(k)
        return t

    def total(self) -> Fraction:
        if self.pair_den == 0:
            raise PoleError("pair-interaction denominator vanished")
        tables = [[row.term(k) for k in range(self.n + 1)] for row in self.axes]
        total = Fraction(0)
        for ks in itertools.product(range(self.n + 1), repeat=len(self.xs)):
            t = pair_product(self.a, self.q, self.xs, ks)
            for table, k in zip(tables, ks):
                t *= table[k]
            total += t
        return total / self.pair_den


@_memo_rows
def schlosser_row(p: ParamPoint) -> CrRow:
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    n, r = p.idx("n"), p.idx("r")
    xs = tuple(_xs(p, r))
    axes = []
    for xi in xs:
        nums = [a*xi*xi, b*xi, c*xi, d*xi, a*a*xi*q**(n-r+2)/(b*c*d), q**(-n)]
        dens = [q, a*xi*q/b, a*xi*q/c, a*xi*q/d,
                b*c*d*xi*q**(r-n-1)/a, a*xi*xi*q**(n+1)]
        axes.append(term_row(_well_poised(
            a*xi*xi, q, poch_ratio_terms(nums, dens, q, q, n + 1)), n))
    return CrRow(n, a, q, xs, tuple(axes))


def schlosser_lhs(p: ParamPoint) -> Fraction:
    _require_multisum_budget(p.idx("n"), p.idx("r"))
    return schlosser_row(p).total()


def schlosser_rhs(p: ParamPoint) -> Fraction:
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    n, r = p.idx("n"), p.idx("r")
    xs = _xs(p, r)
    t = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            t *= _div(1 - a*xs[i]*xs[j]*q**n, 1 - a*xs[i]*xs[j])
    for i in range(1, r + 1):
        xi = xs[i - 1]
        t *= _div(qpoch_multi([a*xi*xi*q, a*q**(2-i)/(b*c),
                               a*q**(2-i)/(b*d), a*q**(2-i)/(c*d)], q, n),
                  qpoch_multi([a*q**(2-r)/(b*c*d*xi), a*xi*q/b,
                               a*xi*q/c, a*xi*q/d], q, n))
    return t


def schlosser_lemma_lhs(p: ParamPoint) -> Fraction:
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    r = p.idx("r")
    xs = _xs(p, r)
    pair_den = pair_product(a*q, q, xs, [0] * r)
    total = Fraction(0)
    for ss in itertools.product((0, 1), repeat=r):
        t = _div(pair_product(a, q, xs, ss), pair_den, "lemma pair denominator")
        for i in range(r):
            xi, si = xs[i], ss[i]
            t *= Fraction(-1) ** si
            t *= qpoch_multi([b*xi, c*xi, d*xi, a*a*xi*q**(3-r)/(b*c*d)], q, si)
            t = _div(t, qpoch_multi([a*xi*q/b, a*xi*q/c, a*xi*q/d,
                                     b*c*d*xi*q**(r-2)/a], q, si))
        total += t
    return total


def schlosser_lemma_rhs(p: ParamPoint) -> Fraction:
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    r = p.idx("r")
    xs = _xs(p, r)
    t = Fraction(1)
    for i in range(1, r + 1):
        xi = xs[i - 1]
        t *= _div(qpoch_multi([a*xi*xi*q, a*q**(2-i)/(b*c),
                               a*q**(2-i)/(b*d), a*q**(2-i)/(c*d)], q, 1),
                  qpoch_multi([a*q**(2-r)/(b*c*d*xi), a*xi*q/b,
                               a*xi*q/c, a*xi*q/d], q, 1))
    return t


def _sch_special_lhs(p: ParamPoint) -> Fraction:
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    n = p.idx("n")
    total = Fraction(0)
    for k in range(n + 1):
        t = Fraction(-1)**k * q**(k*(k+1)//2 - k*n) * qbinom(n, k, q)
        t *= _div(1 - a*q**(2*k), qpoch(a*q**k, q, n + 1))
        t *= qpoch_multi([a*q/b, a*q/c, a*q/d, b*c*d*q**(n-2)/a], q, k)
        t = _div(t, qpoch_multi([b, c, d, a*a*q**(3-n)/(b*c*d)], q, k))
        total += t
    return total


def _sch_special_rhs(p: ParamPoint) -> Fraction:
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    n = p.idx("n")
    t = (b*c*d*q**(n-2)/a) ** n
    t *= qpoch_multi([a*q**(2-n)/(b*c), a*q**(2-n)/(b*d), a*q**(2-n)/(c*d)], q, n)
    return _div(t, qpoch_multi([b, c, d, a*a*q**(3-n)/(b*c*d)], q, n))


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


def _cr1_rhs(p: ParamPoint) -> Fraction:
    q = p.sym("q")
    n, r = p.idx("n"), p.idx("r")
    return _div((n + 1) * qpoch(q**(n+1), q**(n+1), r - 1),
                q**(n * (r*(r-1)//2)) * qpoch(q, q, r - 1))


def _cr2_rhs(p: ParamPoint) -> Fraction:
    q = p.sym("q")
    n, r = p.idx("n"), p.idx("r")
    if n % 2 == 1:
        return Fraction(0)
    return _div(qpoch(-q**(n+1), q**(n+1), r - 1),
                q**(n * (r*(r-1)//2)) * qpoch(-q, q, r - 1))


def _cr_xcheck(signed: bool):
    def check(point: ParamPoint, rng: random.Random,
              size_bound: int) -> Tuple[Fraction, Fraction]:
        r = point.idx("r")
        other = point.with_symbols(**_sample_x_vector(rng, r, size_bound))
        return _cr_lhs(point, signed), _cr_lhs(other, signed)
    return check


@_memo_rows
def lebesgue_row(p: ParamPoint) -> TermRow:
    """F_{n,k} = [n, k]_q q^{k(k+1)/2} / (a q^k;q)_{n+1}, which is
    (q^{-n}, a;q)_k (-q^{n+1})^k / (q, a q^{n+1};q)_k / (a;q)_{n+1}."""
    a, q = p.sym("a"), p.sym("q")
    n = p.idx("n")
    pre = _div(Fraction(1), qpoch(a, q, n + 1))
    ser = poch_ratio_terms([q**(-n), a], [q, a*q**(n+1)], q, -q**(n+1), n + 1)
    return term_row((pre * t for t in ser), n)


def _lebesgue_rhs(p: ParamPoint) -> Fraction:
    a, q = p.sym("a"), p.sym("q")
    n = p.idx("n")
    return _div(qpoch(-q, q, n), qpoch(a, q*q, n + 1))


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


def _jacobi_finite_rhs(p: ParamPoint) -> Fraction:
    return qpoch(-p.sym("q"), p.sym("q"), p.idx("m") + p.idx("n"))


def _jacobi_pref_lhs(p: ParamPoint) -> Fraction:
    z, q = p.sym("z"), p.sym("q")
    n, m, k = p.idx("n"), p.idx("m"), p.idx("k")
    t = _div(qpoch(-z*q**(-2*m), q*q, m + n + 1),
             qpoch(-z*q**(k-m), q, m + n + 1))
    return t * q**((m+k+1)*(m+k)//2)


def _jacobi_pref_rhs(p: ParamPoint) -> Fraction:
    return _jacobi_summand(p.sym("z"), p.sym("q"), p.idx("n"), p.idx("m"),
                           p.idx("k"))


@_memo_rows
def quintuple_row(p: ParamPoint) -> TermRow:
    """F_{n,k} = (1 - z^2 q^{2k+1}) [n, k]_q (zq;q)_n z^k q^{k^2}
    / (z^2 q^{k+1};q)_{n+1}; with a = z^2 q that is (zq;q)_n / (aq;q)_n times
    the well-poised factor of a times
    (a, q^{-n};q)_k (-z q^{n+1})^k q^{k(k-1)/2} / (q, a q^{n+1};q)_k."""
    z, q = p.sym("z"), p.sym("q")
    n = p.idx("n")
    a = z*z*q
    pre = _div(qpoch(z*q, q, n), qpoch(a*q, q, n))
    ser = _well_poised(a, q, poch_ratio_terms(
        [a, q**(-n)], [q, a*q**(n+1)], q, -z*q**(n+1), n + 1))
    return term_row((pre * t * q**(k*(k-1)//2) for k, t in enumerate(ser)), n)


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


def _quintuple_ccg_lhs(p: ParamPoint) -> Fraction:
    z, q = p.sym("z"), p.sym("q")
    n = p.idx("n")
    total = Fraction(0)
    for k in range(n + 1):
        t = (1 + z*q**k) * qbinom(n, k, q) * qpoch(z, q, n + 1)
        t = _div(t, qpoch(z*z*q**k, q, n + 1))
        total += t * z**k * q**(k*k)
    return total


def _one(p: ParamPoint) -> Fraction:
    return Fraction(1)


def _andrews_jain_lhs(p: ParamPoint) -> Fraction:
    a, b, q = (p.sym(s) for s in "abq")
    n = p.idx("n")
    q2 = q*q
    total = Fraction(0)
    for k in range(n + 1):
        t = qpoch_multi([a, b], q, k) * qpoch(q**(-2*n), q2, k) * q**k
        den = qpoch(q, q, k) * qpoch(a*b*q, q2, k) * qpoch(q**(-2*n), q, k)
        total += _div(t, den)
    return total


def _andrews_jain_rhs(p: ParamPoint) -> Fraction:
    a, b, q = (p.sym(s) for s in "abq")
    n = p.idx("n")
    q2 = q*q
    return _div(qpoch_multi([a*q, b*q], q2, n),
                qpoch_multi([q, a*b*q], q2, n))


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def _anchor_guard(p: ParamPoint):
    return [("1 - a", 1 - p.sym("a"))]


def _distinct_x_guard(p: ParamPoint):
    r = p.idx("r")
    xs = _xs(p, r)
    out = []
    for i in range(r):
        for j in range(i + 1, r):
            out.append(("x%d - x%d" % (i + 1, j + 1), xs[i] - xs[j]))
    return out


def _pref_sample_indices(rng: random.Random, ranges: Mapping) -> Dict[str, int]:
    n_lo, n_hi = ranges.get("n", (0, 6))
    m_lo, m_hi = ranges.get("m", (0, 4))
    n = rng.randint(n_lo, n_hi)
    m = rng.randint(m_lo, m_hi)
    return {"n": n, "m": m, "k": rng.randint(-m, n)}


def _build_registry() -> Dict[str, IdentityDescriptor]:
    reg: Dict[str, IdentityDescriptor] = {}

    def add(desc: IdentityDescriptor) -> None:
        if desc.id in reg:
            raise ValueError("duplicate identity id %r" % desc.id)
        reg[desc.id] = desc

    add(IdentityDescriptor(
        id="jackson_8phi7",
        symbols=("a", "b", "c", "d"),
        index_names=("n",),
        lhs=_total("jackson_row"), rhs=_jackson_rhs, derive=_jackson_derive,
        guards=_anchor_guard,
        notes="balanced very-well-poised summation; e := a^2 q^{n+1}/(bcd)"))

    add(IdentityDescriptor(
        id="jackson_6phi5",
        symbols=("a", "b", "c"),
        index_names=("n",),
        lhs=_6phi5_lhs, rhs=_6phi5_rhs,
        guards=_anchor_guard))

    add(IdentityDescriptor(
        id="watson_transform",
        symbols=("a", "b", "c", "d", "e"),
        index_names=("n",),
        lhs=_total("watson_row"), rhs=_total("watson_rhs_row"),
        guards=_anchor_guard))

    add(IdentityDescriptor(
        id="vwp_transform",
        symbols=("a", "b", "c", "d", "e"),
        index_names=("n",),
        lhs=_total("watson_row"), rhs=_vwp_rhs, derive=_vwp_derive,
        guards=_anchor_guard,
        notes="lam := a^2 q/(bcd); both sides share the Watson-shaped left side"))

    add(IdentityDescriptor(
        id="bailey_10phi9",
        symbols=("a", "b", "c", "d", "e", "f"),
        index_names=("n",),
        lhs=_total("bailey_row"), rhs=_total("bailey_rhs_row"), derive=_vwp_derive,
        guards=_anchor_guard))

    add(IdentityDescriptor(
        id="singh_quadratic",
        symbols=("A", "B", "c"),
        index_names=("n",),
        lhs=_total("singh_lhs_row"), rhs=_total("singh_rhs_row"),
        notes="A = a^2, B = b^2; terminated by d = q^{-n} (the c = q^{-n} "
              "variant swaps the roles of c and d and evaluates identically)"))

    add(IdentityDescriptor(
        id="schlosser_cr",
        symbols=("a", "b", "c", "d"),
        index_names=("n", "r"),
        lhs=schlosser_lhs, rhs=schlosser_rhs,
        guards=_distinct_x_guard,
        default_ranges={"n": (0, MULTISUM_MAX_N), "r": (1, 3)}))

    add(IdentityDescriptor(
        id="schlosser_lemma_n1",
        symbols=("a", "b", "c", "d"),
        index_names=("r",),
        lhs=schlosser_lemma_lhs, rhs=schlosser_lemma_rhs,
        guards=_distinct_x_guard,
        default_ranges={"r": (1, 3)}))

    add(IdentityDescriptor(
        id="sch_8phi7_special",
        symbols=("a", "b", "c", "d"),
        index_names=("n",),
        lhs=_sch_special_lhs, rhs=_sch_special_rhs))

    add(IdentityDescriptor(
        id="cr_prop_1",
        symbols=("a",),
        index_names=("n", "r"),
        lhs=lambda p: _cr_lhs(p, signed=False), rhs=_cr1_rhs,
        guards=_distinct_x_guard,
        xcheck=_cr_xcheck(signed=False),
        default_ranges={"n": (0, MULTISUM_MAX_N), "r": (1, 3)}))

    add(IdentityDescriptor(
        id="cr_prop_2",
        symbols=("a",),
        index_names=("n", "r"),
        lhs=lambda p: _cr_lhs(p, signed=True), rhs=_cr2_rhs,
        guards=_distinct_x_guard,
        xcheck=_cr_xcheck(signed=True),
        default_ranges={"n": (0, MULTISUM_MAX_N), "r": (1, 3)},
        notes="per-index weight (-1)^{s_i} q^{-(r-1) s_i}; right side vanishes "
              "for odd n"))

    add(IdentityDescriptor(
        id="lebesgue_finite",
        symbols=("a",),
        index_names=("n",),
        lhs=_total("lebesgue_row"), rhs=_lebesgue_rhs))

    add(IdentityDescriptor(
        id="jacobi_finite",
        symbols=("z",),
        index_names=("n", "m"),
        lhs=_jacobi_finite_lhs, rhs=_jacobi_finite_rhs,
        default_ranges={"n": (0, 6), "m": (0, 4)}))

    add(IdentityDescriptor(
        id="jacobi_prefactor_relation",
        symbols=("z",),
        index_names=("n", "m", "k"),
        lhs=_jacobi_pref_lhs, rhs=_jacobi_pref_rhs,
        guards=lambda p: [("1 + z", 1 + p.sym("z"))],
        sample_indices=_pref_sample_indices,
        default_ranges={"n": (0, 6), "m": (0, 4)},
        notes="termwise change-of-variables relation; k ranges over [-m, n]; "
              "z = -1 is guarded, since both sides vanish there for k < -n"))

    add(IdentityDescriptor(
        id="quintuple_finite",
        symbols=("z",),
        index_names=("n",),
        lhs=_total("quintuple_row"), rhs=_one))

    add(IdentityDescriptor(
        id="quintuple_finite_mn",
        symbols=("z",),
        index_names=("n", "m"),
        lhs=_quintuple_mn_lhs, rhs=_one,
        guards=lambda p: [("1 - z^2", 1 - p.sym("z")**2)],
        default_ranges={"n": (0, 6), "m": (0, 4)}))

    add(IdentityDescriptor(
        id="quintuple_ccg",
        symbols=("z",),
        index_names=("n",),
        lhs=_quintuple_ccg_lhs, rhs=_one))

    add(IdentityDescriptor(
        id="andrews_jain",
        symbols=("a", "b"),
        index_names=("n",),
        lhs=_andrews_jain_lhs, rhs=_andrews_jain_rhs,
        notes="the b = 0 specialization is addressable as lebesgue_finite_2"))

    return reg


_REGISTRY = _build_registry()

_LEBESGUE_2 = replace(
    _REGISTRY["andrews_jain"],
    id="lebesgue_finite_2",
    symbols=("a",),
    derive=lambda p: p.with_symbols(b=0),
    notes="b := 0 specialization of andrews_jain")


def list_identities() -> Tuple[IdentityDescriptor, ...]:
    """The 18 registered descriptors, in registration order."""
    return tuple(_REGISTRY.values())


def identity_ids() -> Tuple[str, ...]:
    return tuple(_REGISTRY.keys())


def get_identity(identity_id: str) -> IdentityDescriptor:
    """Resolve an identity id; lebesgue_finite_2 resolves to the b := 0
    specialization of andrews_jain."""
    if identity_id == "lebesgue_finite_2":
        return _LEBESGUE_2
    try:
        return _REGISTRY[identity_id]
    except KeyError:
        raise KeyError("unknown identity %r (known: %s)"
                       % (identity_id, ", ".join(_REGISTRY))) from None


def eval_sides(identity_id: str, point: ParamPoint) -> Tuple[Fraction, Fraction]:
    """Exact (LHS, RHS) after applying derived symbols and pole guards."""
    desc = get_identity(identity_id)
    if desc.derive is not None:
        point = desc.derive(point)
    if desc.guards is not None:
        for label, value in desc.guards(point):
            if value == 0:
                raise PoleError("pole guard %s = 0 for %s" % (label, desc.id))
    return desc.lhs(point), desc.rhs(point)


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------

def sample_point(desc: IdentityDescriptor, rng: random.Random,
                 index_ranges: Mapping, size_bound: int = DEFAULT_SIZE_BOUND
                 ) -> ParamPoint:
    """One random rational point for the descriptor (before derive/guards)."""
    idx_sampler = desc.sample_indices or _default_sample_indices(
        desc.index_names, desc.default_ranges)
    indices = idx_sampler(rng, index_ranges)
    return ParamPoint(_sample_symbols(rng, desc.symbols, indices, size_bound),
                      indices)


def _run_trial(desc: IdentityDescriptor, seed: int, trial: int,
               index_ranges: Mapping, size_bound: int, retry_cap: int,
               mutate_rhs: bool):
    rng = random.Random(derive_trial_seed(seed, desc.id, trial))
    rejections = 0
    for _ in range(retry_cap):
        point = sample_point(desc, rng, index_ranges, size_bound)
        try:
            if desc.derive is not None:
                point = desc.derive(point)
            if desc.guards is not None:
                bad = [lab for lab, v in desc.guards(point) if v == 0]
                if bad:
                    rejections += 1
                    continue
            lhs = desc.lhs(point)
            rhs = desc.rhs(point)
        except PoleError:
            rejections += 1
            continue
        if mutate_rhs:
            rhs = rhs * point.sym("q")
        if lhs != rhs:
            return ("fail", point, rejections)
        if desc.xcheck is not None:
            try:
                first, second = desc.xcheck(point, rng, size_bound)
            except PoleError:
                pass
            else:
                if first != second:
                    return ("fail", point, rejections)
        return ("ok", None, rejections)
    return ("exhausted", None, rejections)


def verify(identity_id: str, trials: int, seed: int,
           index_ranges: Optional[Mapping[str, Tuple[int, int]]] = None, *,
           mutate_rhs: bool = False, size_bound: int = DEFAULT_SIZE_BOUND,
           retry_cap: int = DEFAULT_RETRY_CAP) -> VerificationReport:
    """Random-rational verification of one identity.

    Each trial derives its own RNG from (seed, identity id, trial index), so
    reports are reproducible.  Raises CounterexampleFound on the first exact
    mismatch (the report rides on the exception) and RetryExhausted if every
    trial drowned in pole rejections.
    With ``mutate_rhs`` the right side is multiplied by q, which a healthy
    harness must catch.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    desc = get_identity(identity_id)
    ranges = dict(desc.default_ranges)
    if index_ranges:
        ranges.update({k: tuple(v) for k, v in index_ranges.items()})
    report = VerificationReport(identity=desc.id, seed=seed,
                                index_ranges=ranges, mutated=mutate_rhs)
    start = time.monotonic()
    for trial in range(trials):
        status, point, rejections = _run_trial(
            desc, seed, trial, ranges, size_bound, retry_cap, mutate_rhs)
        report.attempted += 1
        report.point_rejections += rejections
        if status == "ok":
            report.succeeded += 1
        elif status == "exhausted":
            report.rejected += 1
        else:
            report.status = "FAIL"
            report.counterexample = serialize_point(point)
            report.elapsed_s = time.monotonic() - start
            raise CounterexampleFound(
                "identity %s failed at %s" % (desc.id, serialize_point(point)),
                point=point, report=report)
    report.elapsed_s = time.monotonic() - start
    if report.succeeded == 0 and report.rejected == report.attempted:
        report.status = "FAIL"
        raise RetryExhausted(
            "identity %s: all %d trials exhausted %d pole retries each"
            % (desc.id, trials, retry_cap))
    return report
