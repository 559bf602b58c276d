"""Registry of terminating q-series summation/transformation identities.

Each identity carries exact left/right evaluators over rational parameter
points and is certified by random-rational evaluation: every trial samples a
fresh point, applies the identity's derived-symbol constraints (balancing
conditions such as e = a^2 q^{n+1}/bcd), rejects points on pole guards, and
asserts exact equality of the two sides.  The chance that a trial misses
a false identity is bounded by total degree over sample-space size; no code
computes that bound, and at --max-abs 2 or 3 it is not small.
``run_trials`` is the trial loop of every item kind, certificates and series
included: it seeds each trial, redraws a point on a pole, counts and stops.
``sampled_ranges`` is the one rule for the range of each index n, m and r,
for ``verify`` and the CLI alike; ``sample_point`` draws k in [-m, n].
Every kernel parameter, derived symbol and closed-form factor is built from
the point's ``Ratio`` int pairs.  Each side is one unreduced ``Ratio`` (or a
``Fraction`` from ``qcore``), and the trials compare the sides by
cross-multiplied ints, so no side is reduced to be judged.  A ``Fraction`` is
built where a value becomes a symbol (``_div``, for derived symbols and the
certificates' step coefficients) or leaves the library (``eval_sides``).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import random
import time
from fractions import Fraction
from typing import (Callable, Dict, Iterable, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from .qcore import ParamPoint, PoleError, QIdentityError, Ratio, qpoch
from .hyper import (Pairs, TermRow, _ints, linear, pair_row, pair_sum,
                    poch_ratio, poch_ratio_pairs, poch_ratio_sum, wp_pairs)

# Cost guard for the r-fold multi-sums (exact bignum arithmetic grows fast).
MULTISUM_MAX_R = 4
# Largest n the multi-sums are verified at (see sampled_ranges).
MULTISUM_MAX_N = 3
MULTISUM_MAX_TERMS = 2500

DEFAULT_SIZE_BOUND = 1000
RETRY_CAP = 100


class CounterexampleFound(QIdentityError):
    """Exact LHS != RHS at a sampled point; carries the point and report."""

    def __init__(self, message, point=None, report=None):
        super().__init__(message)
        self.point = point
        self.report = report


class RetryExhausted(QIdentityError):
    """Every trial was lost to pole rejections: the guards look mis-specified.
    Carries the report and ``run_trials``' failure."""

    def __init__(self, message, report=None, failure=None):
        super().__init__(message)
        self.report = report
        self.failure = failure


def _quot(num, den, what: str = "denominator") -> Ratio:
    """num/den as one unreduced Ratio; PoleError where den is 0."""
    if den.numerator == 0:
        raise PoleError("%s vanished" % what)
    return Ratio(num.numerator * den.denominator,
                 num.denominator * den.numerator)


def _div(num, den, what: str = "denominator") -> Fraction:
    """num/den as one Fraction; PoleError where den is 0."""
    t = _quot(num, den, what)
    return Fraction(t.numerator, t.denominator)


def _well_poised(a, q, pairs: Iterable[Tuple[int, int]]) -> Pairs:
    """The given int pairs, the k-th times the well-poised factor
    (1 - a q^{2k})/(1 - a); if each den divides the next, so does each den
    yielded."""
    an, ad = _ints(a)
    if an == ad:
        raise PoleError("very-well-poised anchor must differ from 1")
    for num, den in linear(pairs, a, q*q):
        yield num * ad, den * (ad - an)


def _vwp_pairs(a1, middles: Sequence, q, n: int, z) -> Pairs:
    """The terms k = 0..n of the terminating very-well-poised sum with anchor
    a1 and the given middle parameters, as int pairs: the k-th is

        (1 - a1 q^{2k})/(1 - a1)
        * (a1, middles..., q^{-n};q)_k z^k
        / (q, a1 q/middles..., a1 q^{n+1};q)_k.

    The paired square-root parameters of the classical printing enter only
    through the ratio (1 - a1 q^{2k})/(1 - a1), so everything stays rational.
    """
    return _well_poised(a1, q, wp_pairs([a1, *middles, Ratio(*_ints(q))**-n],
                                        q, z, n + 1))


def _pair_factor(a: Fraction, yi: int, ei: int, yj: int, ej: int) -> int:
    """(y_i - y_j)(1 - a y_i y_j) at y_i = yi/ei, y_j = yj/ej, times
    a's denominator (ei ej)^2."""
    return (yi*ej - yj*ei) * (a.denominator*ei*ej - a.numerator*yi*yj)


def _pair_table(a: Fraction, q: Fraction, xs: Sequence[Fraction], n: int):
    """The pair-interaction product of the C_r sums, prod_{i<j}
    (x_i q^{k_i} - x_j q^{k_j})(1 - a x_i x_j q^{k_i+k_j}), at every k-vector
    ks in [0, n]^r, as a list of (ks, numerator) in ``itertools.product``
    order, and the one denominator they share.

    Each x_i q^s is an int over x_i's denominator times q's to the n, and
    each pair factor is built once per pair of shifts; per k-vector only int
    numerators are multiplied.
    """
    qn, qd = q.numerator, q.denominator
    es = [x.denominator * qd**n for x in xs]
    ys = [[x.numerator * qn**s * qd**(n - s) for s in range(n + 1)]
          for x in xs]
    r = len(xs)
    pairs = []
    den = 1
    for i in range(r):
        for j in range(i + 1, r):
            pairs.append((i, j, [[_pair_factor(a, yi, es[i], yj, es[j])
                                  for yj in ys[j]] for yi in ys[i]]))
            den *= a.denominator * (es[i]*es[j])**2
    out = []
    for ks in itertools.product(range(n + 1), repeat=r):
        t = 1
        for i, j, table in pairs:
            t *= table[ks[i]][ks[j]]
        out.append((ks, t))
    return out, den


# ---------------------------------------------------------------------------
# descriptor and report types
# ---------------------------------------------------------------------------

# a side's value: an unreduced Ratio, or a Fraction from qcore
Value = Union[Ratio, Fraction]
Evaluator = Callable[[ParamPoint], Value]


class IdentityDescriptor(NamedTuple):
    """Metadata and exact evaluators for one registered identity."""

    id: str
    symbols: Tuple[str, ...]
    index_names: Tuple[str, ...]
    lhs: Evaluator
    rhs: Evaluator
    derive: Optional[Callable[[ParamPoint], ParamPoint]] = None
    guards: Optional[Callable[[ParamPoint], Iterable[Tuple[str, Fraction]]]] = None
    xcheck: Optional[Callable[[ParamPoint, random.Random, int],
                              Value]] = None

    @property
    def multisum(self) -> bool:
        """An r-fold sum over n; the n = 1 lemma, which has no n, is not."""
        return {"n", "r"} <= set(self.index_names)


class VerificationReport:
    """Outcome of one verify() run; ``verify`` sets the outcome fields."""

    status = "PASS"              # FAIL, or ERROR: every trial rejected
    attempted = 0
    succeeded = 0                # trials whose point passed every check
    rejected = 0                 # trials that used up their pole retries
    point_rejections = 0         # points redrawn, cross-check poles too
    elapsed_s = 0.0
    counterexample: Optional[Dict] = None

    def __init__(self, identity: str, seed: int = 0,
                 index_ranges: Optional[Dict[str, Tuple[int, int]]] = None,
                 mutated: bool = False):
        self.identity, self.seed, self.mutated = identity, seed, mutated
        self.index_ranges = index_ranges or {}

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
    # randint(-bound, bound), with its two helper frames inlined: the same
    # draws from the same generator state
    span = 2 * bound + 1
    num = 0
    while num == 0:
        num = rng._randbelow(span) - bound
    den = 0
    while den == 0:
        den = rng._randbelow(span) - bound
    return Fraction(num, den)


def random_q(rng: random.Random, bound: int = DEFAULT_SIZE_BOUND) -> Fraction:
    if bound < 2:
        raise ValueError("q needs a size bound of at least 2, got %d" % bound)
    while True:
        v = random_rational(rng, bound)
        if v not in (0, 1, -1):
            return v


def sampled_ranges(desc: IdentityDescriptor, n_max: int = 6, m_max: int = 4,
                   r_max: int = 3) -> Dict[str, Tuple[int, int]]:
    """The range each of the identity's indices n, m and r is drawn from:
    n in [0, n_max], at most MULTISUM_MAX_N for the multi-sums, m in
    [0, m_max] and r in [1, r_max]."""
    if desc.multisum:
        n_max = min(n_max, MULTISUM_MAX_N)
    ranges = {"n": (0, n_max), "m": (0, m_max), "r": (1, r_max)}
    return {name: ranges[name] for name in desc.index_names if name in ranges}


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
    """x_1..x_r, distinct from each other and from the values in seen.

    Raises ValueError, before drawing, when fewer than r values of size at
    most bound lie outside seen."""
    xs: Dict[str, Fraction] = {}
    seen = set(seen)
    # random_rational returns at least the 2 bound integers +-1..+-bound
    if r + len(seen) > 2 * bound:
        admissible = _rational_count(bound) - sum(
            1 for v in map(Fraction, seen)
            if v and abs(v.numerator) <= bound and v.denominator <= bound)
        if admissible < r:
            raise ValueError(
                "cannot draw r=%d distinct x values of size at most %d "
                "(admissible values: %d)" % (r, bound, admissible))
    for i in range(1, r + 1):
        while True:
            v = random_rational(rng, bound)
            if v not in seen:
                seen.add(v)
                xs["x%d" % i] = v
                break
    return xs


def _rational_count(bound: int) -> int:
    """How many distinct values random_rational returns at this bound."""
    return 2 * sum(1 for p in range(1, bound + 1) for d in range(1, bound + 1)
                   if math.gcd(p, d) == 1)


def _xs(point: ParamPoint, r: int) -> list:
    return [point.sym("x%d" % i) for i in range(1, r + 1)]


# ---------------------------------------------------------------------------
# identity evaluators
# ---------------------------------------------------------------------------

# A summand row holds the terms k = 0..n of one side at one point; each side
# below that is a single sum is the total of its row, and the certificates
# read their summands F_{n,k} and G_{n,k} from the same rows.

def read_row(p: ParamPoint, row_name: str) -> "TermRow | CrRow":
    """The named row at the point, built once and kept on the point.  The
    builder is looked up at each read, so that a patched builder takes
    effect; a pole raised before the row exists keeps nothing."""
    return p.derived(globals()[row_name])


def _total(row_name: str) -> Evaluator:
    """The total of the named row."""
    def total(p: ParamPoint) -> Ratio:
        return read_row(p, row_name).total()
    return total


def jackson_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, q = p.ratios("abcdeq")
    n = p.idx("n")
    return pair_row(_vwp_pairs(a, [b, c, d, e], q, n, q), n)


def _jackson_rhs(p: ParamPoint) -> Value:
    a, b, c, d, q = p.ratios("abcdq")
    n = p.idx("n")
    return poch_ratio([a*q, a*q/(b*c), a*q/(b*d), a*q/(c*d)],
                      [a*q/b, a*q/c, a*q/d, a*q/(b*c*d)], q, n)


def _jackson_derive(p: ParamPoint) -> ParamPoint:
    a, b, c, d, q = p.ratios("abcdq")
    return p.with_symbols(e=_div(a*a*q**(p.idx("n")+1), b*c*d))


def _6phi5_lhs(p: ParamPoint) -> Value:
    a, b, c, q = p.ratios("abcq")
    n = p.idx("n")
    return pair_sum(_vwp_pairs(a, [b, c], q, n, a*q**(n+1)/(b*c)))


def _6phi5_rhs(p: ParamPoint) -> Value:
    a, b, c, q = p.ratios("abcq")
    n = p.idx("n")
    return poch_ratio([a*q, a*q/(b*c)], [a*q/b, a*q/c], q, n)


def watson_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, q = p.ratios("abcdeq")
    n = p.idx("n")
    z = a*a*q**(n+2)/(b*c*d*e)
    return pair_row(_vwp_pairs(a, [b, c, d, e], q, n, z), n)


def watson_rhs_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, q = p.ratios("abcdeq")
    n = p.idx("n")
    pre = poch_ratio([a*q, a*q/(d*e)], [a*q/d, a*q/e], q, n)
    ser = poch_ratio_pairs([a*q/(b*c), d, e, q**(-n)],
                           [q, a*q/b, a*q/c, d*e*q**(-n)/a], q, q, n + 1)
    return pair_row(ser, n, pre)


def _vwp_derive(p: ParamPoint) -> ParamPoint:
    a, b, c, d, q = p.ratios("abcdq")
    return p.with_symbols(lam=_div(a*a*q, b*c*d))


def _vwp_rhs(p: ParamPoint) -> Value:
    a, b, c, d, e, q, lam = p.ratios(("a", "b", "c", "d", "e", "q", "lam"))
    n = p.idx("n")
    pre = poch_ratio([a*q, lam*q/e], [a*q/e, lam*q], q, n)
    return pair_sum(_vwp_pairs(lam, [lam*b/a, lam*c/a, lam*d/a, e], q, n,
                               a*q**(n+1)/e), pre)


def bailey_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, f, q, lam = p.ratios(("a", "b", "c", "d", "e", "f", "q", "lam"))
    n = p.idx("n")
    g = lam*a*q**(n+1)/(e*f)
    return pair_row(_vwp_pairs(a, [b, c, d, e, f, g], q, n, q), n)


def bailey_rhs_row(p: ParamPoint) -> TermRow:
    a, b, c, d, e, f, q, lam = p.ratios(("a", "b", "c", "d", "e", "f", "q", "lam"))
    n = p.idx("n")
    g = lam*a*q**(n+1)/(e*f)
    pre = poch_ratio([a*q, a*q/(e*f), lam*q/e, lam*q/f],
                     [a*q/e, a*q/f, lam*q/(e*f), lam*q], q, n)
    ser = _vwp_pairs(lam, [lam*b/a, lam*c/a, lam*d/a, e, f, g], q, n, q)
    return pair_row(ser, n, pre)


def singh_lhs_row(p: ParamPoint) -> TermRow:
    A, B, c, q = p.ratios(("A", "B", "c", "q"))
    n = p.idx("n")
    return pair_row(poch_ratio_pairs([A, B, c, q**(-n)],
                                     [q, (A*B*q, q*q), -c*q**(-n)], q, q, n + 1), n)


def singh_rhs_row(p: ParamPoint) -> TermRow:
    A, B, c, q = p.ratios(("A", "B", "c", "q"))
    n = p.idx("n")
    q2 = q * q
    # (-c q^{-n};q)_{2k} = (-c q^{-n}, -c q^{1-n};q^2)_k
    return pair_row(poch_ratio_pairs([A, B, c*c, q**(-2*n)],
                                     [q2, A*B*q, -c*q**(-n), -c*q**(1-n)],
                                     q2, q2, n + 1), n)


def _require_multisum_budget(n: int, r: int) -> None:
    if r > MULTISUM_MAX_R or (n + 1) ** r > MULTISUM_MAX_TERMS:
        raise ValueError("multi-sum cost guard: need r <= %d and (n+1)^r <= %d, "
                         "got n=%d r=%d" % (MULTISUM_MAX_R, MULTISUM_MAX_TERMS, n, r))


class CrRow:
    """Level n of an r-fold sum over k in [0, n]^r at one point, read by
    k-vector: the pair-interaction product at parameter a and shifts k over
    its value at norm_a (default a) and no shift, times one entry of each
    axis row, whose entry k_i holds the factors of x_i and k_i alone.  It is
    every r-fold sum: the C_r sum (``schlosser_row``), the C_r propositions
    (norm_a = a q^n, each axis the weight row), the n = 1 lemma (norm_a =
    a q) and, with no axes, the certificate's pair ratios.  ``scale`` brings
    the pair table's int numerators over the normalizer; a vanished one
    raises PoleError on read, as a TermRow's pole does.  ``pair`` reads an
    entry as an unreduced int pair, ``term`` reduces it, and ``total`` is
    one unreduced ``Ratio``.  A plain class,
    like every class of the package (``qcore._Frozen`` says why)."""

    __slots__ = ("n", "xs", "axes", "pairs", "scale")

    def __init__(self, n: int, a: Fraction, q: Fraction,
                 xs: Sequence[Fraction], axes: Tuple[TermRow, ...],
                 norm_a: Optional[Fraction] = None):
        self.n, self.xs, self.axes = n, xs, axes
        table, den = _pair_table(a, q, xs, n)
        [(_, norm)], norm_den = _pair_table(a if norm_a is None else norm_a,
                                            q, xs, 0)
        self.pairs = dict(table)
        self.scale = (norm_den, den * norm)

    def _check_scale(self) -> None:
        if self.scale[1] == 0:
            raise PoleError("pair-interaction denominator vanished")

    def pair(self, ks) -> Tuple[int, int]:
        """The entry at the k-vector ks as an unreduced int pair; (0, 1)
        outside [0, n]^r."""
        ks = (ks,) if isinstance(ks, int) else tuple(ks)
        if len(ks) != len(self.xs):
            raise ValueError("need a k-vector of length r=%d" % len(self.xs))
        if any(k < 0 or k > self.n for k in ks):
            return 0, 1
        self._check_scale()
        num, den = self.scale
        num *= self.pairs[ks]
        for row, k in zip(self.axes, ks):
            t_num, t_den = row.pair(k)
            num *= t_num
            den *= t_den
        return num, den

    def term(self, ks) -> Fraction:
        return Fraction(*self.pair(ks))

    def total(self) -> Ratio:
        """Each axis row's int numerators brought over its last den, per
        k-vector."""
        self._check_scale()
        num, den = self.scale
        weights = [1]
        for row in self.axes:
            if len(row.pairs) <= self.n:
                raise PoleError(row.pole)
            last = row.pairs[-1][1]
            den *= last
            nums = [t_num * (last // t_den) for t_num, t_den in row.pairs]
            weights = [w * v for w in weights for v in nums]
        return Ratio(num * sum(map(operator.mul, self.pairs.values(),
                                   weights)), den)


def schlosser_row(p: ParamPoint) -> CrRow:
    a, b, c, d, q = p.ratios("abcdq")
    n, r = p.idx("n"), p.idx("r")
    xs = tuple(_xs(p, r))
    axes = []
    for xi in xs:
        middles = [b*xi, c*xi, d*xi, a*a*xi*q**(n-r+2)/(b*c*d)]
        axes.append(pair_row(_vwp_pairs(a*xi*xi, middles, q, n, q), n))
    return CrRow(n, a, q, xs, tuple(axes))


def schlosser_lhs(p: ParamPoint) -> Value:
    _require_multisum_budget(p.idx("n"), p.idx("r"))
    return read_row(p, "schlosser_row").total()


def _schlosser_axes_rhs(p: ParamPoint, n: int, t=Ratio(1)) -> Ratio:
    """t times the per-axis closed-form product of the C_r sum at level n."""
    a, b, c, d, q = p.ratios("abcdq")
    r = p.idx("r")
    for i, xi in enumerate(_xs(p, r), 1):
        t *= poch_ratio([a*xi*xi*q, a*q**(2-i)/(b*c),
                         a*q**(2-i)/(b*d), a*q**(2-i)/(c*d)],
                        [a*q**(2-r)/(b*c*d*xi), a*xi*q/b,
                         a*xi*q/c, a*xi*q/d], q, n)
    return t


def schlosser_rhs(p: ParamPoint) -> Value:
    a, q = p.ratios("aq")
    n, r = p.idx("n"), p.idx("r")
    xs = _xs(p, r)
    t = Ratio(1)
    for i in range(r):
        for j in range(i + 1, r):
            t *= _quot(1 - a*xs[i]*xs[j]*q**n, 1 - a*xs[i]*xs[j])
    return _schlosser_axes_rhs(p, n, t)


def schlosser_lemma_lhs(p: ParamPoint) -> Value:
    """The r-fold sum over {0, 1}^r; axis row i is [1, v_i]."""
    a, b, c, d, q = p.ratios("abcdq")
    r = p.idx("r")
    xs = _xs(p, r)
    # the parameters over x_i, which do not depend on the axis
    bcd, aq = b*c*d, a*q
    nums = [b, c, d, a*a*q**(3-r)/bcd]
    dens = [aq/b, aq/c, aq/d, bcd*q**(r-2)/a]
    axes = tuple(pair_row(poch_ratio_pairs([t*xi for t in nums],
                                           [t*xi for t in dens], q, -1, 2), 1)
                 for xi in xs)
    return CrRow(1, a, q, xs, axes, aq).total()


def schlosser_lemma_rhs(p: ParamPoint) -> Value:
    return _schlosser_axes_rhs(p, 1)


def _sch_special_lhs(p: ParamPoint) -> Value:
    a, b, c, d, q = p.ratios("abcdq")
    n = p.idx("n")
    pre = poch_ratio([], [a*q], q, n)
    return pair_sum(_vwp_pairs(a, [a*q/b, a*q/c, a*q/d, b*c*d*q**(n-2)/a], q,
                               n, q), pre)


def _sch_special_rhs(p: ParamPoint) -> Value:
    a, b, c, d, q = p.ratios("abcdq")
    n = p.idx("n")
    return poch_ratio(
        [a*q**(2-n)/(b*c), a*q**(2-n)/(b*d), a*q**(2-n)/(c*d)],
        [b, c, d, a*a*q**(3-n)/(b*c*d)], q, n, pre=(b*c*d*q**(n-2)/a) ** n)


def _cr_lhs(p: ParamPoint, signed: bool) -> Ratio:
    a, q = p.ratios("aq")
    n, r = p.idx("n"), p.idx("r")
    _require_multisum_budget(n, r)
    # every axis weighs k by (-1)^k q^{-(r-1) k}, over q's numerator to the
    # (r-1) n
    qn, qd, e = q.numerator, q.denominator, r - 1
    den = qn**(e*n)
    weight = TermRow([((-1 if signed and k % 2 else 1) * qd**(e*k)
                       * qn**(e*(n - k)), den) for k in range(n + 1)], n)
    return CrRow(n, a, q, _xs(p, r), (weight,) * r, a*q**n).total()


def _cr1_rhs(p: ParamPoint) -> Value:
    [q] = p.ratios("q")
    n, r = p.idx("n"), p.idx("r")
    return poch_ratio([(q**(n+1), q**(n+1))], [q], q, r - 1,
                      pre=(n + 1) * q**-(n * (r*(r-1)//2)))


def _cr2_rhs(p: ParamPoint) -> Value:
    [q] = p.ratios("q")
    n, r = p.idx("n"), p.idx("r")
    if n % 2 == 1:
        return Fraction(0)
    return poch_ratio([(-q**(n+1), q**(n+1))], [-q], q, r - 1,
                      pre=q**-(n * (r*(r-1)//2)))


def _cr_xcheck(signed: bool):
    """The left side at a fresh x-vector, which the caller compares with the
    left side at the point: neither right side reads x."""
    def check(point: ParamPoint, rng: random.Random,
              size_bound: int) -> Ratio:
        r = point.idx("r")
        other = point.with_symbols(**_sample_x_vector(rng, r, size_bound))
        return _cr_lhs(other, signed)
    return check


def lebesgue_row(p: ParamPoint) -> TermRow:
    """F_{n,k} = [n, k]_q q^{k(k+1)/2} / (a q^k;q)_{n+1}, which is
    (q^{-n}, a;q)_k (-q^{n+1})^k / (q, a q^{n+1};q)_k / (a;q)_{n+1}."""
    a, q = p.ratios("aq")
    n = p.idx("n")
    pre = poch_ratio([], [a], q, n + 1)
    ser = poch_ratio_pairs([q**(-n), a], [q, a*q**(n+1)], q, -q**(n+1), n + 1)
    return pair_row(ser, n, pre)


def _lebesgue_rhs(p: ParamPoint) -> Value:
    a, q = p.ratios("aq")
    n = p.idx("n")
    return _quot(qpoch(-q, q, n), qpoch(a, q*q, n + 1))


def _bilateral_sum(q: Ratio, n: int, m: int, b: Ratio, top: Ratio, z,
                   w=Ratio(0)) -> Ratio:
    """sum_{k=-m}^{n} [m+n, m+k]_q top Z_k (1 - w q^{2m+2k})
    / ((b;q)_{m-k} (q/b;q)_{n+k+1}), where Z_{-m} = 1 and Z_{k+1}/Z_k is the
    kernel's z read at j = m + k.

    A per-k evaluation raises PoleError where a factor of those denominators
    vanishes, negative indices included, or where a q-binomial divides by
    1 - q^2 = 0 (q = -1, m + n >= 4).  As 1 - b q^{-i} is a nonzero multiple
    of 1 - (q/b) q^{i-1}, those are the zeros of (b;q)_{2m} (q/b;q)_{2n+1};
    past them no factor of the kernel's ratio vanishes.  The q-binomials come
    from the q-Pascal row, which divides nowhere, so q = -1 gives their values.
    """
    c, head = q / b, qpoch(b, q, 2*m)
    qn, qd, big_n = q.numerator, q.denominator, m + n
    if head.numerator * qpoch(c, q, 2*n + 1).numerator == 0 or (
            qn == -qd and big_n >= 4):
        raise PoleError("bilateral sum denominator vanished")
    binom = [1]             # [N, j]_q as an int over qd^{j(N-j)}, N = 0, 1, ...
    for row in range(1, big_n + 1):
        binom = [(binom[j - 1] * qd**(row - j) if j else 0)
                 + (binom[j] * qn**j if j < row else 0) for j in range(row + 1)]
    top_e = big_n * big_n // 4              # the largest j(N - j)
    ser = poch_ratio_pairs([(b*q**(2*m-1), q**-1)], [c*q**(n-m+1)], q, z,
                           big_n + 1)
    # each q-binomial over qd^top_e, so each den divides the next
    terms = ((binom[j] * qd**(top_e - j*(big_n - j)) * num, den)
             for j, (num, den) in enumerate(ser))
    first = top / head / qpoch(c, q, n - m + 1)
    return pair_sum(linear(terms, w, q*q), first / qd**top_e)


def _jacobi_finite_lhs(p: ParamPoint) -> Value:
    z, q = p.ratios("zq")
    n, m = p.idx("n"), p.idx("m")
    top = q**(m*m) / z**m * qpoch(-q*q/z, q*q, m) * qpoch(-z, q*q, n + 1)
    return _bilateral_sum(q, n, m, -q/z, top, (z*q**(1-2*m), q*q))


def _jacobi_finite_rhs(p: ParamPoint) -> Value:
    [q] = p.ratios("q")
    return qpoch(-q, q, p.idx("m") + p.idx("n"))


def _jacobi_pref_lhs(p: ParamPoint) -> Value:
    z, q = p.ratios("zq")
    n, m, k = p.idx("n"), p.idx("m"), p.idx("k")
    return poch_ratio([(-z*q**(-2*m), q*q)], [-z*q**(k-m)], q, m + n + 1,
                      pre=q**((m+k+1)*(m+k)//2))


def _jacobi_pref_rhs(p: ParamPoint) -> Value:
    """(-q^2/z;q^2)_m (-z;q^2)_{n+1} q^{k^2} z^k / ((-q/z;q)_{m-k} (-z;q)_{n+k+1}),
    the k-th summand of jacobi_finite over its q-binomial, at one k."""
    z, q = p.ratios("zq")
    n, m, k = p.idx("n"), p.idx("m"), p.idx("k")
    t = z**k * q**(k*k) * qpoch(-q*q/z, q*q, m) * qpoch(-z, q*q, n + 1)
    return _quot(t, qpoch(-q/z, q, m - k) * qpoch(-z, q, n + k + 1))


def quintuple_row(p: ParamPoint) -> TermRow:
    """F_{n,k} = (1 - z^2 q^{2k+1}) [n, k]_q (zq;q)_n z^k q^{k^2}
    / (z^2 q^{k+1};q)_{n+1}; with a = z^2 q that is (zq;q)_n / (aq;q)_n times
    the well-poised factor of a times
    (a, q^{-n};q)_k (-z q^{n+1})^k q^{k(k-1)/2} / (q, a q^{n+1};q)_k."""
    z, q = p.ratios("zq")
    n = p.idx("n")
    a = z*z*q
    pre = poch_ratio([z*q], [a*q], q, n)
    ser = _well_poised(a, q, wp_pairs([a, q**(-n)], q, (-z*q**(n+1), q),
                                      n + 1))
    return pair_row(ser, n, pre)


def _quintuple_mn_lhs(p: ParamPoint) -> Value:
    z, q = p.ratios("zq")
    n, m = p.idx("n"), p.idx("m")
    top = (q**(m*(3*m-1)//2) / z**(3*m+1)
           * qpoch(-q/z, q, m - 1) * qpoch(-z, q, n + 1))
    return _bilateral_sum(q, n, m, z**-2, top, (z**3*q**(2-3*m), q**3),
                          z*z*q**(1-2*m))


def _quintuple_ccg_lhs(p: ParamPoint) -> Value:
    """(z;q)_{n+1}/(z^2;q)_{n+1} sum_k (1 + z q^k) T_k; the factor 1 + z q^k
    stays per term, as (-zq;q)_k/(-z;q)_k would add poles at z = -q^{-j}."""
    z, q = p.ratios("zq")
    n = p.idx("n")
    ser = poch_ratio_pairs([q**(-n), z*z], [q, z*z*q**(n+1)], q,
                           (-z*q**(n+1), q), n + 1)
    return pair_sum(linear(ser, -z, q), poch_ratio([z], [z*z], q, n + 1))


def _one(p: ParamPoint) -> Value:
    return Fraction(1)


def _andrews_jain_lhs(p: ParamPoint) -> Value:
    a, b, q = p.ratios("abq")
    n = p.idx("n")
    q2 = q*q
    return poch_ratio_sum([a, b, (q**(-2*n), q2)], [q, (a*b*q, q2), q**(-2*n)],
                          q, q, n + 1)


def _andrews_jain_rhs(p: ParamPoint) -> Value:
    a, b, q = p.ratios("abq")
    n = p.idx("n")
    q2 = q*q
    return poch_ratio([a*q, b*q], [q, a*b*q], q2, n)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def _build_registry() -> Dict[str, IdentityDescriptor]:
    reg: Dict[str, IdentityDescriptor] = {}

    def add(desc: IdentityDescriptor) -> None:
        if desc.id in reg:
            raise ValueError("duplicate identity id %r" % desc.id)
        reg[desc.id] = desc

    # balanced very-well-poised summation; e := a^2 q^{n+1}/(bcd)
    add(IdentityDescriptor(
        id="jackson_8phi7",
        symbols=("a", "b", "c", "d"),
        index_names=("n",),
        lhs=_total("jackson_row"), rhs=_jackson_rhs, derive=_jackson_derive))

    add(IdentityDescriptor(
        id="jackson_6phi5",
        symbols=("a", "b", "c"),
        index_names=("n",),
        lhs=_6phi5_lhs, rhs=_6phi5_rhs))

    add(IdentityDescriptor(
        id="watson_transform",
        symbols=("a", "b", "c", "d", "e"),
        index_names=("n",),
        lhs=_total("watson_row"), rhs=_total("watson_rhs_row")))

    # lam := a^2 q/(bcd); both sides share the Watson-shaped left side
    add(IdentityDescriptor(
        id="vwp_transform",
        symbols=("a", "b", "c", "d", "e"),
        index_names=("n",),
        lhs=_total("watson_row"), rhs=_vwp_rhs, derive=_vwp_derive))

    add(IdentityDescriptor(
        id="bailey_10phi9",
        symbols=("a", "b", "c", "d", "e", "f"),
        index_names=("n",),
        lhs=_total("bailey_row"), rhs=_total("bailey_rhs_row"), derive=_vwp_derive))

    # A = a^2, B = b^2; terminated by d = q^{-n} (the c = q^{-n} variant
    # swaps the roles of c and d and evaluates identically)
    add(IdentityDescriptor(
        id="singh_quadratic",
        symbols=("A", "B", "c"),
        index_names=("n",),
        lhs=_total("singh_lhs_row"), rhs=_total("singh_rhs_row")))

    add(IdentityDescriptor(
        id="schlosser_cr",
        symbols=("a", "b", "c", "d"),
        index_names=("n", "r"),
        lhs=schlosser_lhs, rhs=schlosser_rhs))

    add(IdentityDescriptor(
        id="schlosser_lemma_n1",
        symbols=("a", "b", "c", "d"),
        index_names=("r",),
        lhs=schlosser_lemma_lhs, rhs=schlosser_lemma_rhs))

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
        xcheck=_cr_xcheck(signed=False)))

    # per-index weight (-1)^{s_i} q^{-(r-1) s_i}; right side vanishes for odd n
    add(IdentityDescriptor(
        id="cr_prop_2",
        symbols=("a",),
        index_names=("n", "r"),
        lhs=lambda p: _cr_lhs(p, signed=True), rhs=_cr2_rhs,
        xcheck=_cr_xcheck(signed=True)))

    add(IdentityDescriptor(
        id="lebesgue_finite",
        symbols=("a",),
        index_names=("n",),
        lhs=_total("lebesgue_row"), rhs=_lebesgue_rhs))

    add(IdentityDescriptor(
        id="jacobi_finite",
        symbols=("z",),
        index_names=("n", "m"),
        lhs=_jacobi_finite_lhs, rhs=_jacobi_finite_rhs))

    # termwise change-of-variables relation; k ranges over [-m, n]; z = -1 is
    # guarded, since both sides vanish there for k < -n
    add(IdentityDescriptor(
        id="jacobi_prefactor_relation",
        symbols=("z",),
        index_names=("n", "m", "k"),
        lhs=_jacobi_pref_lhs, rhs=_jacobi_pref_rhs,
        guards=lambda p: [("1 + z", 1 + p.sym("z"))]))

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
        guards=lambda p: [("1 - z^2", 1 - p.sym("z")**2)]))

    add(IdentityDescriptor(
        id="quintuple_ccg",
        symbols=("z",),
        index_names=("n",),
        lhs=_quintuple_ccg_lhs, rhs=_one))

    # the b = 0 specialization is addressable as lebesgue_finite_2
    add(IdentityDescriptor(
        id="andrews_jain",
        symbols=("a", "b"),
        index_names=("n",),
        lhs=_andrews_jain_lhs, rhs=_andrews_jain_rhs))

    return reg


_REGISTRY = _build_registry()

# b := 0 specialization of andrews_jain
_LEBESGUE_2 = _REGISTRY["andrews_jain"]._replace(
    id="lebesgue_finite_2",
    symbols=("a",),
    derive=lambda p: p.with_symbols(b=0))


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


def _derive_and_guard(desc: IdentityDescriptor, point: ParamPoint) -> ParamPoint:
    """The point with its derived symbols; PoleError, naming the guard, where
    a pole guard vanishes."""
    if desc.derive is not None:
        point = desc.derive(point)
    for label, value in desc.guards(point) if desc.guards else ():
        if value == 0:
            raise PoleError("pole guard %s = 0 for %s" % (label, desc.id))
    return point


def eval_sides(identity_id: str, point: ParamPoint) -> Tuple[Fraction, Fraction]:
    """Exact (LHS, RHS) after applying derived symbols and pole guards, each
    reduced to a Fraction."""
    desc = get_identity(identity_id)
    point = _derive_and_guard(desc, point)
    return _div(desc.lhs(point), 1), _div(desc.rhs(point), 1)


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------

def sample_point(desc: IdentityDescriptor, rng: random.Random,
                 index_ranges: Mapping, size_bound: int = DEFAULT_SIZE_BOUND
                 ) -> ParamPoint:
    """One random rational point for the descriptor (before derive/guards):
    the indices in ``index_names`` order, each from index_ranges or else
    ``sampled_ranges(desc)``, k last, in [-m, n], and then the symbols."""
    indices = {name: rng.randint(*(index_ranges.get(name)
                                   or sampled_ranges(desc)[name]))
               for name in desc.index_names if name != "k"}
    if "k" in desc.index_names:
        indices["k"] = rng.randint(-indices["m"], indices["n"])
    return ParamPoint(_sample_symbols(rng, desc.symbols, indices, size_bound),
                      indices)


def run_trials(trials: int, seed: int, key: str,
               draw: Callable[[random.Random], object],
               check: Callable[[object, random.Random], object],
               judge: Callable[[object, object], object]) -> Dict:
    """The one trial loop of every item kind.

    Trial t draws from an RNG of its own, seeded from (seed, key, t), and
    checks the point with ``check(point, rng)``; where either step raises
    PoleError it draws again, at most RETRY_CAP draws in all, and a trial
    whose every draw hit a pole is rejected.  ``judge(point, result)``
    returns a failure, which ends the loop, or None.  Returns the item's
    ``status`` (FAIL, or ERROR when every trial was rejected), ``succeeded``,
    ``rejected``, ``point_rejections`` (the points redrawn) and
    ``first_failure``."""
    out = {"status": "PASS", "succeeded": 0, "rejected": 0,
           "point_rejections": 0, "first_failure": None}
    for trial in range(trials):
        rng = random.Random(derive_trial_seed(seed, key, trial))
        for _ in range(RETRY_CAP):
            try:
                point = draw(rng)
                result = check(point, rng)
                break
            except PoleError:
                out["point_rejections"] += 1
        else:
            out["rejected"] += 1
            continue
        failure = judge(point, result)
        if failure is not None:
            out.update(status="FAIL", first_failure=failure)
            return out
        out["succeeded"] += 1
    if out["rejected"] == trials:
        out.update(status="ERROR", first_failure={
            "error": "all %d trials exhausted %d pole retries each"
                     % (trials, RETRY_CAP)})
    return out


def verify(identity_id: str, trials: int, seed: int,
           index_ranges: Optional[Mapping[str, Tuple[int, int]]] = None, *,
           mutate_rhs: bool = False, size_bound: int = DEFAULT_SIZE_BOUND
           ) -> VerificationReport:
    """Random-rational verification of one identity.

    Each trial derives its own RNG from (seed, identity id, trial index), so
    reports are reproducible.  Raises CounterexampleFound on the first exact
    mismatch and RetryExhausted if every trial drowned in pole rejections;
    the report rides on either exception.
    index_ranges overrides ``sampled_ranges(desc)`` index by index, each
    nonempty and from no lower than its default (else ValueError), and the
    report lists the ranges in effect.
    With ``mutate_rhs`` the right side is multiplied by q, which a healthy
    harness must catch.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    desc = get_identity(identity_id)
    ranges = sampled_ranges(desc)
    for name, (low, high) in (index_ranges or {}).items():
        if name not in ranges or not ranges[name][0] <= low <= high:
            raise ValueError("identity %s cannot draw %s from (%d, %d): it "
                             "draws %s" % (desc.id, name, low, high, ranges))
        ranges[name] = (low, high)
    report = VerificationReport(identity=desc.id, seed=seed,
                                index_ranges=ranges, mutated=mutate_rhs)

    def draw(rng: random.Random) -> ParamPoint:
        return _derive_and_guard(desc, sample_point(desc, rng, ranges, size_bound))

    def agrees(point: ParamPoint, rng: random.Random) -> bool:
        """Both sides agree, and the cross-check if any; its poles redraw."""
        lhs, rhs = desc.lhs(point), desc.rhs(point)
        if mutate_rhs:
            rhs = rhs * point.sym("q")
        if lhs != rhs:
            return False
        if desc.xcheck is None:
            return True
        return desc.xcheck(point, rng, size_bound) == lhs

    start = time.monotonic()
    out = run_trials(trials, seed, desc.id, draw, agrees,
                     lambda point, ok: None if ok else point)
    report.elapsed_s = time.monotonic() - start
    for name in ("status", "succeeded", "rejected", "point_rejections"):
        setattr(report, name, out[name])
    # every trial run, the failing one last
    report.attempted = (report.succeeded + report.rejected
                        + (report.status == "FAIL"))
    if report.status == "FAIL":
        point = out["first_failure"]
        report.counterexample = serialize_point(point)
        raise CounterexampleFound(
            "identity %s failed at %s" % (desc.id, report.counterexample),
            point=point, report=report)
    if report.status == "ERROR":
        raise RetryExhausted("identity %s: %s" % (
            desc.id, out["first_failure"]["error"]), report=report,
            failure=out["first_failure"])
    return report
