"""Exact rational scalars, parameter points, and q-Pochhammer primitives.

Every operation is exact; nothing touches floating point.  Parameters are
built as ``Ratio`` int pairs and inner loops carry unreduced int pairs, but
every value returned, and so every value compared, is a normalized
``Fraction``.  The q-shifted factorial ``qpoch`` is defined for any integer
index, with negative indices handled by the reciprocal identity
(a;q)_{-m} = 1 / (a q^{-m};q)_m so that evaluation stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence, Tuple


class QIdentityError(Exception):
    """Base class for errors raised by this package."""


class PoleError(QIdentityError):
    """A denominator factor vanished during exact evaluation."""


class DegenerateQ(QIdentityError):
    """q is 0 or 1, where q-binomials and Pochhammer ratios degenerate."""


class MissingSymbol(QIdentityError):
    """A ParamPoint lacks a symbol or index required by an evaluator."""


class Ratio:
    """A parameter as an unreduced int pair: a*q/(b*c) is one product over
    one product until the kernel reads it.  It prints as its Fraction."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, num: int, den: int = 1):
        if not den:
            raise ZeroDivisionError("Fraction(%s, 0)" % num)
        self.numerator, self.denominator = num, den

    def __mul__(self, o) -> "Ratio":
        return Ratio(self.numerator * o.numerator,
                     self.denominator * o.denominator)

    def __truediv__(self, o) -> "Ratio":
        return Ratio(self.numerator * o.denominator,
                     self.denominator * o.numerator)

    def __add__(self, o) -> "Ratio":
        d = self.denominator
        return Ratio(self.numerator * o.denominator + o.numerator * d,
                     d * o.denominator)

    def __rsub__(self, o) -> "Ratio":
        d = self.denominator
        return Ratio(o.numerator * d - self.numerator * o.denominator,
                     o.denominator * d)

    def __sub__(self, o) -> "Ratio":
        d = self.denominator
        return Ratio(self.numerator * o.denominator - o.numerator * d,
                     d * o.denominator)

    def __neg__(self) -> "Ratio":
        return Ratio(-self.numerator, self.denominator)

    def __pow__(self, e: int) -> "Ratio":
        n, d = self.numerator, self.denominator
        return Ratio(n ** e, d ** e) if e >= 0 else Ratio(d ** -e, n ** -e)

    def __eq__(self, other):            # a zero test reads the ints
        raise TypeError("a Ratio is not compared; read its ints")

    def __str__(self) -> str:
        return str(Fraction(self.numerator, self.denominator))

    def __repr__(self) -> str:
        return repr(Fraction(self.numerator, self.denominator))

    __rmul__, __radd__ = __mul__, __add__


def _ints(v) -> Tuple[int, int]:
    """Numerator and denominator of a rational value, reduced with one gcd."""
    if not isinstance(v, (Ratio, int, Fraction)):
        v = Fraction(v)
    num, den = v.numerator, v.denominator
    g = gcd(num, den) * (-1 if den < 0 else 1)
    return num // g, den // g


@dataclass(frozen=True)
class ParamPoint:
    """An exact parameter assignment: symbol values plus integer indices.

    Immutable after construction.  If the symbol ``q`` is present it must not
    be 0 or 1.  Two points are equal exactly when their symbol values and
    indices are.  Values made from a point are kept on it (``derived``), so a
    point is not hashed and is not hashable.
    """

    symbols: Mapping[str, Fraction]
    indices: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        syms = {name: v if isinstance(v, Fraction) else Fraction(v)
                for name, v in self.symbols.items()}
        idxs = {name: int(v) for name, v in self.indices.items()}
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "indices", idxs)
        q = syms.get("q")
        if q is not None and q in (0, 1):
            raise DegenerateQ("q must not be 0 or 1, got q=%s" % q)

    def sym(self, name: str) -> Fraction:
        try:
            return self.symbols[name]
        except KeyError:
            raise MissingSymbol("symbol %r not present (have %s)"
                                % (name, sorted(self.symbols))) from None

    def ratios(self, names) -> list:
        """Each named symbol as a ``Ratio``, from the point's int view."""
        view = self.__dict__.setdefault("_ratios", {})
        if not view:
            view.update((k, Ratio(v.numerator, v.denominator))
                        for k, v in self.symbols.items())
        return [view[k] if k in view else self.sym(k) for k in names]

    def derived(self, fn, *args):
        """``fn(self, *args)``, made once and kept on the point, as the
        ``Ratio`` view is; a call that raises keeps nothing."""
        cache = self.__dict__.setdefault("_derived", {})
        if (fn, args) not in cache:
            cache[fn, args] = fn(self, *args)
        return cache[fn, args]

    def idx(self, name: str) -> int:
        try:
            return self.indices[name]
        except KeyError:
            raise MissingSymbol("index %r not present (have %s)"
                                % (name, sorted(self.indices))) from None

    def with_symbols(self, **updates) -> "ParamPoint":
        """New point with some symbols replaced or added."""
        syms = dict(self.symbols)
        syms.update({k: Fraction(v) for k, v in updates.items()})
        return ParamPoint(syms, dict(self.indices))

    def scaled(self, **factors) -> "ParamPoint":
        """New point with named symbols multiplied by the given factors.

        This is the shape every proof-certificate parameter shift takes,
        e.g. ``point.scaled(a=q**2, b=q, c=q, d=q)``.
        """
        syms = dict(self.symbols)
        for name, factor in factors.items():
            syms[name] = self.sym(name) * Fraction(factor)
        return ParamPoint(syms, dict(self.indices))


def qpoch(a, q, n: int) -> Fraction:
    """q-shifted factorial (a;q)_n, exact, for any integer n.

    For n >= 0 this is the finite product prod_{k=0}^{n-1} (1 - a q^k); for
    n < 0 it is 1 / (a q^n;q)_{-n}, which raises PoleError when a factor of
    that product vanishes.
    """
    num = den = 1
    if n >= 0:
        pn, pd = _ints(a)                           # a q^k
        qn, qd = _ints(q)
        for _ in range(n):
            num *= pd - pn
            den *= pd
            pn *= qn
            pd *= qd
        return Fraction(num, den)
    a = Fraction(a.numerator, a.denominator) if type(a) is Ratio else Fraction(a)
    q = Fraction(q.numerator, q.denominator) if type(q) is Ratio else Fraction(q)
    qn, qd = q.numerator, q.denominator
    p = a / q
    pn, pd = p.numerator, p.denominator             # a q^{-j}
    for j in range(1, -n + 1):
        if pn == pd:
            raise PoleError("(a;q)_{%d} hit a vanishing factor 1 - a q^{-%d} "
                            "at a=%s, q=%s" % (n, j, a, q))
        num *= pd - pn
        den *= pd
        pn *= qd
        pd *= qn
    return Fraction(den, num)


def qpoch_multi(avals: Sequence, q, n: int) -> Fraction:
    """Product (a_1, ..., a_m;q)_n = prod_i (a_i;q)_n."""
    result = Fraction(1)
    for i, a in enumerate(avals):
        try:
            result *= qpoch(a, q, n)
        except PoleError as exc:
            raise PoleError("factor %d of %d in qpoch_multi: %s"
                            % (i + 1, len(avals), exc)) from None
    return result


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
    qn, qd = q.numerator, q.denominator
    tn, td = qn ** (n - k), qd ** (n - k)           # q^{n-k+i}
    bn = bd = 1                                     # q^i
    num = den = 1
    for i in range(1, k + 1):
        tn *= qn
        td *= qd
        bn *= qn
        bd *= qd
        if bn == bd:
            raise PoleError("qbinom denominator factor 1 - q^%d vanished at q=%s"
                            % (i, q))
        num *= (td - tn) * bd
        den *= td * (bd - bn)
    return Fraction(num, den)
