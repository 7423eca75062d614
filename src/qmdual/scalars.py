"""Scalar backends: exact values in Q(s) with s^2 rational, and mpmath floats.

The exact backend works in the quadratic field Q(s) where s^2 = q is the
(rational) deformation parameter, so half-integer powers of q stay exact.
The float backend is mpmath at the caller's working precision: the library
never sets `mpmath.mp.dps`, so wrap a computation in `mpmath.workdps` to
choose the digits.

`sqrt` is the one place that decides whether a square root stays exact.
An exact radicand that is a square in the field of q gets an exact root.
Any other exact radicand falls back to an mpf, and that fallback always
emits a `UserWarning` naming the radicand; it is never silent.

Construction: the public `SNum(a, b, sbase)` validates its input.  It
coerces both parts to Fraction, requires sbase > 0, and folds a
perfect-square sbase into the rational part.  Arithmetic results skip that
work: they come from the private `SNum._make`, which relies on the
invariants every SNum already holds (Fraction parts, sbase positive and not
a square) and redoes only the fold b == 0 => sbase = None.
"""

import math
import operator
import re
import warnings
from fractions import Fraction

import mpmath

from .errors import DomainError


_ZERO = Fraction(0)


def rational_sqrt(r):
    """Exact square root of a Fraction/int, or None when not a perfect square."""
    r = Fraction(r)
    if r < 0:
        return None
    num, den = r.numerator, r.denominator
    a, b = math.isqrt(num), math.isqrt(den)
    if a * a == num and b * b == den:
        return Fraction(a, b)
    return None


def _ordering(test):
    """The SNum comparison test(sign(self - other), 0); an operand of
    another backend gets NotImplemented, so a mixed comparison raises."""
    def compare(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else test((self - o).sign(), 0)
    return compare


class SNum:
    """Element a + b*s of the field Q(s), s^2 = sbase (a positive rational).

    Pure rationals are represented with b = 0 and sbase = None; they combine
    with any sbase.  If sbase itself is a perfect square the s-part is folded
    into the rational part at construction, keeping the representation a
    genuine field (no zero divisors).
    """

    __slots__ = ("a", "b", "sbase")

    def __init__(self, a, b=0, sbase=None):
        a = Fraction(a)
        b = Fraction(b)
        if b != 0:
            if sbase is None:
                raise ValueError("SNum with s-part needs sbase")
            sbase = Fraction(sbase)
            if sbase <= 0:
                raise ValueError("sbase must be positive")
            root = rational_sqrt(sbase)
            if root is not None:
                a, b = a + b * root, Fraction(0)
                sbase = None
        else:
            sbase = None
        self.a, self.b, self.sbase = a, b, sbase

    @classmethod
    def _make(cls, a, b, sbase):
        """Arithmetic result from parts that already satisfy the invariants:
        a and b Fractions, sbase positive and not a square.  Only the fold
        b == 0 => sbase = None is redone."""
        x = object.__new__(cls)
        x.a, x.b = a, b
        x.sbase = sbase if b else None
        return x

    # -- coercion -----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, SNum):
            return x
        if isinstance(x, (int, Fraction)):
            return SNum._make(x if type(x) is Fraction else Fraction(x),
                              _ZERO, None)
        return None

    def _join(self, other):
        if self.sbase is None:
            return other.sbase
        if other.sbase is None:
            return self.sbase
        if self.sbase != other.sbase:
            raise ValueError("mixing incompatible s-fields: s^2=%s vs s^2=%s"
                             % (self.sbase, other.sbase))
        return self.sbase

    # -- ring/field operations ----------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SNum._make(self.a + o.a, self.b + o.b, self._join(o))

    __radd__ = __add__

    def __neg__(self):
        return SNum._make(-self.a, -self.b, self.sbase)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SNum._make(self.a - o.a, self.b - o.b, self._join(o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SNum._make(self.a * other, self.b * other, self.sbase)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        base = self._join(o)
        a = self.a * o.a + (self.b * o.b * base if base is not None else 0)
        b = self.a * o.b + self.b * o.a
        return SNum._make(a, b, base)

    __rmul__ = __mul__

    def _inverse(self):
        if self.b == 0:
            if self.a == 0:
                raise ZeroDivisionError("division by zero SNum")
            return SNum._make(1 / self.a, _ZERO, None)
        # (a + b s)^-1 = (a - b s) / (a^2 - b^2 s^2); nonzero since sbase is
        # not a perfect square, hence s irrational.
        d = self.a * self.a - self.b * self.b * self.sbase
        return SNum._make(self.a / d, -self.b / d, self.sbase)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            # a zero other raises ZeroDivisionError from the Fraction division
            return SNum._make(self.a / other, self.b / other, self.sbase)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self._inverse() ** (-n)
        result = SNum._make(Fraction(1), _ZERO, None)
        square = self
        while n:
            if n & 1:
                result = result * square
            square = square * square
            n >>= 1
        return result

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.b == o.b == 0:
            return self.a == o.a
        try:
            self._join(o)
        except ValueError:
            return False
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.sbase))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def sign(self):
        """Sign of the real number a + b*sqrt(sbase)."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return (self.b > 0) - (self.b < 0)
        # compare a^2 vs b^2 sbase with the signs of a, b
        lhs, rhs = self.a * self.a, self.b * self.b * self.sbase
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        if self.a > 0:  # b < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return 1 if lhs < rhs else (-1 if lhs > rhs else 0)

    __lt__, __le__ = _ordering(operator.lt), _ordering(operator.le)
    __gt__, __ge__ = _ordering(operator.gt), _ordering(operator.ge)

    def __repr__(self):
        return "SNum(%s)" % format_exact(self)


def exact_sqrt(x, sbase=None):
    """Square root inside Q(s), or None when the radicand is not a square there.

    x may be int/Fraction/SNum; sbase gives the ambient field for rationals
    whose root might be a rational multiple of s.
    """
    if isinstance(x, SNum) and x.b != 0:
        # (u + v s)^2 = a + b s  =>  u^2 = (a +- e)/2 with e = sqrt(a^2 - b^2 s^2)
        a, b, base = x.a, x.b, x.sbase
        e = rational_sqrt(a * a - b * b * base)
        if e is None:
            return None
        for usq in ((a + e) / 2, (a - e) / 2):
            u = rational_sqrt(usq)
            if u is not None and u != 0:
                v = b / (2 * u)
                cand = SNum(u, v, base)
                if cand * cand == x and cand.sign() >= 0:
                    return cand
                cand = -cand
                if cand * cand == x and cand.sign() >= 0:
                    return cand
        return None
    r = x.a if isinstance(x, SNum) else Fraction(x)
    if r < 0:
        return None
    root = rational_sqrt(r)
    if root is not None:
        return SNum(root) if isinstance(x, SNum) else root
    if sbase is not None:
        # maybe sqrt(r) = t*s with t rational, t^2 = r / sbase
        t = rational_sqrt(r / Fraction(sbase))
        if t is not None:
            return SNum(0, t, sbase)
    return None


def field_base(q):
    """The rational s^2 of the field Q(s) that q lives in: q itself for a
    Fraction, or None for a float q (no field to look for roots in)."""
    if isinstance(q, SNum):
        return q.sbase if q.sbase is not None else q.a
    if isinstance(q, Fraction):
        return q
    return None


def sqrt(x, sbase=None):
    """Principal square root, exact whenever x is a square in Q(s), s^2 = sbase.

    A negative radicand raises `DomainError`.  An exact x with no root in
    that field returns an mpf and warns with a `UserWarning` naming x; a
    float x returns an mpf.
    """
    exact = is_exact(x)
    if not exact:
        x = to_mpf(x)
    if x.sign() < 0 if isinstance(x, SNum) else x < 0:
        raise DomainError("negative radicand %r has no real square root" % (x,))
    if exact:
        root = exact_sqrt(x, sbase)
        if root is not None:
            return root
        field = "Q" if sbase is None else "Q(sqrt(%s))" % sbase
        warnings.warn("%r is not a square in %s; falling back to mpf"
                      % (x, field), stacklevel=2)
    return mpmath.sqrt(to_mpf(x))


def to_mpf(x):
    """Convert any supported scalar to an mpmath number at current precision."""
    if isinstance(x, SNum):
        v = mpmath.mpf(x.a.numerator) / x.a.denominator
        if x.b != 0:
            v += (mpmath.mpf(x.b.numerator) / x.b.denominator) * mpmath.sqrt(
                mpmath.mpf(x.sbase.numerator) / x.sbase.denominator)
        return v
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpmathify(x)


def is_exact(x):
    return isinstance(x, (int, Fraction, SNum))


# -- serialization ------------------------------------------------------------
#
# Exact grammar:  "3/4"  |  "3/4@s"  |  "1/2+3/4@s"  |  "1/2-3/4@s"
# meaning a, b*s, a + b*s in the s-field with q = s^2.  Anything with a
# decimal point parses to the float backend.

_RAT = r"[+-]?\d+(?:/\d+)?"


def format_exact(x):
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if not isinstance(x, SNum):
        raise DomainError("%r is not an exact scalar" % (x,))
    if x.b == 0:
        return str(x.a)
    bpart = "%s@s" % x.b if x.a == 0 else (
        "%s+%s@s" % (x.a, x.b) if x.b > 0 else "%s-%s@s" % (x.a, -x.b))
    return bpart


def parse_scalar(text, sbase=None):
    """Parse a CLI scalar: exact rationals/s-field values, or decimal floats."""
    text = text.strip()
    if "@s" in text:
        if sbase is None:
            raise ValueError("value %r needs an ambient s-field (q not yet known)" % text)
        body = text[:-2]
        m = re.match(r"^(%(r)s)(?=[+-])(%(r)s)$" % {"r": _RAT}, body)
        if m:
            return SNum(Fraction(m.group(1)), Fraction(m.group(2)), sbase)
        return SNum(0, Fraction(body), sbase)
    if re.match(r"^%s$" % _RAT, text):
        return Fraction(text)
    return mpmath.mpf(text)
