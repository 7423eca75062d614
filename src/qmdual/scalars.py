"""Scalar backends: exact values in Q(s) with s^2 rational, and mpmath floats.

The exact backend works in the quadratic field Q(s) where s^2 = q is the
(rational) deformation parameter, so half-integer powers of q stay exact.
The float backend is mpmath at the caller's working precision: the library
never sets `mpmath.mp.dps`, so wrap a computation in `mpmath.workdps` to
choose the digits.

`q_root` is the one root s = sqrt(q) of the deformation parameter q.
`sqrt` is the one other square root.  An exact radicand gets its exact
root in the field of q, or a `DomainError` naming that field; it never
turns into a float by itself.  A caller who wants the float root passes
`to_mpf(x)`, so every move from exact to float is written at its call site.

Construction: the public `SNum(a, b, sbase)` validates its input.  It
coerces both parts to Fraction, requires sbase > 0, and folds a
perfect-square sbase into the rational part.  Arithmetic results skip that
work: they come from the private `SNum._make`, which relies on the
invariants every SNum already holds (Fraction parts, sbase positive and not
a square) and redoes only the fold b == 0 => sbase = None.
"""

import math
import operator
from fractions import Fraction

import mpmath

from .errors import DomainError


_ZERO = Fraction(0)
_ONE = Fraction(1)


def rational_sqrt(r):
    """Exact square root of a Fraction/int, or None when not a perfect square."""
    if type(r) is not Fraction:
        r = Fraction(r)
    num, den = r.numerator, r.denominator
    if num < 0:
        return None
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
        """SNum(a), SNum(b@s) or SNum(a+b@s): the parts of a + b*s."""
        if self.b == 0:
            return "SNum(%s)" % self.a
        if self.a == 0:
            return "SNum(%s@s)" % self.b
        return "SNum(%s%s%s@s)" % (self.a, "+" if self.b > 0 else "-",
                                   abs(self.b))


def sqrt(x, q=None):
    """Principal square root: exact for an exact x, an mpf for a float x.

    q is the deformation parameter itself.  A rational q names the field
    Q(s), s^2 = q, in which an exact x is rooted; a float q (or None) names
    Q.  A negative radicand raises `DomainError`, and so does an exact x
    that is not a square in that field.
    """
    if not is_exact(x):
        x = to_mpf(x)
    if x < 0:
        raise DomainError("negative radicand %r has no real square root" % (x,))
    if not is_exact(x):
        return mpmath.sqrt(x)
    sbase = q if is_exact(q) else None
    if isinstance(x, SNum) and x.b != 0:
        # (u + v s)^2 = a + b s  =>  u^2 = (a +- e)/2 with e = sqrt(a^2 - b^2 s^2)
        a, b, sbase = x.a, x.b, x.sbase
        e = rational_sqrt(a * a - b * b * sbase)
        for usq in () if e is None else ((a + e) / 2, (a - e) / 2):
            u = rational_sqrt(usq)
            if u:
                root = SNum(u, b / (2 * u), sbase)
                if root * root == x:
                    return root if root.sign() >= 0 else -root
    else:
        r = x.a if isinstance(x, SNum) else Fraction(x)
        root = rational_sqrt(r)
        if root is not None:
            return SNum(root) if isinstance(x, SNum) else root
        # maybe sqrt(r) = t*s with t rational, t^2 = r / sbase
        t = None if sbase is None else rational_sqrt(r / Fraction(sbase))
        if t is not None:
            return SNum(0, t, sbase)
    field = "Q" if sbase is None else "Q(sqrt(%s))" % sbase
    raise DomainError("exact radicand %r is not a square in %s" % (x, field))


def q_root(q):
    """The root s = sqrt(q) of the deformation parameter q.

    A square rational q gives a Fraction, any other rational q the generator
    SNum(0, 1, q) of Q(s), and a float q an mpf.  An SNum q raises
    `DomainError`, since its root lies outside its field; so does q < 0,
    through `sqrt`'s negative-radicand check.
    """
    if isinstance(q, SNum):
        raise DomainError("q=%r must be a rational or a float" % (q,))
    if not is_exact(q) or q < 0:
        return sqrt(q)
    root = rational_sqrt(q)
    if root is not None:
        return root
    return SNum._make(_ZERO, _ONE, q if type(q) is Fraction else Fraction(q))


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
