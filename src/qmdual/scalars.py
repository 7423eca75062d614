"""Scalar backend and argument rules: exact values in Q(s), s^2 rational.

The backend works in the quadratic field Q(s) where s^2 = q is the
(rational) deformation parameter, so half-integer powers of q stay exact.
`to_mpf` turns an exact value into a float for a caller's own float
oracle; nothing in the library calls it.

The package's argument rules live here alone.  A scalar is exact when its
type is exactly int, Fraction or SNum (`exact`, `is_exact`, `check_types`)
and rational when it is int or Fraction, so a float, a bool or a subclass
raises `DomainError` where it enters.  `check_q` takes an exact q outside
{-1, 0, 1}; it and `lift_int` make an int a Fraction, so that its negative
powers stay exact.  `rational_q` is `check_q` that also refuses an SNum q,
where a value is formed from q's numerator and denominator.  `ints` takes
counts as `operator.index` does: a numpy int passes, and a float or a
string raises instead of being truncated.
`div` makes int / int a Fraction, and `power_parts` gives a rational power
as an int pair.

`q_root` is the one root s = sqrt(q) of the deformation parameter q.
`sqrt` is the one other square root.  It roots a rational-valued radicand
in Q or in Q*s and refuses an SNum with a nonzero s-part.  Beyond `q_root`
the library roots nothing with it, since its dualities are products in
Q(s); it serves a caller's radicand, such as a ratio of measures.

Construction: the public `SNum(a, b, sbase)` validates its input.  It
takes rational parts and base, requires sbase > 0, and folds a
perfect-square sbase into the rational part.  Arithmetic results skip that
work: they come from the private `SNum._make`, which relies on the
invariants every SNum already holds (Fraction parts, sbase positive and not
a square) and redoes only the fold b == 0 => sbase = None.
"""

import math
import operator
from fractions import Fraction

from .errors import DegenerateQError, DomainError


_ZERO = Fraction(0)
_ONE = Fraction(1)
_RATIONAL = frozenset((int, Fraction))


def rational_sqrt(r):
    """Exact square root of a Fraction/int, or None when not a perfect square."""
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
        parts = (a, b) if sbase is None else (a, b, sbase)
        if not all(type(x) in _RATIONAL for x in parts):
            raise DomainError("SNum parts %r must be ints or Fractions" % (parts,))
        a, b = Fraction(a), Fraction(b)
        if b and sbase is None:
            raise ValueError("SNum with s-part needs sbase")
        if b and sbase <= 0:
            raise ValueError("sbase must be positive")
        root = rational_sqrt(sbase) if b else None
        if root is not None:
            a, b = a + b * root, _ZERO
        self.a, self.b = a, b
        self.sbase = Fraction(sbase) if b else None

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
    """Principal square root of a rational-valued exact x, in Q or Q*s,
    s^2 = q for a rational q.

    A q that is not a positive rational (an SNum, a float or q <= 0) raises
    `DomainError` at entry.  So does an x that is a float or an SNum with a
    nonzero s-part, before any other check of x.  So do a negative x and an
    x with no root in the field of q (Q for q None).
    """
    if q is not None and not (type(q) in _RATIONAL and q > 0):
        raise DomainError("q=%r must be a positive rational" % (q,))
    if not is_exact(x) or isinstance(x, SNum) and x.b:
        raise DomainError("sqrt takes an exact rational radicand, not %r" % (x,))
    if x < 0:
        raise DomainError("negative radicand %r has no real square root" % (x,))
    r = x.a if isinstance(x, SNum) else Fraction(x)
    root = rational_sqrt(r)
    if root is not None:
        return SNum(root) if isinstance(x, SNum) else root
    # maybe sqrt(r) = t*s with t rational, t^2 = r / q
    t = None if q is None else rational_sqrt(r / Fraction(q))
    if t is not None:
        return SNum(0, t, q)
    field = "Q" if q is None else "Q(sqrt(%s))" % q
    raise DomainError("radicand %r is not a square in %s" % (x, field))


def q_root(q):
    """The root s = sqrt(q) of the deformation parameter q.

    A square rational q gives a Fraction, any other rational q the generator
    SNum(0, 1, q) of Q(s).  An SNum q raises `DomainError`, since its root
    lies outside its field, and so does a float q; so does q < 0, through
    `sqrt`'s negative-radicand check.
    """
    if type(q) not in _RATIONAL:
        raise DomainError("q=%r must be a rational" % (q,))
    if q < 0:
        return sqrt(q)
    root = rational_sqrt(q)
    if root is not None:
        return root
    return SNum._make(_ZERO, _ONE, q if type(q) is Fraction else Fraction(q))


def to_mpf(x):
    """An exact scalar as an mpmath number at the current precision."""
    import mpmath
    if isinstance(x, SNum):
        return to_mpf(x.a) + (to_mpf(x.b) * mpmath.sqrt(to_mpf(x.sbase))
                              if x.b else 0)
    return mpmath.mpf(x.numerator) / x.denominator


_EXACT = _RATIONAL | {SNum}


def is_exact(x):
    return type(x) in _EXACT


def exact(x, name="q"):
    """x itself; `DomainError` names x unless it is exact."""
    if type(x) not in _EXACT:
        raise DomainError("%s=%r is not exact: pass an int, Fraction or SNum"
                          % (name, x))
    return x


def check_types(types):
    """DomainError unless every type is int, Fraction or SNum, not a subclass."""
    bad = types - _EXACT
    if bad:
        raise DomainError("%s is not exact: pass an int, Fraction or SNum"
                          % ", ".join(sorted(t.__name__ for t in bad)))


def lift_int(x):
    """x, an int made a Fraction so that x ** -n stays exact."""
    return Fraction(x) if type(x) is int else x


def check_q(q):
    """The exact q, lifted by `lift_int`; q in {-1, 0, 1} is degenerate."""
    if exact(q) == 0 or q == 1 or q == -1:
        raise DegenerateQError("degenerate q = %s" % (q,))
    return lift_int(q)


def rational_q(q):
    """The q of `check_q`, a Fraction; an SNum q raises `DomainError`."""
    if type(check_q(q)) is SNum:
        raise DomainError("q=%r must be a rational" % (q,))
    return lift_int(q)


def power_parts(x, e=1):
    """(numerator, denominator) of the rational x ** e as ints, for an int e
    of either sign; the Fraction built from them carries the sign."""
    num, den = x.numerator ** abs(e), x.denominator ** abs(e)
    return (num, den) if e >= 0 else (den, num)


def div(a, b):
    """a / b, a Fraction for two ints, whose true division is a float."""
    if type(a) is int and type(b) is int:
        return Fraction(a, b)
    return a / b


def ints(values, what, low=None):
    """values as a tuple of ints by `operator.index`, or `DomainError` naming
    `what` if one is not an integer or lies below low."""
    values = tuple(values)
    try:
        out = tuple(map(operator.index, values))
        if low is None or min(out, default=low) >= low:
            return out
    except TypeError:
        pass
    raise DomainError("%s %r must be ints%s" % (
        what, values, "" if low is None else " >= %d" % low))
