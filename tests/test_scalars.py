"""The exact scalar backend: the one square root, its refusal of floats,
and the precision contract."""

import os
import subprocess
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmdual import scalars
from qmdual.errors import DomainError
from qmdual.scalars import SNum, q_root, sqrt


class TestSqrt:
    def test_negative_radicand_raises(self):
        for x in (F(-1, 4), -3, SNum(-2)):
            with pytest.raises(DomainError, match="negative radicand"):
                sqrt(x, F(1, 3))

    def test_irrational_radicand_raises(self):
        # sqrt takes an exact rational radicand, whatever its sign or whether
        # it is a square in Q(s): an s-part or a float is refused before any
        # other check
        s = SNum(0, 1, F(1, 3))
        for x in (1 - 2 * s, (1 + s) ** 2, 1 + s, s, mpmath.mpf(2),
                  mpmath.mpf(-2), scalars.to_mpf(F(4))):
            with pytest.raises(DomainError,
                               match="takes an exact rational radicand"):
                sqrt(x, F(1, 3))

    def test_snum_q_raises(self):
        # the root of an SNum q lies outside its field; refused at entry,
        # even where the radicand is a rational square
        for x, q in ((F(2), SNum(0, 1, 3)), (F(3), SNum(F(1, 4))),
                     (F(4), SNum(0, 1, 3))):
            with pytest.raises(DomainError, match="must be a positive rational"):
                sqrt(x, q)

    def test_nonpositive_q_raises(self):
        # refused at entry, before the radicand is looked at: q = 0 must not
        # divide by zero or root 4 in "Q(sqrt(0))", and q = -3 names no field
        for x, q in ((F(2), F(0)), (F(4), 0), (F(2), F(-3))):
            with pytest.raises(DomainError, match="must be a positive rational"):
                sqrt(x, q)

    def test_rational_square_stays_rational(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            root = sqrt(F(9, 4), F(1, 3))
        assert type(root) is F and root == F(3, 2)

    def test_square_in_the_field_of_q(self):
        q = F(1, 3)
        s = SNum(0, 1, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # 4/3 = (2 s)^2, and 3/16 = (3 s / 4)^2 as an SNum
            assert sqrt(F(4, 3), q) == 2 * s
            assert sqrt(SNum(F(3, 16)), q) == SNum(0, F(3, 4), q)
            assert sqrt(12, 3) == SNum(0, 2, 3)

    def test_float_q_raises(self):
        # a float q is refused at entry, before the radicand is looked at,
        # even where the radicand is a rational square
        for x, q in ((F(4, 3), mpmath.mpf(1) / 3), (F(4), mpmath.mpf(-2)),
                     (F(4), 0.5)):
            with pytest.raises(DomainError, match="must be a positive rational"):
                sqrt(x, q)

    def test_non_square_raises(self):
        # an exact radicand never turns into a float
        for x in (F(2), 5, SNum(F(2))):
            with pytest.raises(DomainError,
                               match=r"not a square in Q\(sqrt\(1/3\)\)$"):
                sqrt(x, F(1, 3))
        # 4/3 is a square in Q(sqrt(1/3)) but not in Q, the field of no q
        with pytest.raises(DomainError, match=r"not a square in Q$"):
            sqrt(F(4, 3))


class TestQRoot:
    def test_square_q_gives_a_fraction(self):
        root = q_root(F(1, 4))
        assert type(root) is F and root == F(1, 2)

    def test_non_square_q_gives_the_generator_of_its_field(self):
        root = q_root(F(1, 3))
        assert type(root) is SNum and root == SNum(0, 1, F(1, 3))

    @pytest.mark.parametrize("q", [SNum(0, 1, F(1, 3)), SNum(F(1, 4)),
                                   F(-1, 3), -4, mpmath.mpf(-0.5)],
                             ids=repr)
    def test_snum_or_negative_q_raises(self, q):
        with pytest.raises(DomainError):
            q_root(q)


# validation raises, never asserts, so these refusals of a float hold under
# python -O, where CI runs the suite again
INPUT_CHECKS = {
    "q_root, mpf q": lambda: q_root(mpmath.mpf(1) / 3),
    "sqrt, mpf q": lambda: sqrt(F(4), mpmath.mpf(1) / 3),
    "sqrt, mpf radicand": lambda: sqrt(mpmath.mpf(4)),
    # SNum(0.1) was SNum(3602879701896397/36028797018963968) before
    "SNum, float part": lambda: SNum(0.1),
    "SNum, float s-part": lambda: SNum(1, 0.5, F(1, 3)),
    "SNum, mpf part": lambda: SNum(mpmath.mpf(1), 1, F(1, 3)),
    "SNum, float base": lambda: SNum(1, 1, 0.5),
    "SNum, float base of a zero s-part": lambda: SNum(1, 0, 0.5),
    "SNum, string part": lambda: SNum("1/3"),
    # a bool is not rational: SNum(True) was SNum(1) before
    "SNum, bool part": lambda: SNum(True),
    "SNum, bool base": lambda: SNum(1, 1, True),
    "sqrt, bool q": lambda: sqrt(F(4), True),
    "q_root, bool q": lambda: q_root(True),
}


@pytest.mark.parametrize("name", sorted(INPUT_CHECKS))
def test_input_check_raises(name):
    with pytest.raises(DomainError):
        INPUT_CHECKS[name]()


def test_counts_are_whatever_operator_index_takes():
    got = scalars.ints((np.int64(2), True, 3), "counts", 0)
    assert got == (2, 1, 3) and all(type(v) is int for v in got)
    assert scalars.ints((), "counts", 1) == ()
    for values, low in (((1, 2.0), None), ((F(2),), None), (("2",), None),
                        ((np.float64(1),), None), ((0, -1), 0), ((0,), 1)):
        with pytest.raises(DomainError, match="^counts .* must be ints"):
            scalars.ints(values, "counts", low)


def test_import_leaves_the_precision_alone():
    # an environment variable used to set a process-wide precision on import
    src = str(Path(scalars.__file__).resolve().parents[1])
    code = ("import mpmath\nmpmath.mp.dps = 25\nimport qmdual\n"
            "print(mpmath.mp.dps)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src,
                                   QMDUAL_PRECISION="200"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["25"]


# -- arithmetic against the validating constructor ------------------------------

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
nonsquares = st.fractions(min_value=F(1, 50), max_value=50,
                          max_denominator=50).filter(
    lambda r: scalars.rational_sqrt(r) is None)
ints_or_fractions = st.one_of(st.integers(-20, 20), rationals)


def textbook_mul(x, y, s):
    """(a1 + b1 s)(a2 + b2 s) through the validating constructor."""
    return SNum(x.a * y.a + x.b * y.b * s, x.a * y.b + x.b * y.a, s)


def textbook_inv(x, s):
    d = x.a * x.a - x.b * x.b * s
    return SNum(x.a / d, -x.b / d, s)


def textbook_pow(x, n, s):
    if n < 0:
        x, n = textbook_inv(x, s), -n
    out = SNum(1)
    for _ in range(n):
        out = textbook_mul(out, x, s)
    return out


def assert_same_snum(got, want):
    assert type(got) is SNum
    assert (got.a, got.b, got.sbase) == (want.a, want.b, want.sbase)
    assert type(got.a) is type(want.a) is F
    assert type(got.b) is type(want.b) is F
    assert type(got.sbase) is type(want.sbase)
    if got.b == 0:
        assert got.sbase is None


class TestArithmetic:
    """Arithmetic results skip the validation of the public constructor; they
    must be exactly what it gives for the textbook formula."""

    @settings(max_examples=200, deadline=None)
    @given(rationals, rationals, rationals, rationals, nonsquares)
    def test_field_operations(self, a1, b1, a2, b2, s):
        x, y = SNum(a1, b1, s), SNum(a2, b2, s)
        assert_same_snum(x + y, SNum(a1 + a2, b1 + b2, s))
        assert_same_snum(x - y, SNum(a1 - a2, b1 - b2, s))
        assert_same_snum(-x, SNum(-a1, -b1, s))
        assert_same_snum(x * y, textbook_mul(x, y, s))
        if y:
            assert_same_snum(x / y, textbook_mul(x, textbook_inv(y, s), s))

    @settings(max_examples=200, deadline=None)
    @given(rationals, rationals, ints_or_fractions, nonsquares)
    def test_rational_operand_on_either_side(self, a, b, r, s):
        x = SNum(a, b, s)
        assert_same_snum(x + r, SNum(a + r, b, s))
        assert_same_snum(r + x, SNum(r + a, b, s))
        assert_same_snum(x - r, SNum(a - r, b, s))
        assert_same_snum(r - x, SNum(r - a, -b, s))
        assert_same_snum(x * r, SNum(a * r, b * r, s))
        assert_same_snum(r * x, SNum(r * a, r * b, s))
        if r:
            assert_same_snum(x / r, SNum(F(a) / r, F(b) / r, s))
        if x:
            assert_same_snum(r / x, textbook_mul(SNum(r), textbook_inv(x, s), s))

    @settings(max_examples=100, deadline=None)
    @given(rationals, rationals, nonsquares, st.integers(-4, 5))
    def test_powers(self, a, b, s, n):
        x = SNum(a, b, s)
        if n < 0 and not x:
            return
        assert_same_snum(x ** n, textbook_pow(x, n, s))

    def test_public_constructor_still_validates(self):
        # a perfect-square base folds into the rational part
        x = SNum(1, 2, F(9, 4))
        assert (x.a, x.b, x.sbase) == (4, 0, None) and type(x.a) is F
        assert SNum(3, 0, F(1, 3)).sbase is None
        for base in (0, F(-1, 3)):
            with pytest.raises(ValueError, match="positive"):
                SNum(1, 1, base)
        with pytest.raises(ValueError, match="needs sbase"):
            SNum(1, 1)

    def test_division_by_a_rational_zero_raises(self):
        x = SNum(1, 2, F(1, 3))
        for zero in (0, F(0), SNum(0)):
            with pytest.raises(ZeroDivisionError):
                x / zero
        with pytest.raises(ZeroDivisionError):
            1 / SNum(0)

    def test_comparison_with_a_float_raises(self):
        # all four orderings refuse an mpf operand: mixing exact and float
        # values is never silent, and no NotImplemented is read as a bool
        x = mpmath.mpf(2)
        s = SNum(0, 1, F(1, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for compare in (lambda: s < x, lambda: s <= x, lambda: s > x,
                            lambda: s >= x, lambda: x <= s, lambda: x >= s):
                with pytest.raises(TypeError):
                    compare()

    def test_sign_with_both_parts_nonzero(self):
        # a + b s with a, b != 0 at s^2 = 2: the sign weighs a^2 against
        # 2 b^2 when a and b differ in sign
        cases = {(1, 1): 1, (-1, -1): -1, (2, -1): 1, (1, -2): -1,
                 (-2, 1): -1, (-1, 2): 1}
        for (a, b), want in cases.items():
            x = SNum(a, b, 2)
            assert x.sign() == want == mpmath.sign(scalars.to_mpf(x)), (a, b)

    def test_float_operand_raises(self):
        # every operator hands a float back as NotImplemented, so Python
        # raises TypeError rather than mixing exact and float values
        x = SNum(1, 1, 2)
        for mixed in (lambda: x + 0.5, lambda: 0.5 + x, lambda: x - 0.5,
                      lambda: 0.5 - x, lambda: x * 0.5, lambda: 0.5 * x,
                      lambda: x / 0.5, lambda: 0.5 / x, lambda: x < 0.5,
                      lambda: 0.5 < x):
            with pytest.raises(TypeError):
                mixed()

    def test_orderings_agree_with_the_sign(self):
        s = SNum(0, 1, F(1, 3))  # 0.577...
        for other, below in ((1, True), (F(1, 2), False), (SNum(1, -1, F(1, 3)), False)):
            assert (s < other, s <= other, s > other, s >= other) \
                == (below, below, not below, not below)
        assert s <= s and s >= s and not s < s and not s > s

    def test_mixing_fields_raises(self):
        x, y = SNum(1, 2, F(1, 3)), SNum(1, 2, F(2, 3))
        for mixed in (lambda: x + y, lambda: x - y, lambda: x * y,
                      lambda: x / y):
            with pytest.raises(ValueError, match="incompatible"):
                mixed()

    def test_repr_text(self):
        s = F(1, 3)
        assert [repr(x) for x in (SNum(F(1, 2), F(3, 4), s), SNum(0, F(-3, 4), s),
                                  SNum(F(1, 2), F(-3, 4), s), SNum(F(5, 7)))] \
            == ["SNum(1/2+3/4@s)", "SNum(-3/4@s)", "SNum(1/2-3/4@s)",
                "SNum(5/7)"]
