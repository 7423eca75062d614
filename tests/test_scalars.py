"""The scalar backends: the one square root, and the precision contract."""

import os
import subprocess
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest

from qmdual import scalars
from qmdual.errors import DomainError
from qmdual.scalars import SNum, field_base, sqrt


class TestSqrt:
    def test_negative_radicand_raises(self):
        s = SNum(0, 1, F(1, 3))
        for x in (F(-1, 4), -3, 1 - 2 * s, mpmath.mpf(-2)):
            with pytest.raises(DomainError, match="negative radicand"):
                sqrt(x, F(1, 3))

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
            # 4/3 = (2 s)^2 and 4/3 + 2 s = (1 + s)^2
            assert sqrt(F(4, 3), field_base(q)) == 2 * s
            assert sqrt((1 + s) ** 2, field_base(q)) == 1 + s
            assert sqrt(F(4, 3), field_base(s)) == 2 * s

    def test_non_square_warns_and_falls_back(self):
        with pytest.warns(UserWarning, match=r"Fraction\(2, 1\).*falling back"):
            root = sqrt(F(2), F(1, 3))
        assert isinstance(root, mpmath.mpf)
        assert root == mpmath.sqrt(2)

    def test_float_radicand_stays_float_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            root = sqrt(mpmath.mpf(2))
        assert root == mpmath.sqrt(2)


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
