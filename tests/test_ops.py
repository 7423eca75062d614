"""The sparse exact matrix type against dense object-ndarray oracles."""

import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from qmdual.ops import SparseMatrix
from qmdual.scalars import SNum, is_exact

F = Fraction
SBASE = F(1, 3)  # s^2 of the SNum entries

SEEDS = [0, 1]
KINDS = ["fraction", "snum"]
# (n, m): the residual P^T D - D Q with P n x n, D n x m and Q m x m; the
# rectangular case is the shape of the zero-range kernel duality
SHAPES = [(7, 7), (36, 18)]


def dense_random(rng, shape, kind, density=0.3):
    """Object ndarray with exact Fraction zeros and random nonzero entries."""
    M = np.full(shape, F(0), dtype=object)
    for r in range(shape[0]):
        for c in range(shape[1]):
            if rng.random() < density:
                a = F(rng.randint(-9, 9), rng.randint(1, 9))
                if kind == "snum":
                    b = F(rng.randint(1, 9), rng.randint(1, 9))
                    a = SNum(a, b, SBASE)
                M[r, c] = a or F(1)
    return M


def sparse(M):
    """The SparseMatrix of a dense matrix, over its nonzero entries."""
    rows = {r: {c: v for c, v in enumerate(row) if v} for r, row in enumerate(M)}
    return SparseMatrix({r: row for r, row in rows.items() if row}, M.shape)


def assert_same(got, want):
    """Same shape and the same value at every (r, c); got may be either type."""
    assert got.shape == want.shape
    for r in range(want.shape[0]):
        for c in range(want.shape[1]):
            assert got[r, c] == want[r, c], (r, c, got[r, c], want[r, c])


def assert_scalar_array(R):
    assert isinstance(R, np.ndarray) and R.dtype == object
    assert all(is_exact(v) for v in R.flat), "entries must be scalars"


@lru_cache(maxsize=None)
def triple(seed, kind, n, m):
    """P, D, Q and the dense products P^T D and D Q; computed once, since
    the dense SNum products dominate the cost of these tests."""
    rng = random.Random(seed)
    P, D, Q = (dense_random(rng, shape, kind)
               for shape in ((n, n), (n, m), (m, m)))
    return P, D, Q, P.T @ D, D @ Q


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,m", SHAPES)
class TestAgainstDense:
    def test_transpose(self, n, m, seed, kind):
        _, D, _, _, _ = triple(seed, kind, n, m)
        T = sparse(D).T
        assert isinstance(T, SparseMatrix)
        assert_same(T, D.T)

    def test_matmul_op_op(self, n, m, seed, kind):
        P, D, Q, PtD, DQ = triple(seed, kind, n, m)
        got = sparse(P).T @ sparse(D) - sparse(D) @ sparse(Q)
        assert isinstance(got, SparseMatrix)
        assert_same(got, PtD - DQ)

    def test_matmul_op_ndarray(self, n, m, seed, kind):
        P, D, _, PtD, _ = triple(seed, kind, n, m)
        got = sparse(P).T @ D
        assert_scalar_array(got)
        assert_same(got, PtD)

    def test_matmul_ndarray_op(self, n, m, seed, kind):
        _, D, Q, _, DQ = triple(seed, kind, n, m)
        got = D @ sparse(Q)
        assert_scalar_array(got)
        assert_same(got, DQ)

    def test_add_sub_and_scalar_multiples(self, n, m, seed, kind):
        _, D, _, _, _ = triple(seed, kind, n, m)
        E = dense_random(random.Random(seed + 100), (n, m), kind)
        w = F(-2, 3)
        assert_same(sparse(D) + sparse(E), D + E)
        assert_same(sparse(D) - sparse(E), D - E)
        assert_same(w * sparse(D), w * D)
        assert_same(sparse(D) * w, D * w)
        s = SNum(F(1, 2), F(3, 4), SBASE)
        assert_same(s * sparse(D), D * s)
        # D - D stores nothing: every entry cancels to an exact zero
        assert (sparse(D) - sparse(D)).rows == {}

    def test_scaled(self, n, m, seed, kind):
        _, D, _, _, _ = triple(seed, kind, n, m)
        rng = random.Random(seed + 200)
        row = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        col = [F(rng.randint(-9, -1), rng.randint(1, 9)) for _ in range(m)]
        # diag(row) D diag(col), entrywise
        want = (np.array(row, dtype=object)[:, None] * D
                * np.array(col, dtype=object)[None, :])
        assert_same(sparse(D).scaled(row, col), want)

    def test_column_sums(self, n, m, seed, kind):
        _, D, _, _, _ = triple(seed, kind, n, m)
        assert sparse(D).column_sums() == [sum(D[:, c]) for c in range(m)]

    def test_reads(self, n, m, seed, kind):
        _, D, _, _, _ = triple(seed, kind, n, m)
        op = sparse(D)
        assert op.size == D.size and op.shape == D.shape
        for r in range(n):
            row = op[r]
            assert isinstance(row, np.ndarray) and row.shape == (m,)
            for c in range(m):
                assert op[r, c] == row[c] == D[r][c]
        assert list(op.flat) == list(D.flat)
        dense = np.asarray(op)
        assert dense.dtype == object and dense.shape == D.shape
        assert_same(dense, D)
        # absent entries read as exact zeros
        assert all(is_exact(v) for v in op.flat)
        with pytest.raises(IndexError):
            op[n]


def test_ndarray_matmul_defers_to_the_class(monkeypatch):
    # ndarray @ op must reach __rmatmul__ and never densify op; without
    # __array_ufunc__ = None numpy would call __array__ (here: raise)
    P, D, Q, want_right, want_left = triple(0, "snum", 36, 18)
    op_q, op_pt = sparse(Q), sparse(P).T

    def densify(self):
        raise AssertionError("an ndarray product densified the operator")

    monkeypatch.setattr(SparseMatrix, "toarray", densify)
    left = D @ op_q
    right = op_pt @ D
    for got, want in ((left, want_left), (right, want_right)):
        assert_scalar_array(got)
        assert not any(isinstance(v, SparseMatrix) for v in got.flat)
        assert_same(got, want)


def test_entry_outside_the_shape_raises():
    # no entry outside the shape reads as 0, a negative index included
    op = SparseMatrix({0: {1: Fraction(3)}}, (2, 2))
    assert op[0, 1] == 3 and op[1, 1] == 0
    for key in ((5, 5), (-1, 0), (0, -1), (2, 0), (0, 2)):
        with pytest.raises(IndexError):
            op[key]
    with pytest.raises(IndexError):
        op[-1]


def test_mixed_elementwise_operators_refuse():
    D = dense_random(random.Random(4), (3, 3), "fraction")
    op = sparse(D)
    for mixed in (lambda: op + D, lambda: D + op, lambda: D - op,
                  lambda: op * D, lambda: D * op):
        with pytest.raises(TypeError):
            mixed()


def test_shape_mismatch_raises():
    A = SparseMatrix({}, (2, 3))
    with pytest.raises(ValueError):
        A @ SparseMatrix({}, (2, 3))
    with pytest.raises(ValueError):
        A @ np.zeros((2, 2), dtype=object)
    with pytest.raises(ValueError):
        A + SparseMatrix({}, (3, 2))


def test_inexact_zero_stays_stored():
    # a float product that cancels to 0 is a residual, not an exact zero
    one = mpmath.mpf(1)
    A = SparseMatrix({0: {0: one, 1: one}}, (1, 2))
    B = SparseMatrix({0: {0: one}, 1: {0: -one}}, (2, 1))
    for R in (A @ B, A - A):
        assert R.rows, "the computed mpf zero must stay stored"
        flat = list(R.flat)
        assert all(v == 0 for v in flat)
        assert not any(is_exact(v) for v in flat)
    # the same products over exact scalars store nothing
    Ae = SparseMatrix({0: {0: F(1), 1: F(1)}}, (1, 2))
    Be = SparseMatrix({0: {0: F(1)}, 1: {0: F(-1)}}, (2, 1))
    for R in (Ae @ Be, Ae - Ae):
        assert R.rows == {}
        assert all(is_exact(v) and v == 0 for v in R.flat)


# -- ndarray operands full of exact zeros -------------------------------------------

def diagonal(values):
    """Dense diagonal with exact Fraction zeros off the diagonal."""
    M = np.full((len(values), len(values)), F(0), dtype=object)
    for k, v in enumerate(values):
        M[k, k] = v
    return M


@pytest.mark.parametrize("kind", KINDS)
def test_sandwich_with_a_diagonal_matches_dense(kind):
    # D^T diag(w) D on 36 x 36, the shape of the algebraic orthogonality
    # check: 35 of every 36 entries of the diagonal are exact zeros
    P, _, _, _, _ = triple(0, kind, 36, 18)
    rng = random.Random(7)
    W = diagonal([F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(36)])
    op = sparse(P)
    want = P.T @ W @ P
    for got in (op.T @ W @ op, (op.T @ W) @ op, op.T @ (W @ op)):
        assert_scalar_array(got)
        assert_same(got, want)
    assert_same(op @ W, P @ W)
    assert_same(W @ op, W @ P)


@pytest.mark.parametrize("kind", KINDS)
def test_one_dimensional_operand(kind):
    P, _, _, _, _ = triple(1, kind, 7, 7)
    v = np.array([F(0), F(2, 3), F(0), F(0), F(-1), F(0), F(5)], dtype=object)
    op = sparse(P)
    for got, want in ((op @ v, P @ v), (v @ op, v @ P)):
        assert isinstance(got, np.ndarray) and got.shape == (7,)
        assert all(g == w for g, w in zip(got, want))
    zeros = np.full(7, F(0), dtype=object)
    assert all(is_exact(g) and g == 0 for g in op @ zeros)


def test_inexact_entries_of_an_ndarray_stay_inexact():
    # an mpf 0 is multiplied like any float: the product is a float zero,
    # never the exact zero that an absent or exact-zero entry gives
    zero, two = mpmath.mpf(0), mpmath.mpf(2)
    op = SparseMatrix({0: {0: F(1, 2)}, 1: {1: F(3)}}, (2, 2))
    A = np.array([[zero, F(0)], [F(0), two]], dtype=object)
    for got, want in ((op @ A, np.asarray(op) @ A), (A @ op, A @ np.asarray(op))):
        assert_same(got, want)
        assert not is_exact(got[0, 0]) and got[0, 0] == 0
        assert is_exact(got[0, 1]) and is_exact(got[1, 0])
        assert not is_exact(got[1, 1]) and got[1, 1] == 6
    v = np.array([zero, F(0)], dtype=object)
    got = op @ v
    assert not is_exact(got[0]) and got[0] == 0 and is_exact(got[1])


class Counted(Fraction):
    """A Fraction that counts the scalar products it is the left factor of;
    a product with an ndarray goes elementwise, one count per element."""

    products = 0

    def __mul__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        Counted.products += 1
        return Fraction.__mul__(self, other)


def test_product_with_a_diagonal_multiplies_stored_entries_only():
    # op @ diag(v) costs nnz(op) products, not nnz(op) * cols
    n = 24
    rng = random.Random(3)
    rows = {}
    for r in range(n):
        for c in rng.sample(range(n), 5):
            rows.setdefault(r, {})[c] = Counted(rng.randint(1, 9), rng.randint(1, 9))
    op = SparseMatrix(rows, (n, n))
    nnz = sum(len(row) for row in rows.values())
    W = diagonal([F(k + 1, 2) for k in range(n)])
    dense = np.asarray(op)
    for product, want in ((lambda: op @ W, dense @ W), (lambda: W @ op, W @ dense)):
        Counted.products = 0
        got = product()
        assert Counted.products == nnz
        assert_same(got, want)
