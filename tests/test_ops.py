"""The sparse exact matrix type against dense object-ndarray oracles."""

import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from qmdual import ops
from qmdual.errors import DomainError
from qmdual.ops import SparseMatrix
from qmdual.scalars import SNum, is_exact

F = Fraction
SBASE = F(1, 3)  # s^2 of the SNum entries

SEEDS = [0, 1]
# "mixed" draws each entry's type from Fraction, SNum (on one field) and int
KINDS = ["fraction", "snum", "int", "mixed"]
# (n, m): the residual P^T D - D Q with P n x n, D n x m and Q m x m; the
# rectangular case is the shape of the zero-range kernel duality
SHAPES = [(7, 7), (36, 18)]


def dense_random(rng, shape, kind, density=0.3):
    """Object ndarray with exact Fraction zeros and random nonzero entries."""
    M = np.full(shape, F(0), dtype=object)
    for r in range(shape[0]):
        for c in range(shape[1]):
            if rng.random() < density:
                entry = kind
                if kind == "mixed":
                    entry = rng.choice(["fraction", "snum", "int"])
                a = F(rng.randint(-9, 9), rng.randint(1, 9))
                if entry == "snum":
                    b = F(rng.randint(1, 9), rng.randint(1, 9))
                    a = SNum(a, b, SBASE)
                elif entry == "int":
                    a = rng.randint(-9, 9)
                M[r, c] = a or (1 if entry == "int" else F(1))
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


def typed(M):
    """{(r, c): (type, value)} over the stored entries of a SparseMatrix."""
    return {(r, c): (type(v), v) for r, row in M.rows.items()
            for c, v in row.items()}


def column_sums_oracle(op):
    """Each column summed entry by entry from the int 0, rows in order: one
    reduction per entry, with the type of the sequential sum."""
    sums = [0] * op.shape[1]
    for r in sorted(op.rows):
        for c, v in op.rows[r].items():
            sums[c] = sums[c] + v
    return sums


def assert_same_typed(got, want):
    """Equal lists of scalars, entry by entry in type and repr."""
    assert [(type(v), repr(v)) for v in got] \
        == [(type(v), repr(v)) for v in want]


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

    def test_scalar_multiple_keeps_entry_types(self, n, m, seed, kind):
        # w * op forms w * v per stored entry: the values and entry types
        # of op.scaled([w] * n, [1] * m), on either side of the product;
        # test_add_sub_and_scalar_multiples checks that op - op is empty
        _, D, _, _, _ = triple(seed, kind, n, m)
        op = sparse(D)
        for w in (3, F(-2, 3), SNum(F(1, 2), F(3, 4), SBASE)):
            want = typed(op.scaled([w] * n, [1] * m))
            assert typed(w * op) == want and typed(op * w) == want, w

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
        got = sparse(D).column_sums()
        assert got == [sum(D[:, c]) for c in range(m)]
        assert_same_typed(got, column_sums_oracle(sparse(D)))

    def test_reads(self, n, m, seed, kind):
        _, D, _, _, _ = triple(seed, kind, n, m)
        op = sparse(D)
        assert op.size == D.size and op.shape == D.shape
        for r in range(n):
            row = op[r]
            assert type(row) is list and len(row) == m
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


def test_cancelled_entries_are_not_stored():
    A = SparseMatrix({0: {0: F(1), 1: F(1)}}, (1, 2))
    B = SparseMatrix({0: {0: F(1)}, 1: {0: F(-1)}}, (2, 1))
    for R in (A @ B, A - A):
        assert R.rows == {}
        assert all(is_exact(v) and v == 0 for v in R.flat)


def test_difference_of_ints_stays_int():
    # a - v where both store an entry, -v where only the right one does
    A = SparseMatrix({0: {0: 5, 1: 2}}, (2, 2))
    B = SparseMatrix({0: {0: 3}, 1: {1: 4}}, (2, 2))
    assert typed(A - B) == {(0, 0): (int, 2), (0, 1): (int, 2),
                            (1, 1): (int, -4)}
    assert typed(B - A) == {(0, 0): (int, -2), (0, 1): (int, -2),
                            (1, 1): (int, 4)}


@pytest.mark.parametrize("zero", [0, F(0), SNum(0)])
def test_scalar_multiples_and_scaling_store_no_exact_zero(zero):
    op = SparseMatrix({0: {0: F(1, 2), 1: SNum(1, 2, SBASE)}, 1: {1: F(3)}}, (2, 2))
    assert (op * zero).rows == {} and (zero * op).rows == {}
    # a zero on the diagonal clears its row (left) or column (right) only
    assert op.scaled([zero, 1], [1, 1]).rows == {1: {1: F(3)}}
    assert op.scaled([1, 1], [1, zero]).rows == {0: {0: F(1, 2)}}
    # and so does a diagonal: its zero rows are empty, not stored zeros
    D = SparseMatrix.diag([zero, F(1)])
    assert D.rows == {1: {1: F(1)}} and D.shape == (2, 2)
    assert (D @ D).rows == D.rows and D[0, 0] == 0


# every entry is an int, a Fraction or an SNum: anything else is refused where
# it enters, a float 0 included, so no product, sum or scaling can hold a
# float.  Validation raises, never asserts, so these hold under python -O,
# where CI runs the suite again
_OP = SparseMatrix({0: {0: F(1, 2)}, 1: {1: SNum(1, 2, SBASE)}}, (2, 2))


def _with(value):
    """A 2 x 2 object ndarray of exact entries and one value at (0, 0)."""
    A = np.array([[F(0), F(1)], [2, F(0)]], dtype=object)
    A[0, 0] = value
    return A


class FractionChild(Fraction):
    pass


INPUT_CHECKS = {
    "constructor, float entry": lambda: SparseMatrix({0: {0: 0.5}}, (1, 1)),
    "constructor, float 0": lambda: SparseMatrix({0: {1: 0.0}}, (1, 2)),
    "constructor, mpf entry":
        lambda: SparseMatrix({0: {0: F(1)}, 1: {0: mpmath.mpf(1)}}, (2, 1)),
    "constructor, bool entry": lambda: SparseMatrix({0: {0: True}}, (1, 1)),
    "constructor, Fraction subclass":
        lambda: SparseMatrix({0: {0: FractionChild(1, 3)}}, (1, 1)),
    "diagonal, float": lambda: SparseMatrix.diag([F(1), 0.25]),
    "diagonal, float 0": lambda: SparseMatrix.diag([0.0, F(1)]),
    "scalar multiple, float": lambda: 0.5 * _OP,
    "scalar multiple, float 0": lambda: 0.0 * _OP,
    "scalar multiple, mpf 0 on the right": lambda: _OP * mpmath.mpf(0),
    "scaled, float row": lambda: _OP.scaled([0.5, 1], [1, 1]),
    "scaled, float 0 column": lambda: _OP.scaled([1, 1], [F(1), 0.0]),
    "scaled, mpf column": lambda: _OP.scaled([1, 1], [1, mpmath.mpf(2)]),
    "op @ ndarray, float 0": lambda: _OP @ _with(0.0),
    "ndarray @ op, float 0": lambda: _with(0.0) @ _OP,
    "op @ ndarray, mpf 0": lambda: _OP @ _with(mpmath.mpf(0)),
    "ndarray @ op, mpf entry": lambda: _with(mpmath.mpf(2)) @ _OP,
    "op @ vector, float 0":
        lambda: _OP @ np.array([0.0, F(1)], dtype=object),
    "op @ float64 array": lambda: _OP @ np.zeros((2, 2)),
}


@pytest.mark.parametrize("name", sorted(INPUT_CHECKS))
def test_input_check_raises(name):
    with pytest.raises(DomainError, match="is not exact"):
        INPUT_CHECKS[name]()


def test_exact_ndarray_operands_of_any_dtype_multiply():
    # an int64 array lists as Python ints, so it passes the entry check
    want = np.asarray(_OP) @ np.array([[1, 2], [3, 4]], dtype=object)
    assert_same(_OP @ np.array([[1, 2], [3, 4]]), want)
    assert_same(_OP @ np.identity(2, dtype=object), _OP)


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


def test_product_with_a_diagonal_multiplies_stored_entries_only(monkeypatch):
    # op @ diag(v) forms nnz(op) terms in the kernel's k-loop, not
    # nnz(op) * cols
    terms = []
    loop = ops._loop

    def counted(arows, brows):
        terms.append(sum(len(brows.get(k, {}))
                         for arow in arows.values() for k in arow))
        return loop(arows, brows)

    monkeypatch.setattr(ops, "_loop", counted)
    n = 24
    rng = random.Random(3)
    rows = {}
    for r in range(n):
        for c in rng.sample(range(n), 5):
            rows.setdefault(r, {})[c] = F(rng.randint(1, 9), rng.randint(1, 9))
    op = SparseMatrix(rows, (n, n))
    nnz = sum(len(row) for row in rows.values())
    W = diagonal([F(k + 1, 2) for k in range(n)])
    dense = np.asarray(op)
    for product, want in ((lambda: op @ W, dense @ W), (lambda: W @ op, W @ dense)):
        terms.clear()
        got = product()
        assert terms == [nnz]
        assert_same(got, want)


# -- the integer kernel of exact products ---------------------------------------------

def entries(sums):
    """Every (r, c, type, repr) of a product's sums, in their order."""
    return [(r, c, type(v), repr(v)) for r, acc in sums for c, v in acc.items()]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n,m", SHAPES)
def test_kernel_matches_the_per_entry_loop(n, m, kind):
    # the lifted sums give the values and order of the per-entry loop, each
    # of the top entry type of the two operands: an int where only ints
    # meet and an SNum where any SNum does.  With operands of one type, the
    # types and reprs are the loop's as well
    P, D, Q, _, _ = triple(0, kind, n, m)
    for a, b in ((sparse(P).T, sparse(D)), (sparse(D), sparse(Q)),
                 (sparse(D).T, sparse(D))):
        top = max((type(v) for M in (a, b) for row in M.rows.values()
                   for v in row.values()), key=ops._RANK.get)
        got = list(ops._product(a.rows, b.rows))
        want = list(ops._loop(a.rows, b.rows))
        assert got == want
        assert {t for _, _, t, _ in entries(got)} == {top}
        if kind != "mixed":
            assert entries(got) == entries(want)


def test_all_int_operands_give_int_entries():
    P, D, _, _, _ = triple(0, "int", 36, 18)
    for got in ((sparse(P).T @ sparse(D)).flat, (sparse(P).T @ D).flat):
        assert all(type(v) is int for v in got)


def test_two_fields_in_one_product_raise():
    A = SparseMatrix({0: {0: SNum(1, 1, F(1, 3))}}, (1, 1))
    B = SparseMatrix({0: {0: SNum(1, 1, F(1, 2))}}, (1, 1))
    with pytest.raises(ValueError):
        A @ B
    with pytest.raises(ValueError):
        A @ np.asarray(B)


def test_mixed_operands_give_the_top_type():
    # every entry of a product has the top entry type of its two operands,
    # whatever the types of the terms of its sum
    s = SNum(0, 1, F(1, 3))
    A = SparseMatrix({0: {0: 2, 1: F(1, 2)}, 1: {0: s}}, (2, 2))
    ints = SparseMatrix({0: {0: 3}, 1: {1: 5}}, (2, 2))
    B = SparseMatrix({0: {0: 3}, 1: {0: F(1, 3)}}, (2, 1))
    for left, right, top in ((A, B, SNum), (ints, B, F), (ints, ints, int),
                             (B.T, ints, F)):
        got = left @ right
        assert {type(v) for row in got.rows.values() for v in row.values()} \
            == {top}
        assert_same(got, np.asarray(left) @ np.asarray(right))
    # row 0 of A @ B sums int and Fraction terms only, yet is an SNum
    assert (A @ B).rows[0][0] == SNum(F(37, 6)) and (A @ B)[1, 0] == 3 * s


def test_one_reduction_per_entry(monkeypatch):
    # one Fraction per sum that a term reaches, cancelled or not
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(ops, "Fraction", counted)
    P, D, _, PtD, _ = triple(0, "fraction", 36, 18)
    a, b = sparse(P).T, sparse(D)
    reached = {(r, c) for r, row in a.rows.items() for k in row
               for c in b.rows.get(k, {})}
    got = a @ b
    assert len(built) == len(reached)
    assert_same(got, PtD)


S2 = SNum(0, 1, 2)  # s^2 = 2
# column sums against the sequential oracle: {name: (rows, shape)}
COLUMN_CASES = {
    "int": ({0: {0: 3, 1: -2}, 2: {0: 5, 1: 2}}, (3, 2)),
    "fraction": ({0: {0: F(1, 2), 1: F(2, 3)}, 1: {0: F(1, 6), 1: F(-2, 3)}},
                 (2, 2)),
    # an integral sum of Fractions stays a Fraction
    "integral fraction": ({0: {0: F(3)}, 1: {0: F(1, 2)}, 2: {0: F(-1, 2)}},
                          (3, 1)),
    "snum": ({0: {0: SNum(F(1, 2), F(1, 3), 2)}, 1: {0: SNum(1, -1, 2)}},
             (2, 1)),
    # the s-parts cancel: an SNum without a field
    "snum, s-parts cancel": ({0: {0: S2}, 1: {0: -S2}, 2: {0: SNum(1)}},
                             (3, 1)),
    "mixed column": ({0: {0: 2}, 1: {0: F(1, 3)}, 2: {0: S2}}, (3, 1)),
    "mixed columns": ({0: {0: 2, 1: F(1, 3), 2: S2},
                       1: {0: 4, 1: F(2, 3), 2: SNum(F(1, 2))}}, (2, 4)),
    "empty": ({}, (2, 3)),
    "one field per column": ({0: {0: S2, 1: SNum(0, 1, 3)},
                              1: {0: S2, 1: SNum(1, 1, 3)}}, (2, 2)),
}


@pytest.mark.parametrize("name", sorted(COLUMN_CASES))
def test_column_sums_match_sequential_sums(name):
    rows, shape = COLUMN_CASES[name]
    op = SparseMatrix(rows, shape)
    assert_same_typed(op.column_sums(), column_sums_oracle(op))


def test_column_sums_refuse_two_fields_in_a_column():
    op = SparseMatrix({0: {0: S2}, 1: {0: SNum(0, 1, 3)}}, (2, 1))
    with pytest.raises(ValueError, match="s-fields"):
        op.column_sums()
    with pytest.raises(ValueError, match="s-fields"):
        column_sums_oracle(op)


def test_one_reduction_per_column(monkeypatch):
    # one Fraction per nonempty Fraction column, whatever its length
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(ops, "Fraction", counted)
    _, D, _, _, _ = triple(0, "fraction", 36, 18)
    got = sparse(D).column_sums()
    assert len(built) == sum(1 for c in range(18) if any(D[:, c]))
    assert got == [sum(D[:, c]) for c in range(18)]
