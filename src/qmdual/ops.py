"""The one sparse exact matrix type behind every generator, kernel and
quantum-group operator.

A `SparseMatrix` stores {row: {col: value}} over its stored entries plus a
shape (rows, cols).  Entry (r, c) is addressed as in an ndarray, but an
index outside the shape, a negative one included, raises IndexError.  An
absent entry reads as the exact zero int 0, which mixes with every scalar
backend (a Fraction zero cannot divide by an mpf).  Products and sums drop
the entries that come out as an exact zero (int, Fraction or SNum), so a
weight-graded product stays as sparse as its factors.  An inexact zero,
such as an mpf 0 left by cancellation on the float backend, stays stored:
a float residual must never read as an exact one.

Interop with numpy object arrays:
- `op @ op` is a SparseMatrix; `op @ a` and `a @ op`, for an ndarray `a`,
  are ndarrays of scalars built from the stored entries alone.  The exact
  zeros of `a` are skipped like absent entries, so a product with a
  diagonal makes one multiplication per stored entry; an inexact entry of
  `a`, an mpf 0 included, is always multiplied, so a float product never
  reads as an exact one.  An entry that no product reaches is the int 0;
- `toarray` is the only densifier, and `__array__` delegates to it, so that
  `np.asarray`, `np.kron` and `np.diag` see the dense matrix.

`__array_ufunc__ = None` makes every ndarray operator return NotImplemented
for a SparseMatrix operand.  Without it, `a @ op` would densify `op` through
`__array__` and run a dense object product; with it, Python falls back to
`__rmatmul__`, and a mixed `+`, `-` or elementwise `*` raises TypeError
instead of densifying in silence.
"""

import math

import numpy as np

from .scalars import is_exact

ZERO = 0


def _kept(row):
    """The row without its exact zeros."""
    return {c: v for c, v in row.items() if v or not is_exact(v)}


def _product(arows, brows):
    """(r, {c: sum_k a[r][k] b[k][c]}) over the stored entries alone, for
    each row r of a that meets a stored entry of b; sums run in k order and
    keep the entries that cancel."""
    for r, arow in arows.items():
        acc = {}
        for k, a in arow.items():
            for c, b in brows.get(k, {}).items():
                acc[c] = acc[c] + a * b if c in acc else a * b
        if acc:
            yield r, acc


class SparseMatrix:
    """Exact matrix of a given shape, stored as {row: {col: value}}."""

    __slots__ = ("rows", "shape")
    __array_ufunc__ = None

    def __init__(self, rows, shape):
        self.rows = rows
        self.shape = tuple(shape)

    @classmethod
    def diag(cls, values):
        values = list(values)
        return cls({k: {k: v} for k, v in enumerate(values)},
                   (len(values), len(values)))

    @property
    def size(self):
        return self.shape[0] * self.shape[1]

    @property
    def T(self):
        out = {}
        for r, row in self.rows.items():
            for c, v in row.items():
                out.setdefault(c, {})[r] = v
        return SparseMatrix(out, self.shape[::-1])

    @property
    def flat(self):
        """Every entry in row-major order, absent ones as exact zeros."""
        ncols = self.shape[1]
        return (row.get(c, ZERO)
                for row in (self.rows.get(r, {}) for r in range(self.shape[0]))
                for c in range(ncols))

    def __getitem__(self, key):
        """[r, c] is one entry; [r] is row r as a dense ndarray."""
        if isinstance(key, tuple):
            r, c = key
            if not (0 <= r < self.shape[0] and 0 <= c < self.shape[1]):
                raise IndexError("entry %r out of range for shape %s"
                                 % (key, self.shape))
            return self.rows.get(r, {}).get(c, ZERO)
        if not 0 <= key < self.shape[0]:
            raise IndexError("row %r out of range for %d rows"
                             % (key, self.shape[0]))
        out = np.full(self.shape[1], ZERO, dtype=object)
        for c, v in self.rows.get(key, {}).items():
            out[c] = v
        return out

    def _inner(self, nrows):
        if self.shape[1] != nrows:
            raise ValueError("shapes %s and (%d, ...) do not multiply"
                             % (self.shape, nrows))

    def __matmul__(self, other):
        if isinstance(other, SparseMatrix):
            self._inner(other.shape[0])
            out = {}
            for r, acc in _product(self.rows, other.rows):
                acc = _kept(acc)
                if acc:
                    out[r] = acc
            return SparseMatrix(out, (self.shape[0], other.shape[1]))
        if isinstance(other, np.ndarray):
            self._inner(other.shape[0])
            # one path for every ndim: the trailing axes flatten to columns
            flat = other.reshape(other.shape[0], math.prod(other.shape[1:]))
            brows = {k: {c: v for c, v in enumerate(row)
                         if v or not is_exact(v)}
                     for k, row in enumerate(flat.tolist())}
            out = np.full((self.shape[0], flat.shape[1]), ZERO, dtype=object)
            for r, acc in _product(self.rows, brows):
                for c, v in acc.items():
                    out[r, c] = v
            return out.reshape(self.shape[:1] + other.shape[1:])
        return NotImplemented

    def __rmatmul__(self, other):
        if not isinstance(other, np.ndarray):
            return NotImplemented
        return (self.T @ other.T).T

    def _plus(self, other, sign):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if other.shape != self.shape:
            raise ValueError("shapes %s and %s do not add"
                             % (self.shape, other.shape))
        out = {r: dict(row) for r, row in self.rows.items()}
        for r, brow in other.rows.items():
            acc = out.setdefault(r, {})
            for c, v in brow.items():
                acc[c] = acc[c] + sign * v if c in acc else sign * v
        out = {r: _kept(row) for r, row in out.items()}
        return SparseMatrix({r: row for r, row in out.items() if row},
                            self.shape)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, w):
        """Scalar multiple; a matrix operand is refused."""
        if isinstance(w, (SparseMatrix, np.ndarray)):
            return NotImplemented
        return SparseMatrix({r: {c: w * v for c, v in row.items()}
                             for r, row in self.rows.items()}, self.shape)

    __rmul__ = __mul__

    def scaled(self, row, col):
        """diag(row) A diag(col), with row and col sequences of scalars."""
        return SparseMatrix({r: {c: row[r] * v * col[c] for c, v in arow.items()}
                             for r, arow in self.rows.items()}, self.shape)

    def column_sums(self):
        """Exact sum of each column over its stored entries, rows in order."""
        sums = [0] * self.shape[1]
        for r in sorted(self.rows):
            for c, v in self.rows[r].items():
                sums[c] = sums[c] + v
        return sums

    def toarray(self):
        out = np.full(self.shape, ZERO, dtype=object)
        for r, row in self.rows.items():
            for c, v in row.items():
                out[r, c] = v
        return out

    def __array__(self, dtype=None, copy=None):
        out = self.toarray()
        return out if dtype is None else out.astype(dtype, copy=False)
