"""The one sparse exact matrix type behind every generator, kernel and
quantum-group operator.

A `SparseMatrix` stores {row: {col: value}} over its stored entries plus a
shape (rows, cols).  Every entry is an int, a Fraction or an SNum; any
other value, a float 0 included, raises `DomainError` (`scalars.check_types`)
as an entry, as an entry of an ndarray operand of `@`, or as a scalar of
`*`, `scaled` or `diag`.
Entry (r, c) is addressed as in an ndarray, but an index outside the shape,
a negative one included, raises IndexError.  An absent entry reads as the
exact zero int 0, which mixes with every entry type.  Products, sums,
scalar multiples, `scaled` and `diag` store no zero entry, so a
weight-graded product stays as sparse as its factors.  `w * op` forms
w * v once per stored entry v; `a - b` forms a - v where both store an
entry and -v where only b does, so an int minus an int stays an int.

Products and column sums run on Python ints: the rows of the left operand
and the columns of the right one are lifted by the lcm of their
denominators and the sparse k-loop sums int products; a column sum lifts
each entry as it adds it, over the lcm of the column so far; and each sum
is reduced once.  An SNum a + b*s
enters as its two rational parts.  Each entry of a product has the top
entry type (int < Fraction < SNum) of its two operands, and each column sum
the top type of its column.

Interop with numpy object arrays:
- `op @ op` is a SparseMatrix; `op @ a` and `a @ op`, for an ndarray `a`,
  are ndarrays of scalars built from the stored entries alone.  The zeros
  of `a` are skipped like absent entries, so a product with a diagonal
  forms one term per stored entry; an entry no product reaches is the int 0;
- `op[r]` is row r as a list of its entries, not an ndarray;
- `toarray` is the only densifier, and `__array__` delegates to it, so that
  `np.asarray`, `np.kron` and `np.diag` see the dense matrix.

`__array_ufunc__ = None` makes every ndarray operator return NotImplemented
for a SparseMatrix operand.  Without it, `a @ op` would densify `op` through
`__array__` and run a dense object product; with it, Python falls back to
`__rmatmul__`, and a mixed `+`, `-` or elementwise `*` raises TypeError
instead of densifying in silence.
"""

import math
from fractions import Fraction

import numpy as np

from .scalars import SNum, check_types

# the exact entry types by rank: a product has the type of its top factor
_RANK = {int: 0, Fraction: 1, SNum: 2}


def _sparse(rows):
    """The rows without their zeros, and without the rows left empty."""
    rows = {r: {c: v for c, v in row.items() if v} for r, row in rows.items()}
    return {r: row for r, row in rows.items() if row}


def _loop(arows, brows):
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


def _lift(rows, axis):
    """(top rank, s-fields, lcms, a, b) of rows of entries a + b*s: a and b
    hold the parts times the lcm of the part denominators of their row
    (axis 0) or column (axis 1), as ints, b without its zeros."""
    types = {type(v) for row in rows.values() for v in row.values()}
    parts, fields = [rows, {}], set()
    if SNum in types:
        parts = [{r: {c: v.a if type(v) is SNum else v for c, v in row.items()}
                  for r, row in rows.items()},
                 {r: {c: v.b for c, v in row.items() if type(v) is SNum and v.b}
                  for r, row in rows.items()}]
        fields = {v.sbase for row in rows.values() for v in row.values()
                  if type(v) is SNum and v.b}
    lcms = {}
    for part in parts:
        for r, row in part.items():
            for c, x in row.items():
                i = c if axis else r
                lcms[i] = math.lcm(lcms.get(i, 1), x.denominator)
    return (max((_RANK[t] for t in types), default=0), fields, lcms,
            *({r: {c: x.numerator * (lcms[c if axis else r] // x.denominator)
                   for c, x in row.items()} for r, row in part.items()}
              for part in parts))


def _field(fields):
    """The one s^2 of a set of s-fields, None for none; two raise ValueError."""
    if len(fields) > 1:
        raise ValueError("mixing incompatible s-fields: s^2=%s vs s^2=%s"
                         % tuple(fields)[:2])
    return fields.pop() if fields else None


def _product(arows, brows):
    """_loop's sums of two exact operands, as sums of their lifts, each
    reduced once over the lcms of its row and column to the top entry type
    of the two operands."""
    (ta, fa, lr, a0, a1), (tb, fb, lc, b0, b1) = _lift(arows, 0), _lift(brows, 1)
    top, base = max(ta, tb), _field(fa | fb)
    qn, qd = (base.numerator, base.denominator) if base else (1, 1)
    # (a0 + a1 s)(b0 + b1 s) = a0 b0 + q a1 b1 + (a0 b1 + a1 b0) s, with the
    # s parts of a under the keys ~k
    a = {r: {**row, **{~k: v for k, v in a1.get(r, {}).items()}}
         for r, row in a0.items()} if a1 else a0
    sums = _loop(a, {**{k: {c: qd * v for c, v in row.items()}
                        for k, row in b0.items()},
                     **{~k: {c: qn * v for c, v in row.items()}
                        for k, row in b1.items()}} if base else b0)
    ssums = (dict(_loop(a, {**b1, **{~k: row for k, row in b0.items()}}))
             if base else {})
    for r, acc in sums:
        out, srow = {}, ssums.get(r, {})
        for c, n in acc.items():
            den = lr[r] * lc[c]
            x = Fraction(n, qd * den) if top else n // (qd * den)
            out[c] = (SNum._make(x, Fraction(srow.get(c, 0), den), base)
                      if top == 2 else x)
        yield r, out


class SparseMatrix:
    """Exact matrix of a given shape, stored as {row: {col: value}}."""

    __slots__ = ("rows", "shape")
    __array_ufunc__ = None

    def __init__(self, rows, shape):
        check_types({type(v) for row in rows.values() for v in row.values()})
        self.rows = rows
        self.shape = tuple(shape)

    @classmethod
    def diag(cls, values):
        """The diagonal matrix of values, without its zeros."""
        values = list(values)
        check_types({type(v) for v in values})  # before a float 0 is dropped
        return cls({k: {k: v} for k, v in enumerate(values) if v},
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
        return (row.get(c, 0)
                for row in (self.rows.get(r, {}) for r in range(self.shape[0]))
                for c in range(ncols))

    def __getitem__(self, key):
        """[r, c] is one entry; [r] is row r as a list of its shape[1] entries."""
        if isinstance(key, tuple):
            r, c = key
            if not (0 <= r < self.shape[0] and 0 <= c < self.shape[1]):
                raise IndexError("entry %r out of range for shape %s"
                                 % (key, self.shape))
            return self.rows.get(r, {}).get(c, 0)
        if not 0 <= key < self.shape[0]:
            raise IndexError("row %r out of range for %d rows"
                             % (key, self.shape[0]))
        out = [0] * self.shape[1]
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
            return SparseMatrix(_sparse(dict(_product(self.rows, other.rows))),
                                (self.shape[0], other.shape[1]))
        if isinstance(other, np.ndarray):
            self._inner(other.shape[0])
            # one path for every ndim: the trailing axes flatten to columns
            flat = other.reshape(other.shape[0], math.prod(other.shape[1:]))
            entries = flat.tolist()
            check_types({type(v) for row in entries for v in row})
            brows = {k: {c: v for c, v in enumerate(row) if v}
                     for k, row in enumerate(entries)}
            out = np.full((self.shape[0], flat.shape[1]), 0, dtype=object)
            for r, acc in _product(self.rows, brows):
                for c, v in acc.items():
                    out[r, c] = v
            return out.reshape(self.shape[:1] + other.shape[1:])
        return NotImplemented

    def __rmatmul__(self, other):
        if not isinstance(other, np.ndarray):
            return NotImplemented
        return (self.T @ other.T).T

    def _plus(self, other, add):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if other.shape != self.shape:
            raise ValueError("shapes %s and %s do not add"
                             % (self.shape, other.shape))
        out = {r: dict(row) for r, row in self.rows.items()}
        for r, brow in other.rows.items():
            acc = out.setdefault(r, {})
            for c, v in brow.items():
                if c in acc:
                    acc[c] = acc[c] + v if add else acc[c] - v
                else:
                    acc[c] = v if add else -v
        return SparseMatrix(_sparse(out), self.shape)

    def __add__(self, other):
        return self._plus(other, True)

    def __sub__(self, other):
        return self._plus(other, False)

    def __mul__(self, w):
        """w * v for each stored entry v; a matrix operand is refused."""
        if isinstance(w, (SparseMatrix, np.ndarray)):
            return NotImplemented
        check_types({type(w)})  # before a float 0 empties the matrix
        return SparseMatrix({r: {c: w * v for c, v in row.items()}
                             for r, row in self.rows.items()} if w else {},
                            self.shape)

    __rmul__ = __mul__

    def scaled(self, row, col):
        """diag(row) A diag(col), with row and col sequences of scalars."""
        check_types({type(v) for v in (*row, *col)})
        return SparseMatrix(_sparse({
            r: {c: row[r] * v * col[c] for c, v in arow.items()}
            for r, arow in self.rows.items()}), self.shape)

    def column_sums(self):
        """Exact sum of each column over its stored entries, reduced once to
        the column's top entry type: the int 0 for an empty column; a column
        of two s-fields raises ValueError.  Each entry is lifted as it is
        added: a column keeps the sums of its rational parts and s-parts as
        ints over the lcm of the denominators seen, rescaled as it grows."""
        cols = {}  # column: [rational sum, s sum, lcm, top rank, s-fields]
        for row in self.rows.values():
            for c, v in row.items():
                col = cols.get(c) or cols.setdefault(c, [0, 0, 1, 0, set()])
                parts, col[3] = (v,), max(col[3], _RANK[type(v)])
                if type(v) is SNum:
                    parts = v.a, v.b
                    if v.b:
                        col[4].add(v.sbase)
                for k, x in enumerate(parts):
                    d = x.denominator
                    if col[2] % d:
                        scale = d // math.gcd(col[2], d)
                        col[0], col[1], col[2] = (col[0] * scale, col[1] * scale,
                                                  col[2] * scale)
                    col[k] += x.numerator * (col[2] // d)
        sums = [0] * self.shape[1]
        for c, (n, sn, lcm, top, fields) in cols.items():
            x = Fraction(n, lcm) if top else n
            sums[c] = x if top < 2 else SNum._make(x, Fraction(sn, lcm),
                                                   _field(fields))
        return sums

    def toarray(self):
        out = np.full(self.shape, 0, dtype=object)
        for r, row in self.rows.items():
            for c, v in row.items():
                out[r, c] = v
        return out

    def __array__(self, dtype=None, copy=None):
        out = self.toarray()
        return out if dtype is None else out.astype(dtype, copy=False)
