"""Exact integer matrix operations.

One exact elimination, a fraction-free (Bareiss) row echelon form, serves
Z, Z[X], Q and Q(lambda): determinants and characteristic polynomials are
its last pivot, on ints alone, and the kernels behind minimal polynomials
and exact eigenvectors are back-substitution on it.
Dimensions are desk scale; nothing here is tuned beyond that.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

from .errors import InputError
from .polynomials import IntPoly, as_int, int_poly_exact_div


class IntMatrix:
    """Immutable square matrix with integer entries."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(x if type(x) is int else as_int(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise InputError("matrix must be square and non-empty")
        self._seal(rows)

    @classmethod
    def _of_ints(cls, rows: Tuple[Tuple[int, ...], ...]) -> "IntMatrix":
        """The matrix of a non-empty square tuple of int tuples, taken as it
        is: numberfield.mult_matrix's, whose entries are ints by
        construction."""
        matrix = object.__new__(cls)
        matrix._seal(rows)
        return matrix

    def _seal(self, rows):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", len(rows))

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

    def __getitem__(self, ij: Tuple[int, int]):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_same_size(other)
        return IntMatrix(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        )

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            self._check_same_size(other)
            cols = list(zip(*other.rows))
            return IntMatrix(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        if isinstance(other, int):
            return IntMatrix(tuple(a * other for a in row) for row in self.rows)
        return NotImplemented

    def _check_same_size(self, other: "IntMatrix"):
        if self.n != other.n:
            raise InputError("matrix sizes differ: %d vs %d" % (self.n, other.n))

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(",".join(str(x) for x in row) for row in self.rows)
        return "IntMatrix(%s)" % body


def _echelon(m, exact_div):
    """Fraction-free (Bareiss) row echelon form of a rectangular matrix, in
    place, over an integral domain whose exact division is exact_div.

    Each entry below the pivot rows is a minor, so every division by the
    previous pivot is exact.  A zero pivot is swapped for the first nonzero
    entry below it, and a column with none is skipped.  Returns the pivot
    columns, row i holding pivot i, and the parity of the row swaps;
    entries below the pivots are left stale and never read.
    """
    nrows, ncols = len(m), len(m[0])
    pivots, swapped = [], False
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        # != 0 rather than truth: an IntPoly is true even when it is zero
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            swapped = not swapped
        top, pivot = m[r], m[r][c]
        for row in m[r + 1:]:
            lead = row[c]
            new = [pivot * x - lead * y for x, y in zip(row[c + 1:], top[c + 1:])]
            row[c + 1:] = [exact_div(x, prev) for x in new] if r else new
        prev = pivot
        pivots.append(c)
    return pivots, swapped


def _determinant(m, exact_div):
    """Determinant of a square matrix, read off its echelon form: the last
    pivot, signed by the row swaps, or zero when a column has no pivot."""
    pivots, swapped = _echelon(m, exact_div)
    last = m[-1][-1]
    if len(pivots) < len(m):
        return last - last
    return -last if swapped else last


@lru_cache(maxsize=64)
def det(a: IntMatrix) -> int:
    """Bareiss determinant over Z.  Cached per matrix: IntMatrix is
    immutable and hashes on its rows, so the unit, matrix-family, block
    and similarity checks share one elimination per matrix."""
    return _determinant([list(row) for row in a.rows], operator.floordiv)


def is_gl_z(a: IntMatrix) -> bool:
    """True iff the matrix is invertible over the integers (det = +-1)."""
    return abs(det(a)) == 1


def char_poly(a: IntMatrix) -> IntPoly:
    """Characteristic polynomial det(X*I - A), monic, by Bareiss elimination
    over the polynomial ring Z[X]."""
    n = a.n
    x = IntPoly((0, 1))
    m = [
        [x - a.rows[i][j] if i == j else IntPoly((-a.rows[i][j],)) for j in range(n)]
        for i in range(n)
    ]
    return _determinant(m, int_poly_exact_div)


def commute(a: IntMatrix, b: IntMatrix) -> bool:
    return a * b == b * a


def field_kernel_basis(rows: Sequence[Sequence]) -> List[List]:
    """Kernel basis of a matrix over a field, by back-substitution on its
    echelon form.

    Entries must support +, -, *, / and comparison with 0, as Fraction and
    FieldElem do.  Returns one vector per free column, each with its free
    coordinate one and the other free coordinates zero, so the basis is
    fixed by the column rank profile alone.
    """
    m = [list(r) for r in rows]
    if not m:
        return []
    ncols, zero = len(m[0]), rows[0][0] - rows[0][0]
    pivots, _ = _echelon(m, operator.truediv)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[free] = zero + 1
        for row, c in reversed(list(zip(m, pivots))):
            tail = sum((row[j] * vec[j] for j in range(c + 1, ncols)), zero)
            vec[c] = -tail / row[c]
        basis.append(vec)
    return basis


def eigen_solve(a: IntMatrix, lam) -> Tuple:
    """Exact eigenvector of an integer matrix for a field-element eigenvalue.

    Solves (A - lam*I) v = 0 over the number field of lam and normalizes the
    first nonzero coordinate to one.  For a degenerate eigenspace the first
    basis vector is returned.
    """
    field = lam.field
    n = a.n
    rows = [
        [field.from_rational(a.rows[i][j]) - (lam if i == j else field.zero()) for j in range(n)]
        for i in range(n)
    ]
    basis = field_kernel_basis(rows)
    if len(basis) == 0:
        raise InputError("value is not an eigenvalue: kernel is trivial")
    vec = basis[0]
    inv = next(x for x in vec if x).inverse()
    return tuple(x * inv for x in vec)


def matrix_to_json(a: IntMatrix) -> List[List[str]]:
    return [list(map(str, row)) for row in a.rows]


def matrix_from_json(data) -> IntMatrix:
    try:
        return IntMatrix(tuple(int(str(x)) for x in row) for row in data)
    except (ValueError, TypeError) as exc:
        raise InputError("bad matrix JSON: %s" % exc) from None


def matrix_from_string(text: str) -> IntMatrix:
    """Parse the row-major text form "a,b;c,d"."""
    rows = []
    for chunk in text.strip().split(";"):
        entries = [e.strip() for e in chunk.split(",")]
        if not entries or any(not e for e in entries):
            raise InputError("bad matrix text %r" % text)
        try:
            rows.append(tuple(int(e) for e in entries))
        except ValueError:
            raise InputError("non-integer matrix entry in %r" % text) from None
    return IntMatrix(rows)
