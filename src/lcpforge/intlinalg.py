"""Exact integer matrix operations.

Everything here is fraction-free or runs over an exact field: one Bareiss
elimination on ints, exact at every division, for determinants over Z and
characteristic polynomials over Z[X]; companion matrices whose coefficient
column sits last; kernel solves over a number field for exact eigenvectors.
Dimensions are desk scale; nothing here is tuned beyond that.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

from .errors import InputError
from .polynomials import IntPoly, as_int, binary_power, int_poly_exact_div


class IntMatrix:
    """Immutable square matrix with integer entries."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(x if type(x) is int else as_int(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise InputError("matrix must be square and non-empty")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)

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

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_same_size(other)
        return IntMatrix(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(-a for a in row) for row in self.rows)

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

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, k: int) -> "IntMatrix":
        if k < 0:
            raise InputError("negative matrix power")
        return binary_power(self, k, IntMatrix.identity(self.n))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self.rows))

    def trace(self):
        return sum(self.rows[i][i] for i in range(self.n))

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


def companion(p: IntPoly) -> IntMatrix:
    """Companion matrix with the negated coefficients in the last column.

    For monic p = x^d + c_{d-1} x^{d-1} + ... + c_0 the matrix has ones on
    the first subdiagonal and column d-1 equal to (-c_0, ..., -c_{d-1}).
    """
    if not p.is_monic() or p.degree < 1:
        raise InputError("companion matrix needs a monic polynomial of degree >= 1")
    d = p.degree
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -p.coeffs[i]
    return IntMatrix(rows)


def _bareiss(m, one, exact_div):
    """Fraction-free Bareiss determinant of a square matrix, eliminated in
    place.  Entries live in an integral domain whose exact division is
    exact_div; every division in the loop is exact."""
    n = len(m)
    negate = False
    prev = one
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    negate = not negate
                    break
            else:
                return one - one
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_div(pivot * m[i][j] - m[i][k] * m[k][j], prev)
        prev = pivot
    return -m[n - 1][n - 1] if negate else m[n - 1][n - 1]


@lru_cache(maxsize=64)
def det(a: IntMatrix) -> int:
    """Bareiss determinant over Z.  Cached per matrix: IntMatrix is
    immutable and hashes on its rows, so the unit, matrix-family, block
    and similarity checks share one elimination per matrix."""
    return _bareiss([list(row) for row in a.rows], 1, operator.floordiv)


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
    return _bareiss(m, IntPoly((1,)), int_poly_exact_div)


def poly_apply(p: IntPoly, a: IntMatrix) -> IntMatrix:
    """Evaluate an integer polynomial at a matrix by Horner's scheme."""
    n = a.n
    if p.is_zero():
        return IntMatrix.identity(n) * 0
    acc = IntMatrix.identity(n) * p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = acc * a + IntMatrix.identity(n) * c
    return acc


def commute(a: IntMatrix, b: IntMatrix) -> bool:
    return a * b == b * a


def field_kernel_basis(rows: Sequence[Sequence]) -> List[List]:
    """Kernel basis of a matrix over a field, by exact Gauss-Jordan.

    Entries must support +, -, *, 1 / x and truth testing, as Fraction and
    FieldElem do.  Returns one vector per free column, each with its free
    coordinate set to one.
    """
    m = [list(r) for r in rows]
    if not m:
        return []
    nrows, ncols = len(m), len(m[0])
    pivots = {}
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots[c] = r
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    sample = rows[0][0]
    zero = sample - sample
    one = zero + 1
    basis = []
    for fc in free:
        vec = [zero] * ncols
        # free coordinate one; pivot coordinates read off the reduced rows
        for c, pr in pivots.items():
            vec[c] = -m[pr][fc]
        vec[fc] = one
        basis.append(vec)
    return basis


class EigenVector(tuple):
    """Eigenvector coordinates with the eigenspace dimension attached."""

    multiplicity = 1


def eigen_solve(a: IntMatrix, lam) -> EigenVector:
    """Exact eigenvector of an integer matrix for a field-element eigenvalue.

    Solves (A - lam*I) v = 0 over the number field of lam and normalizes the
    first nonzero coordinate to one.  For a degenerate eigenspace the first
    basis vector is returned and the dimension is recorded on the result.
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
    lead = next(x for x in vec if x)
    inv = lead.inverse()
    out = EigenVector(x * inv for x in vec)
    out.multiplicity = len(basis)
    return out


def matrix_to_json(a: IntMatrix) -> List[List[str]]:
    return [[str(x) for x in row] for row in a.rows]


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


def matrix_to_string(a: IntMatrix) -> str:
    return ";".join(",".join(str(x) for x in row) for row in a.rows)
