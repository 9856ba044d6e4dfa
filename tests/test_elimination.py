"""Direct tests of the three elimination routines, one per arithmetic.

- exact (fraction-free Bareiss echelon form, ``intlinalg._echelon``):
  kernels over Q against sympy's ``nullspace``, determinants over Z with
  row swaps and zero columns against sympy, minimal polynomials over a
  number field against sympy, and ``eigen_solve`` on a degenerate
  eigenspace;
- floating point (full pivot): ``full_pivot_eliminate`` ranks against
  sympy, and the kernel back-substitution on real and complex eigenvalues;
- interval (Gauss-Jordan): ``_iv_inverse`` encloses sympy's exact inverse
  and refuses a singular matrix.

The characteristic polynomial, the exact routine over Z[X], is
cross-checked against sympy in test_intlinalg.py.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import to_rational

from lcpforge.embeddings import _at_prec, _iv_inverse, full_pivot_eliminate, tolerance
from lcpforge.errors import NeedsEscalation
from lcpforge.intlinalg import IntMatrix, char_poly, det, eigen_solve, field_kernel_basis
from lcpforge.numberfield import (
    NumberField,
    field_new,
    minimal_polynomial,
    mult_matrix,
)
from lcpforge.polynomials import IntPoly
from lcpforge.schema1 import _iv_matrix, _kernel_vector

WORKBITS = 160

small_ints = st.integers(min_value=-4, max_value=4)


def _int_matrix(rows, cols):
    return st.lists(
        st.lists(small_ints, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


rectangular = st.tuples(
    st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5)
).flatmap(lambda rc: _int_matrix(*rc))

square = st.integers(min_value=1, max_value=4).flatmap(lambda n: _int_matrix(n, n))


def _endpoints(box):
    """Exact rational endpoints of an interval, free of any rounding."""
    return [Fraction(*to_rational(end)) for end in box._mpi_]


# ----------------------------------------------------------------------
# floating point: full-pivot rank and kernel vectors


@given(rectangular)
def test_full_pivot_rank_matches_sympy(rows):
    with _at_prec(WORKBITS):
        a = [[mp.mpf(x) for x in row] for row in rows]
        rank, row_perm, col_perm = full_pivot_eliminate(a, tolerance(128))
    assert rank == sympy.Matrix(rows).rank()
    assert sorted(row_perm) == list(range(len(rows)))
    assert sorted(col_perm) == list(range(len(rows[0])))


def test_full_pivot_rank_of_empty_matrix():
    assert full_pivot_eliminate([], mp.mpf(0))[0] == 0


def _eigen_residual(a, lam, scalar):
    n = a.n
    rows = [
        [scalar(int(a[i, j])) - (lam if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    v = _kernel_vector(rows, WORKBITS, scalar)
    assert max(abs(x) for x in v) == 1
    return max(
        abs(sum(int(a[i, j]) * v[j] for j in range(n)) - lam * v[i])
        for i in range(n)
    )


@pytest.mark.parametrize(
    "matrix",
    [
        mult_matrix(field_new(IntPoly((-1, -1, 0, 1))).gen()),  # x^3 - x - 1: one real, one pair
        mult_matrix(field_new(IntPoly((-1, -1, 0, 0, 1))).gen()),  # x^4 - x - 1: two real, one pair
        IntMatrix([[2, 1, 0], [1, 1, 1], [0, 1, 3]]),
    ],
)
def test_kernel_vectors_are_eigenvectors(matrix):
    with _at_prec(WORKBITS):
        chi = char_poly(matrix)
        roots = mp.polyroots(
            [int(c) for c in reversed(chi.coeffs)], maxsteps=200, extraprec=WORKBITS
        )
        bound = mp.mpf(2) ** (-(WORKBITS // 2))
        for z in roots:
            if abs(mp.im(z)) < bound:
                assert _eigen_residual(matrix, mp.re(z), mp.mpf) < bound
            else:
                assert _eigen_residual(matrix, mp.mpc(z), mp.mpc) < bound


def test_kernel_vector_refuses_a_regular_matrix():
    with _at_prec(WORKBITS):
        with pytest.raises(NeedsEscalation):
            _kernel_vector([[2, 1], [1, 1]], WORKBITS, mp.mpf)


# ----------------------------------------------------------------------
# interval: Gauss-Jordan inverse


@given(square)
def test_interval_inverse_encloses_exact_inverse(rows):
    exact = sympy.Matrix(rows)
    assume(exact.det() != 0)
    exact_inv = exact.inv()
    with _at_prec(WORKBITS):
        enclosure = _iv_inverse(_iv_matrix(rows))
    n = len(rows)
    for i in range(n):
        for j in range(n):
            want = Fraction(int(exact_inv[i, j].p), int(exact_inv[i, j].q))
            lo, hi = _endpoints(enclosure[i][j])
            assert lo <= want <= hi


def test_interval_inverse_refuses_singular_matrix():
    with _at_prec(WORKBITS):
        with pytest.raises(NeedsEscalation):
            _iv_inverse(_iv_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))


# ----------------------------------------------------------------------
# exact: kernels and determinants on the echelon form

small_fractions = st.builds(
    Fraction, small_ints, st.integers(min_value=1, max_value=3)
)
rational_rectangular = st.tuples(
    st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=6)
).flatmap(
    lambda rc: st.lists(
        st.lists(small_fractions, min_size=rc[1], max_size=rc[1]),
        min_size=rc[0],
        max_size=rc[0],
    )
)


@given(rational_rectangular)
def test_kernel_matches_sympy_nullspace(rows):
    # both put one on a free column and zero on the others, so the same
    # free columns give the same vectors
    want = [
        [Fraction(int(x.p), int(x.q)) for x in vec]
        for vec in sympy.Matrix(rows).nullspace()
    ]
    assert field_kernel_basis(rows) == want


def _swapped_and_zero_column(rows, zero_column):
    """rows with a zero first entry, so the first pivot needs a row swap
    when the column has a nonzero entry, and column zero_column zeroed
    when it is in range."""
    rows = [list(row) for row in rows]
    rows[0][0] = 0
    for row in rows:
        if zero_column < len(row):
            row[zero_column] = 0
    return rows


@given(square, st.integers(min_value=1, max_value=8))
def test_determinant_matches_sympy_with_swaps_and_zero_columns(rows, zero_column):
    rows = _swapped_and_zero_column(rows, zero_column)
    assert det(IntMatrix(rows)) == sympy.Matrix(rows).det()


@pytest.mark.parametrize(
    "rows, want",
    [
        ([[0, 1], [1, 0]], -1),  # one swap
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),  # one swap, of rows 0 and 2
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),  # two swaps
        ([[1, 0, 2], [3, 0, 4], [5, 0, 6]], 0),  # a zero column
        ([[0, 2, 1], [0, 4, 3], [0, 1, 7]], 0),  # a zero first column
    ],
)
def test_determinant_signs_follow_the_row_swaps(rows, want):
    assert det(IntMatrix(rows)) == want == sympy.Matrix(rows).det()


def test_degenerate_eigenspace_gives_the_first_basis_vector():
    # diag(C, C), C the multiplication matrix of alpha: the eigenspace of
    # alpha is two-dimensional, free columns 2 and 5 of the echelon form;
    # the first basis vector is C's eigenvector in the first block
    field = field_new(IntPoly((-1, -1, 0, 1)))
    alpha = field.gen()
    c = mult_matrix(alpha).rows
    a = IntMatrix([list(r) + [0] * 3 for r in c] + [[0] * 3 + list(r) for r in c])
    rows = [
        [field.from_rational(a[i, j]) - (alpha if i == j else 0) for j in range(6)]
        for i in range(6)
    ]
    basis = field_kernel_basis(rows)
    assert len(basis) == 2
    first = eigen_solve(mult_matrix(alpha), alpha)
    zero = field.zero()
    assert eigen_solve(a, alpha) == first + (zero,) * 3
    lead = basis[0][0]
    assert tuple(x / lead for x in basis[0]) == first + (zero,) * 3


# ----------------------------------------------------------------------
# exact over a field: minimal polynomials through field_kernel_basis

# x^4 - 10x^2 + 1, the minimal polynomial of sqrt(2) + sqrt(3), factors
# modulo every prime, so its irreducibility is asserted rather than tested
BIQUADRATIC = NumberField(IntPoly((1, 0, -10, 0, 1)), "asserted irreducible")
ALPHA = sympy.sqrt(2) + sympy.sqrt(3)
X = sympy.Symbol("x")


def _sympy_minpoly(coords):
    # sympy's minimal polynomial made primitive, with positive leading term
    expr = sum(sympy.Rational(c) * ALPHA ** i for i, c in enumerate(coords))
    _, poly = sympy.Poly(sympy.minimal_polynomial(expr, X), X).primitive()
    if poly.LC() < 0:
        poly = -poly
    return [int(c) for c in reversed(poly.all_coeffs())]


def _ours(coords):
    poly = minimal_polynomial(BIQUADRATIC.from_coords(coords))
    assert all(type(c) is int for c in poly.coeffs)
    return list(poly.coeffs)


@pytest.mark.parametrize(
    "coords",
    [
        (3, 0, 0, 0),  # rational: degree 1
        (0, 0, 1, 0),  # alpha^2 = 5 + 2 sqrt6: degree 2
        (-5, 0, 1, 0),  # 2 sqrt6: degree 2
        (0, -11, 0, 1),  # alpha^3 - 11 alpha = -2 sqrt3: degree 2
        (0, 1, 0, 0),  # alpha itself: degree 4
        (Fraction(1, 2), 0, Fraction(-1, 3), 2),
    ],
)
def test_minimal_polynomial_matches_sympy(coords):
    assert _ours(coords) == _sympy_minpoly(coords)


@settings(max_examples=15)
@given(st.lists(small_ints, min_size=4, max_size=4))
def test_minimal_polynomial_matches_sympy_on_random_elements(coords):
    assert _ours(coords) == _sympy_minpoly(coords)
