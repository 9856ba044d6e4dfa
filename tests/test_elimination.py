"""Direct tests of the four elimination routines, one per arithmetic.

- exact over a field (Gauss-Jordan): ``field_kernel_basis``, through
  ``minimal_polynomial``, against sympy;
- floating point (full pivot): ``full_pivot_eliminate`` ranks against
  sympy, and the kernel back-substitution on real and complex eigenvalues;
- interval (Gauss-Jordan): ``_iv_inverse`` encloses sympy's exact inverse
  and refuses a singular matrix.

The Bareiss determinant and characteristic polynomial are cross-checked
against sympy in test_intlinalg.py.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import to_rational

from lcpforge.embeddings import _at_prec, full_pivot_eliminate, tolerance
from lcpforge.errors import NeedsEscalation
from lcpforge.intlinalg import IntMatrix, char_poly, companion
from lcpforge.lcpcore import _iv_inverse, _iv_matrix, _kernel_vector
from lcpforge.numberfield import field_new, minimal_polynomial
from lcpforge.polynomials import IntPoly

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
        companion(IntPoly((-1, -1, 0, 1))),  # x^3 - x - 1: one real, one pair
        companion(IntPoly((-1, -1, 0, 0, 1))),  # x^4 - x - 1: two real, one pair
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
# exact over a field: minimal polynomials through field_kernel_basis

# x^4 - 10x^2 + 1, the minimal polynomial of sqrt(2) + sqrt(3), factors
# modulo every prime, so its irreducibility is asserted rather than tested
BIQUADRATIC = field_new(IntPoly((1, 0, -10, 0, 1)), force=True)
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
