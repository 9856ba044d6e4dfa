"""Tests for exact integer matrix operations.

Determinants and characteristic polynomials are cross-checked against sympy
on random matrices before any frozen values are trusted; the eigenvector
solve is checked on a cubic field where the answer is known in closed form.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from lcpforge.errors import InputError
from lcpforge.intlinalg import (
    IntMatrix,
    char_poly,
    commute,
    det,
    eigen_solve,
    field_kernel_basis,
    is_gl_z,
    matrix_from_json,
    matrix_from_string,
    matrix_to_json,
)
from lcpforge.numberfield import field_new, mult_matrix
from lcpforge.polynomials import IntPoly

# x^3 + x^2 - 2x - 1, the minimal polynomial of 2cos(2*pi/7)
M7 = IntPoly((-1, -2, 1, 1))

small_ints = st.integers(min_value=-9, max_value=9)


def _square(n):
    rows = st.lists(
        st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n
    )
    return rows.map(IntMatrix)


matrices = st.integers(min_value=1, max_value=4).flatmap(_square)

monic_polys = st.integers(min_value=1, max_value=5).flatmap(
    lambda d: st.lists(small_ints, min_size=d, max_size=d).map(
        lambda cs: IntPoly(tuple(cs) + (1,))
    )
)


def _companion(p):
    """Companion matrix of monic p: ones on the subdiagonal, the negated
    coefficients in the last column."""
    d = p.degree
    return IntMatrix(
        [int(i == j + 1) if j < d - 1 else -p.coeffs[i] for j in range(d)]
        for i in range(d)
    )


def _sympy_matrix(a):
    return sympy.Matrix([[int(x) for x in row] for row in a.rows])


class TestIntMatrix:
    def test_requires_square(self):
        with pytest.raises(InputError):
            IntMatrix([[1, 2], [3]])
        with pytest.raises(InputError):
            IntMatrix([])

    def test_basic_algebra(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[0, 1], [1, 0]])
        assert (a + b).rows == ((1, 3), (4, 4))
        assert (a * b).rows == ((2, 1), (4, 3))
        assert (a * 3).rows == ((3, 6), (9, 12))
        assert a[1, 0] == 3

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            IntMatrix([[1]]) + IntMatrix([[1, 0], [0, 1]])

    def test_entries_must_be_integral(self):
        assert IntMatrix([[Fraction(4, 2), 0], [0, 1]]).rows == ((2, 0), (0, 1))
        with pytest.raises(InputError):
            IntMatrix(((1.5, 2), (3, 4)))
        with pytest.raises(InputError):
            IntMatrix([[Fraction(1, 2), 0], [0, 1]])


class TestDeterminant:
    @given(matrices)
    def test_matches_sympy(self, a):
        assert det(a) == _sympy_matrix(a).det()

    def test_singular(self):
        assert det(IntMatrix([[1, 2], [2, 4]])) == 0

    def test_unimodular_detection(self):
        assert is_gl_z(IntMatrix([[2, 1], [1, 1]]))
        assert not is_gl_z(IntMatrix([[2, 0], [0, 1]]))


class TestCharPoly:
    @given(matrices)
    def test_matches_sympy(self, a):
        lam = sympy.Symbol("lam")
        expected = _sympy_matrix(a).charpoly(lam).all_coeffs()
        got = char_poly(a)
        assert [int(c) for c in reversed(got.coeffs)] == [int(c) for c in expected]
        assert got.constant() == (-1) ** a.n * det(a)

    @given(monic_polys)
    def test_companion_recovers_polynomial(self, p):
        assert char_poly(_companion(p)) == p

    def test_runs_on_integers(self, forbid_fractions):
        # every Bareiss division is exact over Z and Z[X], so neither the
        # determinant nor the characteristic polynomial builds a Fraction
        # a zero first pivot exercises the row swap
        a = IntMatrix([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]])
        assert char_poly(a) == IntPoly((-12, -32, -20, 0, 1))
        assert det(a) == -12


class TestCompanion:
    """The multiplication matrix of a field generator is the companion
    matrix of its minimal polynomial, coefficient column last."""

    def test_quadratic(self):
        # x^2 + x - 1
        c = mult_matrix(field_new(IntPoly((-1, 1, 1))).gen())
        assert c.rows == ((0, 1), (1, -1))

    def test_cubic_golden(self):
        c = mult_matrix(field_new(M7).gen())
        assert c.rows == ((0, 0, 1), (1, 0, 2), (0, 1, -1))


class TestPolyApply:
    """A polynomial q applied to the generator's matrix is the
    multiplication matrix of q(alpha)."""

    def test_golden_second_generator(self):
        field = field_new(M7)
        a1 = mult_matrix(field.gen())
        a2 = mult_matrix(field.from_int_poly(IntPoly((-2, 0, 1))))
        assert a2.rows == ((-2, 1, -1), (0, 0, -1), (1, -1, 1))
        assert commute(a1, a2)
        assert is_gl_z(a1) and is_gl_z(a2)
        # applying x^2 - 2 permutes the roots, so the char poly is unchanged
        assert char_poly(a2) == M7

    @given(monic_polys, monic_polys)
    def test_evaluation_is_multiplicative(self, p, q):
        field = field_new(IntPoly((-1, -1, 0, 1)))

        def at(r):
            return mult_matrix(field.from_int_poly(r))

        assert at(p * q) == at(p) * at(q)

    def test_zero_polynomial(self):
        field = field_new(IntPoly((-1, 1, 1)))
        assert mult_matrix(field.from_int_poly(IntPoly(()))) == IntMatrix([[0, 0], [0, 0]])


class TestEigenSolve:
    def test_golden_cubic_eigenvector(self):
        field = field_new(M7)
        alpha = field.gen()
        vec = eigen_solve(mult_matrix(alpha), alpha)
        beta = alpha + alpha ** 2
        assert vec == (field.one(), beta, alpha)
        # the commuting generator keeps the same eigenvector at the
        # conjugated eigenvalue
        sigma_alpha = field.from_coords((-2, 0, 1))
        assert eigen_solve(mult_matrix(sigma_alpha), sigma_alpha) == vec

    def test_eigenvector_property(self):
        field = field_new(M7)
        alpha = field.gen()
        a1 = mult_matrix(alpha)
        vec = eigen_solve(a1, alpha)
        for i in range(3):
            image = sum(
                (field.from_rational(a1[i, j]) * vec[j] for j in range(3)),
                field.zero(),
            )
            assert image == alpha * vec[i]

    def test_non_eigenvalue_rejected(self):
        field = field_new(M7)
        with pytest.raises(InputError):
            eigen_solve(mult_matrix(field.gen()), field.from_rational(1))

    def test_degenerate_eigenspace_gives_the_first_basis_vector(self):
        field = field_new(M7)
        vec = eigen_solve(IntMatrix.identity(2), field.one())
        assert vec == (field.one(), field.zero())


class TestFieldKernel:
    def test_zero_and_identity(self):
        field = field_new(M7)
        zero, one = field.zero(), field.one()
        assert field_kernel_basis([[one, zero], [zero, one]]) == []
        basis = field_kernel_basis([[zero, zero], [zero, zero]])
        assert len(basis) == 2
        assert basis[0] == [one, zero]
        assert basis[1] == [zero, one]

    def test_rank_one_kernel(self):
        field = field_new(M7)
        one = field.one()
        basis = field_kernel_basis([[one, one], [one, one]])
        assert len(basis) == 1
        v = basis[0]
        assert v[0] + v[1] == field.zero()


class TestSerialization:
    def test_string_round_trip(self):
        a = IntMatrix([[0, 0, 1], [1, 0, 2], [0, 1, -1]])
        text = ";".join(",".join(str(x) for x in row) for row in a.rows)
        assert text == "0,0,1;1,0,2;0,1,-1"
        assert matrix_from_string(text) == a

    def test_json_round_trip(self):
        a = IntMatrix([[12, -7], [3, 5]])
        assert matrix_from_json(matrix_to_json(a)) == a

    def test_bad_strings(self):
        with pytest.raises(InputError):
            matrix_from_string("1,2;3,x")
        with pytest.raises(InputError):
            matrix_from_string("1,,2;3,4")
        with pytest.raises(InputError):
            matrix_from_string("1,2;3")
