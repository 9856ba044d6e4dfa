"""Tests for number field arithmetic, units and Galois structure.

Frozen values (minimal polynomials, conjugate coordinates) are verified
against sympy oracles computed from the defining real numbers, and against
exact resubstitution identities that do not depend on this module's own
arithmetic being right.
"""

from fractions import Fraction as QQ
from functools import lru_cache
import re

import mpmath
import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st

import lcpforge.numberfield as numberfield_module
from lcpforge.errors import (
    InconclusiveIrreducibilityError,
    InputError,
    NonIntegralError,
    NonUnitError,
    ReduciblePolynomialError,
)
from lcpforge.intlinalg import IntMatrix
from lcpforge.numberfield import (
    NumberField,
    _pm_divmod,
    _pm_trim,
    dirichlet_rank_bound,
    elem_from_json,
    field_new,
    galois_generator,
    irreducibility_heuristic,
    is_unit,
    minimal_polynomial,
    mult_matrix,
    require_unit,
)
import lcpforge.polynomials as polynomials_module
from lcpforge.polynomials import IntPoly, is_prime, trace_polys
from oracles import galois_sigma, real_subfield_minpoly, substitute

M7 = IntPoly((-1, -2, 1, 1))  # x^3 + x^2 - 2x - 1
PLASTIC = IntPoly((-1, -1, 0, 1))  # x^3 - x - 1
GOLDEN = IntPoly((-1, 1, 1))  # x^2 + x - 1


@pytest.fixture(scope="module")
def m7():
    return field_new(M7)


def _at_companion(coeffs, p):
    """The polynomial with these coefficients evaluated, by Horner, at the
    companion matrix of monic p (negated coefficients in the last column)."""
    d = p.degree
    c = IntMatrix(
        [int(i == j + 1) if j < d - 1 else -p.coeffs[i] for j in range(d)]
        for i in range(d)
    )
    identity = IntMatrix.identity(d)
    acc = identity * 0
    for a in reversed(coeffs):
        acc = acc * c + identity * a
    return acc


def _order(image):
    """Order of the field map alpha -> image, by applying it until the
    generator returns; None past the field degree."""
    field = image.field
    alpha, x = field.gen(), image
    for k in range(1, field.degree + 1):
        if x == alpha:
            return k
        x = substitute(x, image)
    return None


def _coords(elems):
    return st.lists(elems, min_size=3, max_size=3)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6).map(
    lambda f: QQ(f.numerator, f.denominator)
)


class TestFieldNew:
    def test_signatures(self, m7):
        assert m7.degree == 3
        assert m7.signature == (3, 0)
        assert field_new(PLASTIC).signature == (1, 1)
        assert field_new(GOLDEN).signature == (2, 0)

    def test_witness_recorded(self, m7):
        assert m7.irreducibility
        assert "degree <= 3" in m7.irreducibility

    def test_rejects_reducible(self):
        with pytest.raises(ReduciblePolynomialError):
            field_new(IntPoly((-1, 0, 1)))  # x^2 - 1
        with pytest.raises(ReduciblePolynomialError):
            field_new(IntPoly((1, 0, 2, 0, 1)))  # (x^2 + 1)^2

    def test_rejects_non_monic_or_constant(self):
        with pytest.raises(InputError):
            field_new(IntPoly((-1, 2)))  # 2x - 1 is not monic
        with pytest.raises(InputError):
            field_new(IntPoly((1,)))
        # degree 1 is legal and describes the rationals
        assert field_new(IntPoly((1, 1))).degree == 1

    def test_inconclusive_is_refused(self):
        quartic = IntPoly((1, 0, 0, 0, 1))  # x^4 + 1, reducible mod every prime
        with pytest.raises(InconclusiveIrreducibilityError) as refused:
            field_new(quartic)
        # the message reaches command-line users, so it names no Python
        # keyword argument they could not pass
        message = str(refused.value)
        assert "irreducibility undecided" in message
        assert "force" not in message and not re.search(r"\w=", message)

    def test_modular_witness(self):
        field = field_new(IntPoly((1, 1, 0, 0, 1)))  # x^4 + x + 1
        assert "modulo" in field.irreducibility


class TestIrreducibilityHeuristic:
    def test_layers(self):
        assert irreducibility_heuristic(IntPoly((-2, 1)))[0] == "irreducible"
        verdict, witness = irreducibility_heuristic(IntPoly((-1, 0, 1)))
        assert verdict == "reducible" and "root" in witness
        verdict, witness = irreducibility_heuristic(IntPoly((1, 2, 1)))
        assert verdict == "reducible" and "repeated" in witness
        assert irreducibility_heuristic(M7)[0] == "irreducible"
        assert irreducibility_heuristic(IntPoly((1, 0, 0, 0, 1)))[0] == "inconclusive"
        # x^4 - 10x^2 + 1 is irreducible but splits modulo every prime
        assert irreducibility_heuristic(IntPoly((1, 0, -10, 0, 1)))[0] == "inconclusive"

    def test_large_constant_cubic_is_irreducible(self):
        # the constant is 1000003 * 1000033, past any trial-division bound;
        # a monic polynomial's rational roots are integers, and none lies
        # in the refined isolating intervals
        p = IntPoly((-1000036000099, -2910, 0, 1))
        assert sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x")).is_irreducible
        assert irreducibility_heuristic(p) == (
            "irreducible", "degree <= 3 with no rational root"
        )
        assert field_new(p).degree == 3

    def test_large_integer_root_is_found(self):
        root = 1000036000099
        p = IntPoly((-root, 1)) * IntPoly((1, 1, 1))
        verdict, witness = irreducibility_heuristic(p)
        assert verdict == "reducible" and str(root) in witness
        with pytest.raises(ReduciblePolynomialError, match=str(root)):
            field_new(p)

    @given(
        st.lists(st.integers(-40, 40), min_size=2, max_size=3),
        st.integers(-10 ** 12, 10 ** 12),
    )
    def test_low_degree_verdicts_match_sympy(self, coeffs, shift):
        # monic quadratics and cubics with their roots moved by a large
        # shift: at degree <= 3 the verdict is always decided, and it is
        # sympy's
        x = sympy.Symbol("x")
        poly = sympy.Poly(
            sum(c * x ** i for i, c in enumerate(coeffs + [1])).subs(x, x - shift), x
        )
        assume(sympy.gcd(poly, poly.diff(x)).degree() == 0)
        p = IntPoly(tuple(int(c) for c in reversed(poly.all_coeffs())))
        verdict, witness = irreducibility_heuristic(p)
        assert verdict == ("irreducible" if poly.is_irreducible else "reducible")
        if verdict == "reducible":
            assert p(int(witness.rsplit(" ", 1)[1])) == 0

    def test_non_monic_polynomial_is_refused(self):
        with pytest.raises(InputError, match="monic"):
            irreducibility_heuristic(IntPoly((-1, 0, 2)))


@given(
    st.sampled_from((2, 3, 5, 7, 13)),
    st.lists(st.integers(-40, 40), max_size=9),
    st.lists(st.integers(-40, 40), min_size=1, max_size=5),
)
def test_pm_divmod_identity(q, a, f):
    f = _pm_trim([c % q for c in f])
    if not f:
        return
    quo, rem = _pm_divmod(a, f, q)
    # quo*f + rem == a over Z after reduction mod q, with deg rem < deg f
    residue = IntPoly(quo) * IntPoly(f) + IntPoly(rem) - IntPoly(a)
    assert all(c % q == 0 for c in residue.coeffs)
    assert len(rem) < len(f)


class TestElementArithmetic:
    def test_constructors(self, m7):
        assert m7.one() == m7.from_rational(1)
        assert m7.from_coords((1, 0, 0)) == m7.one()
        assert not m7.zero()
        assert m7.gen().coords == (0, 1, 0)
        with pytest.raises(InputError):
            m7.from_coords((1, 2))

    @given(_coords(rationals), _coords(rationals), _coords(rationals))
    def test_ring_axioms(self, ca, cb, cc):
        field = field_new(M7)
        a, b, c = (field.from_coords(x) for x in (ca, cb, cc))
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == field.zero()
        assert a * field.one() == a

    @given(_coords(rationals))
    def test_inverse(self, ca):
        field = field_new(M7)
        a = field.from_coords(ca)
        if not a:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == field.one()
            assert a ** -1 == a.inverse()
            assert 1 / a == a.inverse()

    def test_inverse_of_a_zero_divisor_names_the_broken_field(self):
        # (x^2 + 1)(x^2 + 2) is refused by field_new; built by hand, x^2 + 1
        # is a zero divisor there, so its minimal polynomial has constant
        # term zero
        ring = NumberField(IntPoly((2, 0, 3, 0, 1)), "assumed by the test")
        with pytest.raises(ReduciblePolynomialError):
            ring.from_coords((1, 0, 1, 0)).inverse()
        a = ring.from_coords((1, 1, 0, 0))
        assert a * a.inverse() == 1

    @given(_coords(st.integers(-9, 9)), _coords(st.integers(-9, 9)))
    def test_mult_matrix_multiplies(self, ca, cb):
        # the matrix of u is u evaluated at the companion matrix, and applied
        # to the coordinates of b it gives the coordinates of u * b
        field = field_new(M7)
        u, b = field.from_coords(ca), field.from_coords(cb)
        m = mult_matrix(u)
        assert m == _at_companion(ca, M7)
        assert tuple(sum(m[i, j] * cb[j] for j in range(3)) for i in range(3)) == (u * b).coords

    def test_mult_matrix_needs_integer_coordinates(self, m7):
        with pytest.raises(NonIntegralError):
            mult_matrix(m7.gen() * QQ(1, 2))

    def test_mult_matrix_rows_skip_the_per_entry_check(self, m7, monkeypatch):
        # the entries are ints by construction, so neither the validating
        # IntMatrix constructor nor as_int runs; a matrix built by hand is
        # still checked entry by entry
        import lcpforge.intlinalg as intlinalg_module

        calls = []
        original_init, original_as_int = IntMatrix.__init__, intlinalg_module.as_int

        def counting_init(self, rows):
            calls.append("IntMatrix")
            original_init(self, rows)

        def counting_as_int(x):
            calls.append("as_int")
            return original_as_int(x)

        monkeypatch.setattr(IntMatrix, "__init__", counting_init)
        monkeypatch.setattr(intlinalg_module, "as_int", counting_as_int)
        m = mult_matrix(m7.from_coords((2, -1, 3)))
        assert m.rows == ((2, 3, -4), (-1, 8, -5), (3, -4, 12))
        assert calls == []
        with pytest.raises(InputError):
            IntMatrix(((1, QQ(1, 2)), (0, 1)))
        assert calls == ["IntMatrix", "as_int"]

    @given(_coords(rationals))
    def test_minimal_polynomial_annihilates(self, ca):
        field = field_new(M7)
        a = field.from_coords(ca)
        mp = minimal_polynomial(a)
        assert mp.leading() > 0 and mp == mp.primitive()
        assert not mp(a)

    def test_scalar_mixing(self, m7):
        alpha = m7.gen()
        assert (alpha + 1) - 1 == alpha
        assert 2 * alpha == alpha + alpha
        assert (3 - alpha) + alpha == m7.from_rational(3)
        assert alpha * QQ(1, 2) + alpha * QQ(1, 2) == alpha

    def test_powers(self, m7):
        alpha = m7.gen()
        # alpha^3 = -alpha^2 + 2 alpha + 1 in this field
        assert alpha ** 3 == m7.from_coords((1, 2, -1))
        assert alpha ** 0 == m7.one()

    def test_unsupported_left_operands_name_their_operator(self, m7):
        for other in (1.5, mpmath.mpf(1.5)):
            with pytest.raises(TypeError, match="for /:"):
                other / m7.gen()
            with pytest.raises(TypeError, match="for -:"):
                other - m7.gen()

    def test_cross_field_mixing_rejected(self, m7):
        other = field_new(GOLDEN)
        with pytest.raises(InputError):
            m7.gen() + other.gen()

    def test_coordinates_reject_floats(self, m7):
        for bad in (0.1, mpmath.mpf(1)):
            with pytest.raises(InputError):
                m7.from_coords((bad, 0, 0))
            with pytest.raises(InputError):
                m7.from_rational(bad)

    def test_json_round_trip(self, m7):
        a = m7.from_coords((QQ(1, 2), QQ(-3), QQ(7, 5)))
        data = a.to_json()
        assert data == ["1/2", "-3", "7/5"]
        assert elem_from_json(m7, data) == a
        with pytest.raises(InputError):
            elem_from_json(m7, ["1", "2", "x"])


@lru_cache(maxsize=None)
def _reduction_field(degree):
    # degree 1, the cubic M7, and the degree-14 real subfield of conductor 29
    minpoly = {1: IntPoly((-3, 1)), 3: M7, 14: real_subfield_minpoly(29)}[degree]
    return field_new(minpoly)


def _fraction_divmod(a, b):
    """Long division of Fraction coefficient lists (lowest degree first,
    b with a nonzero top): the reference for every integer route."""
    rem, q = [QQ(c) for c in a], []
    while len(rem) >= len(b):
        factor = rem[-1] / b[-1]
        q.append(factor)
        for i, c in enumerate(b):
            rem[len(rem) - len(b) + i] -= factor * c
        rem.pop()
    return q[::-1], rem


def _fraction_product(a, b):
    out = [QQ(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divmod_coords(field, coeffs):
    """Reference reduction: the remainder of a coefficient list by the
    minimal polynomial, by long division on Fractions."""
    rem = _fraction_divmod(coeffs, field.minpoly.coeffs)[1]
    return rem + [QQ(0)] * (field.degree - len(rem))


def _exact(coords):
    assert all(type(c) is QQ for c in coords)
    return [(c.numerator, c.denominator) for c in coords]


_ENTRIES = {
    "zero": st.just(0),
    "integral": st.integers(-10 ** 6, 10 ** 6),
    "rational": st.fractions(min_value=-50, max_value=50, max_denominator=12),
}


@st.composite
def _entries(draw, min_size, max_size):
    # all zero, all integers, or rationals that may have denominators
    kind = draw(st.sampled_from(sorted(_ENTRIES)))
    return draw(st.lists(_ENTRIES[kind], min_size=min_size, max_size=max_size))


class TestIntegerReduction:
    """Products and from_int_poly reduce on ints; long division on
    Fractions is the reference, coordinate for coordinate."""

    @pytest.mark.parametrize("degree", [1, 3, 14])
    @given(data=st.data())
    def test_product_matches_divmod(self, degree, data):
        field = _reduction_field(degree)
        a, b = (
            field.from_coords(data.draw(_entries(degree, degree))) for _ in range(2)
        )
        want = _divmod_coords(field, _fraction_product(a.coords, b.coords))
        assert _exact((a * b).coords) == _exact(want)

    @pytest.mark.parametrize("degree", [1, 3, 14])
    @given(coeffs=st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=30))
    def test_from_int_poly_matches_divmod(self, degree, coeffs):
        field = _reduction_field(degree)
        got = field.from_int_poly(IntPoly(coeffs))
        assert _exact(got.coords) == _exact(_divmod_coords(field, coeffs))

    def test_no_polynomial_division(self, monkeypatch):
        # products, inverses and Galois images reduce coordinates; none of
        # them divides one polynomial by another
        field = _reduction_field(14)
        a = field.from_coords(range(14)) * QQ(1, 3)
        b = field.gen() + 2
        sigma = galois_sigma(field)

        def forbidden(*args):
            raise AssertionError("polynomial division")

        for name in ("int_poly_exact_div", "_pseudo_remainder"):
            monkeypatch.setattr(polynomials_module, name, forbidden)
        assert a * b == b * a
        assert a * a.inverse() == field.one()
        assert sigma(a * b) == sigma(a) * sigma(b)
        assert field.from_int_poly(IntPoly((0,) * 20 + (1,))) == field.gen() ** 20


def _fraction_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _euclid_inverse(field, coords):
    """FieldElem.inverse as it was before it read the minimal polynomial,
    frozen: the extended Euclid of the coordinates against the field
    polynomial on Fractions, tracking u with u*a == gcd modulo minpoly."""
    r0, r1 = _fraction_trim(coords), [QQ(c) for c in field.minpoly.coeffs]
    u0, u1 = [QQ(1)], []
    while r1:
        q, r = _fraction_divmod(r0, r1)
        r0, r1 = r1, _fraction_trim(r)
        qu = _fraction_product(q, u1) if q and u1 else []
        n = max(len(u0), len(qu))
        u0, u1 = u1, _fraction_trim(
            (u0[i] if i < len(u0) else 0) - (qu[i] if i < len(qu) else 0)
            for i in range(n)
        )
    assert len(r0) == 1
    return _divmod_coords(field, [c / r0[0] for c in u0])


@lru_cache(maxsize=None)
def _inverse_field(name):
    return field_new(
        {
            "x3-x-1": PLASTIC,
            "x2-5": IntPoly((-5, 0, 1)),
            "x4-x-1": IntPoly((-1, -1, 0, 0, 1)),
            "m19": real_subfield_minpoly(19),
        }[name]
    )


@pytest.mark.parametrize("name", ["x3-x-1", "x2-5", "x4-x-1", "m19"])
@given(data=st.data())
def test_inverse_matches_the_fraction_euclid(name, data):
    # the inverse read off the minimal polynomial is the one the extended
    # Euclid found, coordinate for coordinate
    field = _inverse_field(name)
    coords = data.draw(_entries(field.degree, field.degree))
    a = field.from_coords(coords)
    assume(a)
    inv = a.inverse()
    assert a * inv == 1
    assert _exact(inv.coords) == _exact(_euclid_inverse(field, a.coords))


class TestMinimalPolynomial:
    def test_generator(self, m7):
        assert minimal_polynomial(m7.gen()) == M7

    def test_rational(self, m7):
        assert minimal_polynomial(m7.from_rational(QQ(5))) == IntPoly((-5, 1))
        assert minimal_polynomial(m7.from_rational(QQ(-5, 3))) == IntPoly((5, 3))

    def test_primitive_integer_multiple(self, m7):
        # alpha/2 is a root of (2x)^3 + (2x)^2 - 2(2x) - 1, already primitive
        assert minimal_polynomial(m7.gen() * QQ(1, 2)) == IntPoly((-1, -4, 4, 8))
        # 1/2 - alpha/4 over x^2 + x - 1 is (5 - sqrt5)/8: 16x^2 - 20x + 5
        golden = field_new(GOLDEN)
        b = golden.from_coords((QQ(1, 2), QQ(-1, 4)))
        assert minimal_polynomial(b) == IntPoly((5, -20, 16))

    def test_frozen_quadratic_sum(self, m7):
        # beta = alpha + alpha^2 has minimal polynomial x^3 - 4x^2 + 3x + 1
        alpha = m7.gen()
        beta = alpha + alpha ** 2
        got = minimal_polynomial(beta)
        assert got == IntPoly((1, 3, -4, 1))
        # independent oracle from the defining real number
        x = sympy.Symbol("x")
        root = 2 * sympy.cos(2 * sympy.pi / 7)
        expected = sympy.minimal_polynomial(root + root ** 2, x)
        assert sympy.Poly(expected, x).all_coeffs() == [1, -4, 3, 1]


    def test_derived_once_per_element_across_equal_fields(self, minpoly_derivations):
        # equal elements of two separately built fields share one result;
        # field_new keeps one field per polynomial, so the second is built
        # directly
        a = field_new(IntPoly((-2, 0, 1))).from_coords((1, 1))
        b = NumberField(IntPoly((-2, 0, 1)), "irreducible").from_coords((1, 1))
        assert a.field is not b.field
        assert minimal_polynomial(a) is minimal_polynomial(b)
        assert minimal_polynomial(a) == IntPoly((-1, -2, 1))
        assert len(minpoly_derivations) == 1
        # the same coordinates over x^2 - 3 are a different element
        c = field_new(IntPoly((-3, 0, 1))).from_coords((1, 1))
        assert minimal_polynomial(c) == IntPoly((-2, -2, 1))
        assert len(minpoly_derivations) == 2


class TestUnits:
    def test_generator_is_unit(self, m7):
        assert is_unit(m7.gen())
        assert is_unit(m7.gen() + 1)
        assert is_unit(m7.gen() + m7.gen() ** 2)

    def test_non_units(self, m7):
        assert not is_unit(m7.zero())
        assert not is_unit(m7.from_rational(2))
        assert not is_unit(2 * m7.gen())
        assert not is_unit(m7.gen() * QQ(1, 2))
        with pytest.raises(NonUnitError):
            require_unit(m7.from_rational(3))

    def test_determinant_agrees_with_minimal_polynomial(self, m7, monkeypatch):
        # integral coordinates are decided by |det| = 1 without a minimal
        # polynomial; phi = (1 + a)/2 over x^2 - 5 is a unit that is not
        alpha = m7.gen()
        phi = field_new(IntPoly((-5, 0, 1))).from_coords((QQ(1, 2), QQ(1, 2)))
        cases = {
            alpha: True,
            alpha + 1: True,
            alpha ** -3: True,
            phi: True,
            m7.from_rational(2): False,
            3 * alpha: False,
            m7.zero(): False,
            alpha * QQ(1, 2): False,
        }
        for a, unit in cases.items():
            mp = minimal_polynomial(a)
            assert (mp.is_monic() and abs(mp.constant()) == 1) == unit
        derived = []

        def recording(a):
            derived.append(a)
            return minimal_polynomial(a)

        monkeypatch.setattr(numberfield_module, "minimal_polynomial", recording)
        assert {a: is_unit(a) for a in cases} == cases
        assert derived == [phi, alpha * QQ(1, 2)]

    @given(_coords(st.integers(-2, 2)))
    def test_determinant_agrees_on_integral_elements(self, ca):
        a = field_new(M7).from_coords(ca)
        mp = minimal_polynomial(a)
        assert is_unit(a) == (mp.is_monic() and abs(mp.constant()) == 1)

    def test_unit_closure(self, m7):
        alpha = m7.gen()
        assert is_unit(alpha.inverse())
        assert is_unit(alpha * (alpha + 1))


class TestGalois:
    def test_cubic_generator_golden(self, m7):
        sigma = galois_sigma(m7)
        image = sigma(m7.gen())
        assert image.coords == (-2, 0, 1)
        # orbit of the generator: alpha -> alpha^2 - 2 -> -alpha^2 - alpha + 1
        second = sigma(image)
        assert second.coords == (1, -1, -1)
        assert sigma(second) == m7.gen()

    def test_quadratic_shortcut(self):
        field = field_new(GOLDEN)
        image = galois_sigma(field)(field.gen())
        assert image.coords == (-1, -1)
        assert _order(image) == 2

    @pytest.mark.parametrize(
        "minpoly",
        [
            IntPoly((-2, 0, 1)),  # x^2 - 2: normal, not cyclotomic
            PLASTIC,  # not normal
            IntPoly((1, 1, 0, 0, 1)),  # x^4 + x + 1: not normal, not real
            IntPoly((1, 0, -10, 0, 1)),  # Q(sqrt 2, sqrt 3): not cyclic
        ],
        ids=["x2-2", "plastic", "x4+x+1", "x4-10x2+1"],
    )
    def test_only_real_cyclotomic_subfields(self, minpoly):
        field = NumberField(minpoly, "assumed by the test")
        with pytest.raises(InputError):
            galois_generator(field, trace_polys(field.degree))

    def test_traces_must_be_the_fields_own(self, m7):
        # the field polynomial is checked against the list g is read off
        with pytest.raises(InputError):
            galois_generator(m7, trace_polys(4))
        with pytest.raises(InputError):
            galois_generator(field_new(GOLDEN), trace_polys(3))

    @pytest.mark.parametrize("m", [m for m in range(5, 32) if is_prime(m)])
    def test_generator_matches_orbit_oracle(self, m):
        # every conjugate of alpha = 2cos(2pi/m) is c_g(alpha), built here
        # from the recurrence c_{k+1} = alpha c_k - c_{k-1}; the generators
        # are the conjugates whose map has full order d
        field = field_new(real_subfield_minpoly(m))
        d = field.degree
        alpha = field.gen()
        traces = [field.from_rational(2), alpha]
        while len(traces) <= d:
            traces.append(alpha * traces[-1] - traces[-2])
        generators = [c for c in traces[2:] if _order(c) == d]
        want = min(generators, key=lambda c: c.coords)
        assert galois_sigma(field)(alpha) == want
        # the residue g names the image: c_g(alpha)
        assert traces[galois_generator(field, trace_polys(d))] == want

    def test_degree_one_identity(self):
        field = field_new(IntPoly((-2, 1)))  # x - 2, the rationals
        assert field.signature == (1, 0)
        assert field.gen() == field.from_rational(2)
        assert galois_generator(field, trace_polys(1)) == 1
        image = galois_sigma(field)(field.gen())
        assert image == field.gen()
        assert _order(image) == 1

    # the conductors of the stored exfield --n 16/20/40 and dmatrix --n 7/8
    # reports, 37, 43, 83 and 19, are among these
    @pytest.mark.parametrize("m", [m for m in range(5, 44) if is_prime(m)] + [83])
    def test_generator_image_is_a_root(self, m):
        # galois_generator checks no root because c_g(alpha) is a conjugate
        # of alpha; the FieldElem Horner it skips agrees
        field = NumberField(real_subfield_minpoly(m), "real cyclotomic subfield")
        image = galois_sigma(field)(field.gen())
        assert field.minpoly(image) == field.zero()


class TestRankBound:
    def test_dirichlet_bound(self, m7):
        assert dirichlet_rank_bound(m7) == 2
        assert dirichlet_rank_bound(field_new(PLASTIC)) == 1
        assert dirichlet_rank_bound(field_new(GOLDEN)) == 1


class TestFieldIdentity:
    def test_equality_and_hash(self, m7):
        again = field_new(M7)
        assert m7 == again
        assert hash(m7) == hash(again)
        assert m7 != field_new(GOLDEN)

    def test_immutable(self, m7):
        with pytest.raises(AttributeError):
            m7.degree = 5
        alpha = m7.gen()
        with pytest.raises(AttributeError):
            alpha.coords = ()
