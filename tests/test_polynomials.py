"""Exact polynomial layer: ring ops, domain constructions, root isolation.

Oracles: sympy recomputes cyclotomic and minimal polynomials independently,
mpmath supplies high-precision numeric roots.  Expected values are frozen as
literals; the oracle assertions document where they came from.
"""

import json
import math
from pathlib import Path

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given
from hypothesis import strategies as st

from fractions import Fraction as QQ

import lcpforge.polynomials as polynomials_module
from lcpforge.errors import InputError
from lcpforge.numberfield import irreducibility_heuristic
from lcpforge.polynomials import (
    IntPoly,
    _dyadic_parts,
    _prs,
    _pseudo_remainder,
    _scaled_horner,
    _sign_changes,
    _without_content,
    SturmChain,
    cauchy_root_bound,
    as_rat,
    int_poly_exact_div,
    is_prime,
    isolate_real_roots,
    poly_from_json,
    poly_from_string,
    poly_to_json,
    poly_to_string,
    rat_from_json,
    rat_to_json,
    refine_root,
    sign,
    sign_at,
    sturm_chain,
    trace_polys,
)
from oracles import real_subfield_minpoly

ZZ = int
X = IntPoly((0, 1))


def sympy_poly(p):
    x = sympy.Symbol("x")
    return sympy.Poly([int(c) for c in reversed(p.coeffs)], x)


# ----------------------------------------------------------------------
# ring arithmetic


def test_basic_ring_ops():
    p = IntPoly((-1, -2, 1, 1))  # x^3 + x^2 - 2x - 1
    assert p.degree == 3
    assert p.is_monic()
    assert (p + (-p)).coeffs == ()
    assert p * 1 == p
    assert (p * p).degree == 6
    assert p(2) == 8 + 4 - 4 - 1
    assert p(QQ(1, 2)) == QQ(1, 8) + QQ(1, 4) - 1 - 1


def test_coefficients_must_be_integral():
    assert IntPoly((QQ(4, 2), 1)) == IntPoly((2, 1))
    with pytest.raises(InputError):
        IntPoly((QQ(4, 2), True))
    with pytest.raises(InputError):
        IntPoly((QQ(1, 2), 1))
    with pytest.raises(InputError):
        IntPoly((-1.9, 0, 1))


def test_rational_coefficients_reject_floats():
    # as_rat admits the rational coordinates of field elements and sealed
    # rationals: ints, bools and Fractions, never a binary float
    assert [as_rat(True), as_rat(3), as_rat(QQ(1, 2))] == [QQ(1), QQ(3), QQ(1, 2)]
    assert type(as_rat(3)) is QQ
    for bad in (0.1, 0.5, mpmath.mpf(1)):
        with pytest.raises(InputError):
            as_rat(bad)


def test_rat_to_json_rejects_floats():
    # 0.1 would be sealed as its binary expansion, 3602879701896397/2^55
    assert [rat_to_json(3), rat_to_json(QQ(-1, 2))] == ["3", "-1/2"]
    for bad in (0.1, 2.5, mpmath.mpf(1)):
        with pytest.raises(InputError):
            rat_to_json(bad)


small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(IntPoly)


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a - b) + b == a


@given(small_polys, small_polys, st.integers(-4, 4))
def test_evaluation_is_ring_hom(a, b, x):
    assert (a * b)(x) == a(x) * b(x)
    assert (a + b)(x) == a(x) + b(x)


A_INT = IntPoly((1, 2))  # 1 + 2x
B_INT = IntPoly((1, 0, 3))  # 1 + 3x^2


@pytest.mark.parametrize(
    "expr,want",
    [
        (lambda: A_INT + B_INT, IntPoly((2, 2, 3))),
        (lambda: B_INT + A_INT, IntPoly((2, 2, 3))),
        (lambda: A_INT - B_INT, IntPoly((0, 2, -3))),
        (lambda: B_INT - A_INT, IntPoly((0, -2, 3))),
        (lambda: B_INT * A_INT, IntPoly((1, 2, 3, 6))),
        (lambda: A_INT * B_INT, IntPoly((1, 2, 3, 6))),
        (lambda: A_INT * 3 - 1, IntPoly((2, 6))),
        (lambda: 1 - A_INT, IntPoly((0, -2))),
        (lambda: 2 * B_INT + 1, IntPoly((3, 0, 6))),
        (lambda: A_INT.derivative(), IntPoly((2,))),
        (lambda: B_INT.derivative(), IntPoly((0, 6))),
        (lambda: IntPoly((1, 2)) == A_INT, True),
        (lambda: IntPoly((5,)) == 5, True),
        (lambda: A_INT == B_INT, False),
        (lambda: hash(IntPoly((1, 2))) == hash(A_INT), True),
        (lambda: A_INT * QQ(1, 2), TypeError),
        (lambda: QQ(1, 2) * A_INT, TypeError),
        (lambda: 0.5 - A_INT, TypeError),
        (lambda: A_INT + QQ(2), TypeError),
    ],
)
def test_int_and_rat_polys_mix_by_one_rule(expr, want):
    # IntPoly is the one polynomial class, and one rule decides an operand:
    # an int lifts to a constant polynomial, while a rational operand, a
    # Fraction equal to an integer included, or a float is refused rather
    # than truncated
    if want is TypeError:
        with pytest.raises(TypeError):
            expr()
        return
    got = expr()
    assert type(got) is type(want)
    assert getattr(got, "coeffs", got) == getattr(want, "coeffs", want)


def test_bool_operands_are_refused():
    # a bool is an int subclass, but not an integer coefficient: it is
    # refused like a float rather than read as 0 or 1
    for expr in (lambda: A_INT + True, lambda: False * A_INT):
        with pytest.raises(TypeError):
            expr()
    assert (IntPoly((1,)) == True) is False  # noqa: E712


def test_exact_division_errors():
    with pytest.raises(InputError):
        int_poly_exact_div(IntPoly((1, 1)), IntPoly((0, 2)))
    # a non-monic divisor with an integer quotient divides exactly
    den = IntPoly((2, 2))
    assert int_poly_exact_div(den * IntPoly((1, 3)), den) == IntPoly((1, 3))
    # (x + 1) / (2x + 2) = 1/2 leaves no remainder but needs a denominator
    with pytest.raises(InputError, match="denominators"):
        int_poly_exact_div(IntPoly((1, 1)), den)
    # x^2 + 1 = (x + 1)(x - 1) + 2
    with pytest.raises(InputError, match="remainder"):
        int_poly_exact_div(IntPoly((1, 0, 1)), IntPoly((1, 1)))


# ----------------------------------------------------------------------
# cyclotomic and real subfield constructions


def test_real_subfield_minpoly_frozen():
    # degree (m-1)/2 minimal polynomials of 2*cos(2*pi/m)
    assert real_subfield_minpoly(5) == IntPoly((-1, 1, 1))  # x^2 + x - 1
    assert real_subfield_minpoly(7) == IntPoly((-1, -2, 1, 1))  # x^3+x^2-2x-1


@pytest.mark.parametrize("m", [5, 7, 11, 13])
def test_real_subfield_minpoly_vs_sympy(m):
    x = sympy.Symbol("x")
    alpha = 2 * sympy.cos(2 * sympy.pi / m)
    want = sympy.Poly(sympy.minimal_polynomial(alpha, x), x).all_coeffs()
    got = [int(c) for c in reversed(real_subfield_minpoly(m).coeffs)]
    assert got == want


@pytest.mark.parametrize("m", [m for m in range(5, 62) if is_prime(m)])
def test_real_subfield_minpoly_is_an_irreducible_unit_polynomial(m):
    # exfield and dmatrix build their field from this polynomial without
    # the modular heuristic, on the theorem that it is the minimal
    # polynomial of 2cos(2*pi/m); sympy and the heuristic both agree, and
    # the constant term +-1 makes its root a unit
    p = real_subfield_minpoly(m)
    assert p.degree == (m - 1) // 2
    assert sympy_poly(p).is_irreducible
    assert irreducibility_heuristic(p)[0] == "irreducible"
    assert abs(p.constant()) == 1


@pytest.mark.parametrize("m", [3, 5, 7, 11, 13])
def test_real_subfield_resubstitution(m):
    # x^d * psi(x + 1/x) must rebuild Phi_m exactly
    psi = real_subfield_minpoly(m)
    d = psi.degree
    acc = IntPoly(())
    x2p1 = IntPoly((1, 0, 1))  # x^2 + 1, since (x + 1/x)^k x^k = (x^2+1)^k
    for k, c in enumerate(psi.coeffs):
        acc = acc + x2p1 ** k * IntPoly((0,) * (d - k) + (int(c),))
    x = sympy.Symbol("x")
    want = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()
    assert [int(c) for c in reversed(acc.coeffs)] == want


def test_real_subfield_rejects_bad_index():
    for m in (4, 9, 15, 2):
        with pytest.raises(InputError):
            real_subfield_minpoly(m)


@given(st.integers(0, 12), st.integers(2, 7))
def test_trace_poly_identity(k, z_num):
    # c_k(z + 1/z) == z^k + z^-k checked at rational points z = z_num
    z = QQ(z_num)
    lhs = trace_polys(k)[k](z + 1 / z)
    assert lhs == z ** k + z ** (-k)


# ----------------------------------------------------------------------
# text and JSON forms


def test_poly_text_parse():
    assert poly_from_string("x^3+x^2-2x-1") == IntPoly((-1, -2, 1, 1))
    assert poly_from_string("x^2 - 3*x + 1") == IntPoly((1, -3, 1))
    assert poly_from_string("-x") == IntPoly((0, -1))
    assert poly_from_string("7") == IntPoly((7,))
    assert poly_from_string("X^2+1") == IntPoly((1, 0, 1))
    with pytest.raises(InputError):
        poly_from_string("x^2 + + 1")
    with pytest.raises(InputError):
        poly_from_string("x + y")
    with pytest.raises(InputError):
        poly_from_string("y^2")
    with pytest.raises(InputError):
        poly_from_string("")


@given(small_polys)
def test_poly_text_round_trip(p):
    assert poly_from_string(poly_to_string(p)) == p


@given(small_polys)
def test_poly_json_round_trip(p):
    assert poly_from_json(poly_to_json(p)) == p


def test_poly_json_layout():
    # lowest degree first, decimal strings
    assert poly_to_json(IntPoly((-1, -2, 1, 1))) == ["-1", "-2", "1", "1"]


# ----------------------------------------------------------------------
# squarefree machinery


def _prs_gcd(a, b):
    """The primitive gcd with positive leading term: the last member of the
    pseudo-remainder sequence of a and b."""
    return IntPoly(_prs(a.coeffs, b.coeffs)[-1]).primitive()


def test_squarefree_part():
    p = IntPoly((0, 1)) ** 2 * IntPoly((-1, 1)) ** 3 * IntPoly((1, 0, 1))
    sf = sturm_chain(p).polys[0]
    assert sf == (IntPoly((0, 1)) * IntPoly((-1, 1)) * IntPoly((1, 0, 1))).primitive()


def test_poly_gcd():
    a = IntPoly((-1, 0, 1))  # x^2 - 1
    b = IntPoly((2, 2))  # 2x + 2
    assert _prs_gcd(a, b) == IntPoly((1, 1))
    assert _prs_gcd(-b, a) == IntPoly((1, 1))
    assert _prs_gcd(a, IntPoly((1, 0, 1))) == IntPoly((1,))
    assert _prs_gcd(IntPoly(()), IntPoly(())) == IntPoly(())


def _fraction_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _fraction_divmod(a, b):
    """Long division of Fraction coefficient lists, lowest degree first,
    b trimmed and nonzero: the test-local reference for every integer
    pseudo-remainder."""
    rem, q = [QQ(c) for c in a], []
    while len(rem) >= len(b):
        factor = rem[-1] / b[-1]
        q.append(factor)
        for i, c in enumerate(b):
            rem[len(rem) - len(b) + i] -= factor * c
        rem.pop()
    return q[::-1], _fraction_trim(rem)


def _primitive_of(coeffs):
    """The primitive integer multiple of Fraction coefficients, with the
    sign of their leading term."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    p = IntPoly(int(c * den) for c in coeffs).primitive()
    return -p if coeffs and coeffs[-1] < 0 else p


def _fraction_gcd(a, b):
    """The polynomial gcd before the integer rewrite: the Euclidean algorithm by
    long division on Fractions.  Its gcd, made primitive with positive
    leading term, is the reference."""
    a, b = _fraction_trim(map(QQ, a.coeffs)), _fraction_trim(map(QQ, b.coeffs))
    while b:
        a, b = b, _fraction_divmod(a, b)[1]
    return _primitive_of(a).primitive()


@example(IntPoly(()), IntPoly(()), IntPoly((3,)), QQ(1))
@example(IntPoly((2, -3)), IntPoly(()), IntPoly((0, 0, 7)), QQ(-2, 9))
@given(small_polys, small_polys, small_polys, st.fractions().filter(bool))
def test_poly_gcd_matches_the_fraction_euclid(f, a, b, scale):
    # a common factor f, zero operands, constants, non-monic and non-primitive
    # inputs, and integer multiples of both sides
    x, y = f * a, f * b
    want = _fraction_gcd(x, y)
    n, d = scale.numerator, scale.denominator
    for got in (_prs_gcd(x, y), _prs_gcd(y, x), _prs_gcd(x * n, y * d)):
        assert got == want
        assert not got.coeffs or got.leading() > 0


def test_poly_gcd_does_not_divide_polynomials(forbid_fractions):
    # gcds, squarefree parts and Sturm chains run on ints alone: no
    # Fraction, so no division over Q, even at degree 41
    p = real_subfield_minpoly(83)
    assert _prs_gcd(p, p.derivative()) == IntPoly((1,))
    assert _prs_gcd(p * p, p.derivative() * p) == p
    assert sturm_chain(p * p * IntPoly((3,))).polys[0] == p
    assert len(SturmChain(p).polys) == 42
    assert sturm_chain(p * p).count_all() == 41
    q = IntPoly((1, 3)) * real_subfield_minpoly(41)
    assert sturm_chain(q * q * IntPoly((2, 2))).polys[0] == q * IntPoly((1, 1))


def _fraction_sturm_chain(p):
    """SturmChain before the integer rewrite, frozen: the chain of the
    squarefree part by long division on Fractions, each member then made
    primitive over Z with the sign of its leading term, as a tuple."""
    p0 = sturm_chain(p).polys[0]
    chain = [
        _fraction_trim(map(QQ, p0.coeffs)),
        _fraction_trim(map(QQ, p0.derivative().coeffs)),
    ]
    while chain[-1]:
        chain.append([-c for c in _fraction_divmod(chain[-2], chain[-1])[1]])
    chain.pop()  # the zero terminator
    return tuple(_primitive_of(q) for q in chain)


sturm_polys = st.one_of(
    # dense and sparse, non-monic, degree 1..12; a sparse one skips degrees
    # in its chain, where a pseudo-remainder takes an odd number of steps
    st.lists(
        st.one_of(st.integers(-40, 40), st.just(0)), min_size=2, max_size=13
    )
    .filter(lambda c: c[-1] != 0)
    .map(IntPoly),
    # repeated factors
    st.tuples(small_polys, small_polys)
    .map(lambda t: t[0] * t[0] * t[1])
    .filter(lambda p: 1 <= p.degree <= 12),
)


@example(IntPoly((0, 0, 0, 5)))
# x^3 + x: the chain's -x divides 3x^2 + 1 in one scaled step, so a
# pseudo-remainder by a negative-leading divisor would flip the last sign
@example(IntPoly((0, 1, 0, 1)))
@example(IntPoly((0, -3, 0, 0, 0, 2)))
@example(IntPoly((-4, 0, 1)) ** 2 * IntPoly((1, -3)))
@given(sturm_polys)
def test_sturm_chain_matches_the_fraction_chain(p):
    assert SturmChain(p).polys == _fraction_sturm_chain(p)


@pytest.mark.parametrize("m", [m for m in range(3, 84) if is_prime(m)])
def test_sturm_chain_of_real_subfields_matches_the_fraction_chain(m):
    p = real_subfield_minpoly(m)
    chain = SturmChain(p).polys
    assert chain == _fraction_sturm_chain(p)
    assert chain[0] == p and chain[-1].degree == 0
    assert sturm_chain(p).count_all() == p.degree


# ----------------------------------------------------------------------
# Sturm counting and isolation


@example(IntPoly((3, -2, 0, 5)), -7, 0)
@example(IntPoly((3, -2, 0, 5)), -1, 3)
@example(IntPoly((4,)), -9, 5)
@example(IntPoly(()), 3, 2)
@given(small_polys, st.integers(-(10 ** 6), 10 ** 6), st.integers(0, 40))
def test_scaled_horner_matches_rational_horner(p, n, k):
    # p(n / 2**k) * 2**(k*deg), negative n and k = 0 included
    want = p(QQ(n, ZZ(1) << k)) * (ZZ(1) << (k * max(p.degree, 0)))
    assert _scaled_horner(p.coeffs, n, k) == want


def test_sign_at_dyadic_matches_rational():
    p = IntPoly((-1, -2, 1, 1))
    for q in (QQ(0), QQ(1, 2), QQ(-3, 4), QQ(5), QQ(-2), QQ(1, 3), QQ(7, 3)):
        want = 0 if p(q) == 0 else (1 if p(q) > 0 else -1)
        assert sign_at(p, q) == want


def test_root_functions_reject_floats():
    # a float would be read as its binary expansion: 0.1 is not 1/10
    p = IntPoly((-2, 0, 1))
    with pytest.raises(InputError):
        sign_at(p, 0.1)
    with pytest.raises(InputError):
        refine_root(p, 1.1, 2.0, bits=20)


@pytest.mark.parametrize(
    "coeffs,count",
    [
        ((-1, -2, 1, 1), 3),  # totally real cubic
        ((-1, -1, 0, 1), 1),  # x^3 - x - 1 has one real root
        ((1, 0, 1), 0),  # x^2 + 1
        ((-2, 0, 1), 2),  # x^2 - 2
        ((1, -3, 1), 2),  # x^2 - 3x + 1
    ],
)
def test_count_real_roots(coeffs, count):
    p = IntPoly(coeffs)
    assert sturm_chain(p).count_all() == count
    # sympy oracle
    assert len(sympy_poly(p).real_roots()) == len(set(sympy_poly(p).real_roots()))
    assert count == len(set(sympy_poly(p).real_roots()))


def test_cauchy_bound_contains_roots():
    p = IntPoly((-1, -2, 1, 1))
    b = cauchy_root_bound(p)
    chain = SturmChain(p)
    assert chain.count_in(QQ(-b), QQ(b)) == 3


def test_isolation_m7():
    # roots of x^3 + x^2 - 2x - 1 are 2*cos(2*pi*k/7), k = 1, 2, 3
    p = IntPoly((-1, -2, 1, 1))
    intervals = isolate_real_roots(p)
    assert len(intervals) == 3
    mpmath.mp.prec = 80
    roots = sorted(2 * mpmath.cos(2 * mpmath.pi * k / 7) for k in (1, 2, 3))
    for (lo, hi), root in zip(intervals, roots):
        assert mpmath.mpf(int(lo.numerator)) / int(lo.denominator) <= root
        assert root <= mpmath.mpf(int(hi.numerator)) / int(hi.denominator)
    # intervals are disjoint and ascending
    for (a, b), (c, d) in zip(intervals, intervals[1:]):
        assert b <= c


def test_isolation_exact_rational_roots():
    # x * (x^2 - 2): the first bisection midpoint 0 is a root and must be
    # returned as an exact point without breaking the neighbours
    p = IntPoly((0, -2, 0, 1))
    intervals = isolate_real_roots(p)
    assert len(intervals) == 3
    assert (QQ(0), QQ(0)) in intervals
    # rational roots not sitting on a midpoint still get isolated correctly
    q = IntPoly((-1, 1)) * IntPoly((-2, 1)) * IntPoly((-1, 2))
    ivs = isolate_real_roots(q)
    assert len(ivs) == 3
    for root, (lo, hi) in zip((QQ(1, 2), QQ(1), QQ(2)), ivs):
        lo, hi = refine_root(q, lo, hi, 60)
        assert lo <= root <= hi and hi - lo <= QQ(1, ZZ(1) << 60)


def test_isolation_handles_multiplicities():
    p = IntPoly((-1, 1)) ** 3 * IntPoly((-2, 0, 1))
    intervals = isolate_real_roots(p)
    assert len(intervals) == 3  # distinct roots 1, +-sqrt(2)


def _parent_sturm_chain(p):
    """SturmChain and the squarefree part before the chain read one sequence,
    frozen: a primitive pseudo-remainder gcd with p', an exact division
    when it is not constant, then a third sequence for the chain.  Returns
    (chain as a tuple, whether gcd(p, p') is constant)."""

    def gcd_of(a, b):
        a, b = a.primitive().coeffs, b.primitive().coeffs
        while b:
            a, b = b, IntPoly(_pseudo_remainder(a, b)).primitive().coeffs
        return IntPoly(a)

    sf = p.primitive()
    g = gcd_of(sf, sf.derivative())
    if g.degree > 0:
        sf = int_poly_exact_div(sf, g)
    a, b = sf.coeffs, _without_content(sf.derivative().coeffs)
    chain = [a]
    while b:
        chain.append(b)
        r = _pseudo_remainder(a, b if b[-1] > 0 else [-c for c in b])
        a, b = b, _without_content([-c for c in r])
    return tuple(IntPoly(c) for c in chain), g.degree == 0


def _parent_count_in(chain, lo, hi):
    def variations(x):
        return _sign_changes(sign_at(q, x) for q in chain)

    return variations(lo) - variations(hi)


def _parent_exclusion_radius(p, root):
    """_exclusion_radius before it read the chain of p, frozen: divide out
    the root's linear factor and halve eps until the quotient's own chain
    has no root in (root - eps, root + eps]."""
    rest = int_poly_exact_div(p, IntPoly((-root.numerator, root.denominator)))
    eps = QQ(1, 2)
    while True:
        chain = _parent_sturm_chain(rest)[0]
        if _parent_count_in(chain, root - eps, root + eps) == 0:
            return eps
        eps = eps / 2


def _parent_isolate_real_roots(p):
    """isolate_real_roots before the chain was shared, frozen."""
    chain = _parent_sturm_chain(p)[0]
    sf = chain[0]
    if sf.degree <= 0:
        return []
    bound = cauchy_root_bound(sf)
    lo, hi = QQ(-bound), QQ(bound)
    total = _parent_count_in(chain, lo, hi)
    out = []

    def split(a, b, count):
        if count == 0:
            return
        if count == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        if sign_at(sf, mid) == 0:
            out.append((mid, mid))
            eps = _parent_exclusion_radius(sf, mid)
            la, lb = a, max(a, mid - eps)
            ra, rb = min(b, mid + eps), b
            if lb > la:
                split(la, lb, _parent_count_in(chain, la, lb))
            if rb > ra:
                split(ra, rb, _parent_count_in(chain, ra, rb))
            return
        left = _parent_count_in(chain, a, mid)
        split(a, mid, left)
        split(mid, b, count - left)

    split(lo, hi, total)
    out.sort(key=lambda iv: (iv[0], iv[1]))
    return out


def _dyadic_product(factors, cofactor, squared):
    # prod (2**k * x - a) * cofactor, times the first `squared` factors
    # again, so that some inputs are not squarefree
    p = cofactor
    for a, k in factors + factors[:squared]:
        p = p * IntPoly((-a, 1 << k))
    return p


dyadic_root_polys = st.builds(
    _dyadic_product,
    st.lists(st.tuples(st.integers(-12, 12), st.integers(0, 4)), min_size=1, max_size=6),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4)
    .filter(any)
    .map(IntPoly),
    st.integers(0, 2),
)


# root 0 is the first midpoint and -1/4 lies inside its first window
# (-1/2, 1/2] but not in (0, 1/2]; then roots on a window's edges: 1/2 on
# the right edge of (-1/2, 1/2], -1/2 on its open left edge, and a squared
# factor with a root at the edge of the halved window
@example(_dyadic_product([(0, 0), (-1, 2)], IntPoly((1,)), 0))
@example(_dyadic_product([(0, 0), (1, 1), (-1, 1)], IntPoly((1,)), 0))
@example(_dyadic_product([(0, 0), (1, 2), (3, 3)], IntPoly((1, 0, 1)), 2))
@example(_dyadic_product([(3, 2), (1, 1), (0, 0)], IntPoly((-2, 0, 1)), 1))
@given(dyadic_root_polys)
def test_isolation_matches_the_parent_design(p):
    # one chain per polynomial: the same chain, squarefree part, verdict
    # and isolating intervals as the three-sequence design with a divided
    # quotient chain per exclusion radius
    chain, squarefree = _parent_sturm_chain(p)
    got = SturmChain(p)
    assert got.polys == chain
    assert got.squarefree == squarefree
    assert sturm_chain(p).polys[0] == chain[0]
    assert isolate_real_roots(p) == _parent_isolate_real_roots(p)


def test_sturm_chain_is_immutable_and_cached():
    p = IntPoly((-1, 0, 1)) ** 2
    chain = sturm_chain(p)
    assert sturm_chain(IntPoly((-1, 0, 1)) ** 2) is chain
    assert not chain.squarefree
    assert chain.polys == (IntPoly((-1, 0, 1)), IntPoly((0, 1)), IntPoly((1,)))
    with pytest.raises(AttributeError):
        chain.squarefree = True


def test_refine_root_width_and_containment():
    p = IntPoly((-1, -1, 0, 1))  # x^3 - x - 1
    (lo, hi), = isolate_real_roots(p)
    lo, hi = refine_root(p, lo, hi, 200)
    assert hi - lo <= QQ(1, ZZ(1) << 200)
    mpmath.mp.prec = 260
    # plastic number oracle via mpmath's Newton solver
    root = mpmath.findroot(lambda t: t ** 3 - t - 1, mpmath.mpf("1.3"))
    lov = mpmath.mpf(int(lo.numerator)) / int(lo.denominator)
    hiv = mpmath.mpf(int(hi.numerator)) / int(hi.denominator)
    assert lov <= root <= hiv
    # frozen digits of the unique real root
    assert mpmath.nstr(lov, 12) == "1.32471795724"


@pytest.mark.parametrize("bits", [32, 96, 300])
def test_refine_root_sqrt2(bits):
    p = IntPoly((-2, 0, 1))
    intervals = isolate_real_roots(p)
    lo, hi = [iv for iv in intervals if iv[1] > 0][0]
    lo, hi = refine_root(p, lo, hi, bits)
    assert hi - lo <= QQ(1, ZZ(1) << bits)
    assert lo * lo <= 2 <= hi * hi


# Written by an earlier version of refine_root and never regenerated: the
# enclosures are sealed in certificates (at 128 + 32 and 1024 + 32 working
# bits), so a change to the refinement trajectory must bump the schema.
REFINE_DATA = Path(__file__).parent / "data" / "roots" / "refine_root.json"
REFINE_CASES = json.loads(REFINE_DATA.read_text())["cases"]


@pytest.mark.parametrize(
    "case", REFINE_CASES, ids=lambda c: "%s-%d" % (c["label"], c["bits"])
)
def test_refine_root_endpoints_are_pinned(case):
    p = poly_from_json(case["minpoly"])
    intervals = isolate_real_roots(p)
    assert len(intervals) == len(case["roots"])
    for (a, b), root in zip(intervals, case["roots"]):
        assert [a, b] == [rat_from_json(t) for t in root["isolating"]]
        lo, hi = refine_root(p, a, b, bits=case["bits"])
        assert [lo, hi] == [rat_from_json(t) for t in root["enclosure"]]


def test_refine_root_dyadic_roots():
    p = IntPoly((-1, 0, 4))  # roots +-1/2 are dyadic
    intervals = isolate_real_roots(p)
    assert len(intervals) == 2
    for lo, hi in intervals:
        a, b = refine_root(p, lo, hi, 50)
        assert b - a <= QQ(1, ZZ(1) << 50)
        root = QQ(1, 2) if b > 0 else QQ(-1, 2)
        assert a <= root <= b


def _fraction_refine_root(p, lo, hi, bits):
    """refine_root as it was before the integer rewrite, in Fraction
    arithmetic: the reference for the refinement trajectory."""
    sf = sturm_chain(p).polys[0]
    lo, hi = QQ(lo), QQ(hi)
    if lo == hi:
        return lo, hi
    target = QQ(1, ZZ(1) << bits)
    slo = sign_at(sf, lo)
    shi = sign_at(sf, hi)
    if slo == 0:
        return lo, lo
    if shi == 0:
        return hi, hi
    if slo == shi:
        raise InputError("interval endpoints do not bracket a sign change")
    dsf = sf.derivative()

    def width_bits(w):
        num, den = ZZ(w.numerator), ZZ(w.denominator)
        return int(den).bit_length() - int(num).bit_length()

    while hi - lo > target:
        mid = (lo + hi) / 2
        fpm = dsf(mid)
        if fpm != 0:
            fm = sf(mid)
            step = QQ(fm) / QQ(fpm)
            cand = mid - step
            if lo < cand < hi:
                k = max(8, 2 * max(1, width_bits(hi - lo)) + 8)
                scaled = cand * (ZZ(1) << k)
                n, d = ZZ(scaled.numerator), ZZ(scaled.denominator)
                cand = QQ((2 * n + d) // (2 * d), ZZ(1) << k)
                if lo < cand < hi:
                    sc = sign_at(sf, cand)
                    if sc == 0:
                        return cand, cand
                    if sc == slo:
                        lo = cand
                    else:
                        hi = cand
        mid = (lo + hi) / 2
        sm = sign_at(sf, mid)
        if sm == 0:
            return mid, mid
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _integer_refine_root(p, lo, hi, bits):
    """refine_root's integer loop as it was before the narrow enclosure,
    frozen verbatim: four exact evaluations per pass and the L*D, H*D test
    on every Newton candidate.  The reference for the trajectory."""
    lo, hi = QQ(lo), QQ(hi)
    if lo == hi:
        return lo, hi
    (L, el), (H, eh) = _dyadic_parts(lo), _dyadic_parts(hi)
    e = max(el, eh)
    L, H = L << (e - el), H << (e - eh)
    f, df = p.coeffs, p.derivative().coeffs
    slo = sign(_scaled_horner(f, L, e))
    shi = sign(_scaled_horner(f, H, e))
    if slo == 0:
        return lo, lo
    if shi == 0:
        return hi, hi
    if slo == shi:
        raise InputError("interval endpoints do not bracket a sign change")

    while (H - L) << bits > 1 << e:
        # Newton from the midpoint M/2**em.  With P = p'(mid)*2**(em*(d-1))
        # and F = p(mid)*2**(em*d), d = deg p, the candidate
        # M/2**em - p(mid)/p'(mid) is (M*P - F) / (P*2**em)
        M, em = L + H, e + 1
        P = _scaled_horner(df, M, em)
        if P != 0:
            F = _scaled_horner(f, M, em)
            N, D = M * P - F, P << em
            if D < 0:
                N, D = -N, -D
            if L * D < N << e < H * D:
                # round to nearest on the 2**-k grid, k about twice the
                # number of correct bits
                width_bits = e + 1 - (H - L).bit_length()
                k = max(8, 2 * max(1, width_bits) + 8)
                R = ((N << (k + 1)) + D) // (2 * D)
                if L << k < R << e < H << k:
                    sc = sign(_scaled_horner(f, R, k))
                    if sc == 0:
                        cand = QQ(R, 1 << k)
                        return cand, cand
                    if k > e:
                        L, H, e = L << (k - e), H << (k - e), k
                    R <<= e - k
                    if sc == slo:
                        L = R
                    else:
                        H = R
        # bisection keeps guaranteed progress regardless of Newton
        M, e = L + H, e + 1
        sm = sign(_scaled_horner(f, M, e))
        if sm == 0:
            mid = QQ(M, 1 << e)
            return mid, mid
        if sm == slo:
            L, H = M, H << 1
        else:
            L, H = L << 1, M
        # drop the trailing zero bits L and H share
        z = min(e, ((L | H) & -(L | H)).bit_length() - 1)
        L, H, e = L >> z, H >> z, e - z
    return QQ(L, 1 << e), QQ(H, 1 << e)


nonmonic_polys = st.tuples(
    st.lists(st.integers(-30, 30), min_size=1, max_size=7),
    st.integers(2, 12),
    st.sampled_from((1, -1)),
).map(lambda t: IntPoly(t[0] + [t[1] * t[2]]))


@given(nonmonic_polys, st.integers(8, 600), st.integers(0, 6))
def test_refine_root_follows_the_fraction_trajectory(p, bits, pick):
    # non-monic, degree 1..7: every endpoint equals the Fraction reference
    assume(sturm_chain(p).squarefree)
    intervals = isolate_real_roots(p)
    assume(intervals)
    lo, hi = intervals[pick % len(intervals)]
    assert refine_root(p, lo, hi, bits) == _fraction_refine_root(p, lo, hi, bits)


def _linear_factor_product(roots):
    # prod (d*x - n) over the distinct rationals n/d
    p = IntPoly((1,))
    for r in set(roots):
        p = p * IntPoly((-r.numerator, r.denominator))
    return p


squarefree_polys = st.one_of(
    st.tuples(
        st.lists(st.integers(-40, 40), min_size=1, max_size=9),
        st.integers(1, 9),
        st.sampled_from((1, -1)),
    ).map(lambda t: IntPoly(t[0] + [t[1] * t[2]])),
    # dyadic and non-dyadic rational roots
    st.lists(
        st.builds(
            QQ, st.integers(-60, 60), st.sampled_from((1, 2, 3, 4, 5, 7, 8, 16))
        ),
        min_size=1,
        max_size=9,
    ).map(_linear_factor_product),
)


@example(
    _linear_factor_product([QQ(3, 8), QQ(1, 3), QQ(-5, 7), QQ(2), QQ(-9, 16)]), 1056, 1
)
@example(real_subfield_minpoly(19), 1056, 4)
@given(squarefree_polys, st.integers(64, 1056), st.integers(0, 8))
def test_refine_root_follows_the_integer_trajectory(p, bits, pick):
    # degree 1..9 up to 1056 bits: every endpoint equals the frozen loop
    assume(sturm_chain(p).squarefree)
    intervals = isolate_real_roots(p)
    assume(intervals)
    lo, hi = intervals[pick % len(intervals)]
    assert refine_root(p, lo, hi, bits) == _integer_refine_root(p, lo, hi, bits)


@pytest.mark.parametrize(
    "coeffs,lo,hi",
    [
        (
            (-7, 0, 2),
            QQ(-571122831799375801, 1 << 58),
            QQ(-48633515955044997, 1 << 56),
        ),
        (
            (3, 9, 3),
            QQ(-143029325770021443, 1 << 57),
            QQ(-26753833493954101, 1 << 56),
        ),
    ],
)
def test_refine_root_tests_a_coarse_candidate_against_the_bracket(coeffs, lo, hi):
    # endpoints on a grid finer than the Newton grid (k < e): a candidate
    # N/D outside the bracket rounds to a grid point inside it, and only the
    # L*D, H*D test keeps it out
    p = IntPoly(coeffs)
    want = _fraction_refine_root(p, lo, hi, 40)
    assert _integer_refine_root(p, lo, hi, 40) == want
    assert refine_root(p, lo, hi, 40) == want


def _count_evaluations(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return _scaled_horner(*args)

    monkeypatch.setattr(polynomials_module, "_scaled_horner", counted)
    return calls


def test_refine_root_without_an_enclosure_evaluates_every_point(monkeypatch):
    # an uncertified enclosure leaves (A, B) at the bracket: the same loop
    # then evaluates every sign exactly, four evaluations a pass as before
    monkeypatch.setattr(
        polynomials_module, "_narrow_enclosure", lambda *args: None
    )
    calls = _count_evaluations(monkeypatch)
    p = IntPoly((-1, -1, 0, 1))
    want = _integer_refine_root(p, QQ(-2), QQ(2), 544)
    assert refine_root(p, QQ(-2), QQ(2), 544) == want
    assert len(calls) == 2180
    (lo, hi), = isolate_real_roots(p)
    assert refine_root(p, lo, hi, 300) == _integer_refine_root(p, lo, hi, 300)


@pytest.mark.parametrize(
    "coeffs,lo,hi,bits,before",
    [
        ((1, -3, 1), 0, 2, 1056, 4228),  # x^2 - 3x + 1
        ((-1, -1, 0, 1), -2, 2, 544, 2180),  # x^3 - x - 1
    ],
)
def test_refine_root_evaluates_twice_per_pass(
    monkeypatch, coeffs, lo, hi, bits, before
):
    # p and p' at the midpoint stay exact; the Newton point's and the
    # bisection point's signs are comparisons against the enclosure
    # (the loop without it made `before` evaluations)
    calls = _count_evaluations(monkeypatch)
    p = IntPoly(coeffs)
    assert refine_root(p, QQ(lo), QQ(hi), bits) == _integer_refine_root(
        p, QQ(lo), QQ(hi), bits
    )
    assert len(calls) <= 2 * bits + 64 < before


@given(nonmonic_polys, st.integers(8, 600), st.integers(0, 6), st.sampled_from((-1, 3, -6)))
def test_refine_root_ignores_a_constant_factor(p, bits, pick, c):
    # -p and the non-primitive c*p follow the trajectory of p
    assume(sturm_chain(p).squarefree)
    intervals = isolate_real_roots(p)
    assume(intervals)
    lo, hi = intervals[pick % len(intervals)]
    assert refine_root(IntPoly((c,)) * p, lo, hi, bits) == refine_root(p, lo, hi, bits)


@pytest.mark.parametrize(
    "coeffs,lo,hi,root",
    [
        # an endpoint is the root: returned before the loop
        ((-1, 2), QQ(1, 2), QQ(1), QQ(1, 2)),
        ((-1, 2), QQ(0), QQ(1, 2), QQ(1, 2)),
        # the Newton candidate from the midpoint 0 is the root -7/2
        ((7, 2), QQ(-5), QQ(5), QQ(-7, 2)),
        # (2x + 1)(x^2 + x + 1): in the second pass the bracket is
        # [-683/1024, -341/1024] after Newton, and its midpoint is -1/2
        ((1, 3, 3, 2), QQ(-3), QQ(3), QQ(-1, 2)),
    ],
)
def test_refine_root_exact_roots(coeffs, lo, hi, root):
    p = IntPoly(coeffs)
    assert refine_root(p, lo, hi, 20) == (root, root)
    assert _fraction_refine_root(p, lo, hi, 20) == (root, root)
