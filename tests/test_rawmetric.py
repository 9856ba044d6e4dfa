"""The dyadic kernel's rounding, add, mul, exp, division and elimination
against mpmath's, bit for bit.

The mp.mpf operators call the libmp functions bound in
mpmath.ctx_mp_python; the kernel must return the same normalized value for
every operand it can meet: at most prec bits each, any signs, exact
half-way ties, exact cancellation and exponent gaps past libmp's
sticky-bit shortcut in mpf_add (more than prec + 4 bits apart).  The
positive-definiteness elimination is compared, entry by entry, with the
loop of mp.mpf operators it replaced, and exp with libmp's mpf_exp, whose
steps it takes on ints.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import finf, fnan, fninf, from_man_exp, mpf_exp, round_nearest

import mpmath.ctx_mp_python
from lcpforge.errors import InputError
from lcpforge.rawmetric import (
    _abs_gt,
    _add,
    _div,
    _dot,
    _exp,
    _mul,
    _round,
    from_dyadic,
    positive_definite,
    to_dyadic,
)

_OPS = vars(mpmath.ctx_mp_python)
mpf_add, mpf_mul, mpf_pos = _OPS["mpf_add"], _OPS["mpf_mul"], _OPS["mpf_pos"]
mpf_div = _OPS["mpf_div"]
mpf_abs, mpf_cmp = _OPS["mpf_abs"], _OPS["mpf_cmp"]

PRECS = st.sampled_from([53, 160, 544, 1056])
EXPONENTS = st.integers(-3000, 3000)
SIGNS = st.sampled_from([1, -1])


def _raw(value):
    return from_man_exp(*value)


def _same(value, raw):
    return _raw(value) == raw


@st.composite
def _values(draw, prec, bits=None, exponents=EXPONENTS):
    """A nonzero pair of at most prec bits (exactly `bits` if given)."""
    bits = draw(st.integers(1, prec)) if bits is None else bits
    m = (1 << (bits - 1)) | draw(st.integers(0, (1 << (bits - 1)) - 1))
    return draw(SIGNS) * m, draw(exponents)


@st.composite
def _prec_and_values(draw, count):
    """A precision and `count` pairs of at most that many bits, some zero,
    with exponents mostly close enough for the exact sums to overlap."""
    prec = draw(PRECS)
    exponents = st.one_of(st.integers(-2 * prec, 2 * prec), EXPONENTS)
    zero = EXPONENTS.map(lambda e: (0, e))
    nonzero = _values(prec, exponents=exponents)
    values = st.integers(0, 9).flatmap(lambda k: zero if k == 0 else nonzero)
    return prec, [draw(values) for _ in range(count)]


@settings(max_examples=300)
@given(PRECS, st.integers(1, 4000), st.data())
def test_round_matches_mpf_pos(prec, bits, data):
    m, e = data.draw(_values(bits, bits=bits))
    assert _same(_round(m, e, prec), mpf_pos(_raw((m, e)), prec, round_nearest))


@settings(max_examples=200)
@given(PRECS, st.integers(1, 300), st.integers(0, 1 << 40), EXPONENTS, SIGNS)
def test_round_breaks_exact_ties_to_even(prec, extra, low, exp, sign):
    # q has prec bits; q * 2**extra + 2**(extra - 1) lies exactly half-way
    # between q and q + 1, and so do its neighbours one unit either side
    q = (1 << (prec - 1)) | low
    tie = (q << extra) | (1 << (extra - 1))
    for m in (tie - 1, tie, tie + 1):
        got = _round(sign * m, exp, prec)
        assert _same(got, mpf_pos(_raw((sign * m, exp)), prec, round_nearest))
    want_q = q + (q & 1)
    assert _raw(_round(sign * tie, exp, prec)) == _raw((sign * want_q, exp + extra))


@settings(max_examples=400)
@given(_prec_and_values(2))
def test_add_matches_mpf_add(case):
    prec, (a, b) = case
    assert _same(_add(a, b, prec), mpf_add(_raw(a), _raw(b), prec, round_nearest))


@settings(max_examples=300)
@given(PRECS, st.data())
def test_add_of_far_apart_values(prec, data):
    # gaps past prec + 4 bits, where mpf_add perturbs the larger operand by a
    # sticky unit, and past the kernel's own 2 * prec; the larger operand at
    # full width or a power of two, whose lower neighbour is half an ulp
    # closer
    power = st.tuples(SIGNS, EXPONENTS).map(lambda se: (se[0] << (prec - 1), se[1]))
    a = data.draw(st.one_of(_values(prec, bits=prec), power))
    bm, _ = data.draw(_values(prec))
    gap = data.draw(st.one_of(
        st.integers(prec + 5, 3 * prec + 200), st.integers(10 ** 5, 10 ** 6)
    ))
    b = (bm, a[1] + a[0].bit_length() - gap - bm.bit_length())
    for x, y in ((a, b), (b, a)):
        assert _same(_add(x, y, prec), mpf_add(_raw(x), _raw(y), prec, round_nearest))


@settings(max_examples=200)
@given(PRECS, st.integers(1, 200), SIGNS, SIGNS, st.data())
def test_far_apart_sum_of_wide_values_rounds_the_exact_sum(prec, extra, sign_a, sign_b, data):
    # wider than prec bits the larger operand may sit on a tie, which only
    # the far smaller one breaks; the shortcut must round like the exact sum
    q = data.draw(_values(prec, bits=prec))[0]
    low = data.draw(st.one_of(st.just(1 << (extra - 1)), st.integers(0, (1 << extra) - 1)))
    a = (sign_a * ((q << extra) | low), data.draw(EXPONENTS))
    bm = sign_b * data.draw(_values(prec))[0]
    gap = data.draw(st.integers(3 * prec + extra + 1, 3 * prec + extra + 10 ** 5))
    b = (bm, a[1] + a[0].bit_length() - gap - bm.bit_length())
    exact = _round((a[0] << (a[1] - b[1])) + b[0], b[1], prec)
    for x, y in ((a, b), (b, a)):
        assert _raw(_add(x, y, prec)) == _raw(exact)


@settings(max_examples=200)
@given(PRECS, st.data())
def test_add_ties_and_cancellation(prec, data):
    a = data.draw(_values(prec, bits=prec))
    # a +- half an ulp of a is an exact tie; a - a cancels to zero
    for b in ((1, a[1] - 1), (-1, a[1] - 1), (-a[0], a[1])):
        got = _add(a, b, prec)
        assert _same(got, mpf_add(_raw(a), _raw(b), prec, round_nearest))


@settings(max_examples=400)
@given(_prec_and_values(2))
def test_mul_matches_mpf_mul(case):
    prec, (a, b) = case
    assert _same(_mul(a, b, prec), mpf_mul(_raw(a), _raw(b), prec, round_nearest))


@settings(max_examples=200)
@given(PRECS, st.data())
def test_mul_exact_ties(prec, data):
    # 3 * b for odd b of prec - 1 bits has prec + 1 bits and ends in a one:
    # an exact tie whenever it does not fit
    b = data.draw(_values(prec - 1, bits=prec - 1))
    b = (b[0] | 1, b[1])
    a = (data.draw(SIGNS) * 3, data.draw(EXPONENTS))
    assert _same(_mul(a, b, prec), mpf_mul(_raw(a), _raw(b), prec, round_nearest))


@settings(max_examples=200)
@given(_prec_and_values(13))
def test_dot_matches_the_mpf_loop(case):
    prec, values = case
    acc, a, b = values[0], values[1:7], values[7:]
    want = _raw(acc)
    for x, y in zip(a, b):
        want = mpf_add(want, mpf_mul(_raw(x), _raw(y), prec, round_nearest), prec, round_nearest)
    assert _same(_dot(acc, a, b, prec), want)


def _two_step_dot(acc, a, b, prec):
    """_dot's reference: each product rounded by _round, then added by _add."""
    for (am, ae), (bm, be) in zip(a, b):
        acc = _add(acc, _round(am * bm, ae + be, prec), prec)
    return acc


@st.composite
def _dot_cases(draw):
    """A precision, an accumulator (zero or not) and up to six terms, each
    random or made to hit one case of _dot's inline rounding: a product
    that is an exact tie, a product of half an ulp of the running sum (a
    tie in the aligned sum), a product that cancels the running sum, a zero
    factor, or a product more than 2 * prec bits above or below the
    running sum (_add's far-gap path)."""
    prec = draw(PRECS)
    near = st.integers(-prec, prec)
    acc = draw(st.one_of(EXPONENTS.map(lambda e: (0, e)), _values(prec, exponents=near)))
    a, b, ref = [], [], acc
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "tie", "half", "cancel", "zero", "far"]))
        x = draw(_values(prec, exponents=near))
        y = draw(_values(prec, exponents=near))
        if kind == "tie":
            # 3 * y for odd y of prec - 1 bits: a tie whenever it does not fit
            x = (draw(SIGNS) * 3, x[1])
            y = draw(_values(prec - 1, bits=prec - 1, exponents=near))
            y = (y[0] | 1, y[1])
        elif kind == "half" and ref[0]:
            x, y = (draw(SIGNS), 0), (1, ref[1] + ref[0].bit_length() - prec - 1)
        elif kind == "cancel":
            x, y = (1, 0), (-ref[0], ref[1])
        elif kind == "zero":
            x = (0, x[1])
            if draw(st.booleans()):
                x, y = y, x
        elif kind == "far":
            top = ref[1] + ref[0].bit_length()
            gap = draw(SIGNS) * draw(st.integers(3 * prec + 1, 3 * prec + 200))
            y = (y[0], top + gap - x[1] - y[0].bit_length())
        a.append(x)
        b.append(y)
        ref = _two_step_dot(ref, [x], [y], prec)
    return prec, acc, a, b, ref


@settings(max_examples=600)
@given(_dot_cases())
def test_dot_matches_the_two_step_reference(case):
    prec, acc, a, b, ref = case
    assert _raw(_dot(acc, a, b, prec)) == _raw(ref)


@settings(max_examples=400)
@given(_prec_and_values(2))
def test_div_matches_mpf_div(case):
    prec, (a, b) = case
    if not b[0]:
        b = (-3, b[1])
    assert _same(_div(a, b, prec), mpf_div(_raw(a), _raw(b), prec, round_nearest))


@pytest.mark.parametrize("prec", [53, 160, 544, 1056])
def test_div_rounds_the_quotient(prec):
    # 1/3 and -2/3 do not terminate in binary: the quotient must be rounded
    # to prec bits, and a zero numerator of any sign or exponent gives zero
    for a, b in (((1, 0), (3, 0)), ((-2, 7), (3, 5)), ((2, 0), (-3, -9))):
        got = _div(a, b, prec)
        assert _same(got, mpf_div(_raw(a), _raw(b), prec, round_nearest))
        assert abs(got[0]).bit_length() <= prec
        assert (got[0] < 0) is ((a[0] < 0) != (b[0] < 0))
    for a in ((0, 0), (0, -40)):
        assert _raw(_div(a, (-5, 3), prec)) == _raw((0, 0))


# mpf_exp's branches: exp_basecase's Taylor loop up to 600 bits and its
# exponential_series above, and the power of e for an integer above 600 bits
EXP_PRECS = st.sampled_from([53, 160, 544, 600, 601, 1056, 2080])


@st.composite
def _exp_arguments(draw):
    """A precision and a pair (m, e) for exp: zero; |x| just below or above
    2**-(prec + 14), where mpf_exp returns 1; |x| < 2; |x| >= 2, where it
    reduces by ln 2; or an integer.  Mantissas have at most prec bits, any
    sign, and may end in zeros."""
    prec = draw(EXP_PRECS)
    kind = draw(st.sampled_from(["zero", "tiny", "small", "large", "integer"]))
    if kind == "zero":
        return prec, (0, draw(EXPONENTS))
    if kind == "integer":
        m = draw(SIGNS) * draw(st.integers(1, 3000))
        shift = draw(st.integers(-4, 12))
        if shift < 0 and m % (1 << -shift):
            shift = 0
        return prec, (m << shift, -shift) if shift >= 0 else (m >> -shift, -shift)
    zeros = draw(st.sampled_from([0, 0, 1, 17]))
    m = draw(_values(prec - zeros))[0] << zeros
    wp = prec + 14
    top = draw({
        "tiny": st.integers(-wp - 40, -wp + 2),
        "small": st.integers(-wp, 1),
        "large": st.integers(2, 13),
    }[kind])
    return prec, (m, top - m.bit_length())


@settings(max_examples=500)
@given(_exp_arguments())
def test_exp_matches_mpf_exp(case):
    prec, (m, e) = case
    assert _same(_exp(m, e, prec), mpf_exp(_raw((m, e)), prec, round_nearest))


@pytest.mark.parametrize("prec, m, e", [
    # exp_basecase's fixed-point value lies exactly half-way between two
    # prec-bit values whose lower one is even (found by search)
    (53, -1780928, -60),
    (53, 44105, -53),
    (160, -338783110, -162),
    (160, 178543900202, -161),
    (544, 578, -545),
    (544, -3040, -550),
    (600, 17680040120620273923903530105229028063553313600, -606),
    (600, 175741190557222148269680922167951447633004464944348112907436965, -600),
    # integers above 600 bits, where mpf_exp's power of e and its
    # fixed-point path round differently (found by search); -8 and -53
    # are written with trailing zeros, as the kernel may hold them
    (601, -8, 0),
    (601, -1, 3),
    (601, -254, 0),
    (1056, -53, 0),
    (1056, -106, -1),
    (1056, -367, 0),
    (2080, -64, 0),
    (2080, -217, 0),
])
def test_exp_at_ties_and_integer_arguments(prec, m, e):
    assert _same(_exp(m, e, prec), mpf_exp(_raw((m, e)), prec, round_nearest))


def _mpf_sylvester(a, tol):
    """Reference: the positive-definiteness elimination as a loop of mp.mpf
    operators at the current precision, in place."""
    n = len(a)
    for k in range(n):
        piv = a[k][k]
        if not piv > tol:
            return False
        for i in range(k + 1, n):
            if not a[i][k]:
                continue
            f = a[i][k] / piv
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return True


@st.composite
def _symmetric(draw):
    """A precision and a symmetric matrix of pairs of size 1..6: small ints
    with mostly zero off-diagonal entries, or full prec-bit entries of
    order one.  Diagonals are mostly positive and large enough that the
    elimination often runs to the end."""
    prec = draw(PRECS)
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        def entry(diagonal):
            if diagonal:
                return draw(st.integers(-2, 12)), 0
            return (draw(st.integers(-6, 6)) if draw(st.integers(0, 2)) == 0 else 0), 0
    else:
        def entry(diagonal):
            shift = draw(st.integers(1, 4) if diagonal else st.integers(-3, 1))
            value = draw(_values(prec, bits=prec, exponents=st.just(shift - prec)))
            if diagonal and draw(st.integers(0, 5)):
                value = abs(value[0]), value[1]
            return value
    rows = [[(0, 0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = entry(True)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = entry(False)
    return prec, rows


@settings(max_examples=400)
@given(_symmetric())
def test_elimination_matches_the_mpf_loop(case):
    prec, rows = case
    tol = (1, -(prec // 2))
    with mp.workprec(prec):
        want = [[from_dyadic(x) for x in row] for row in rows]
        verdict = _mpf_sylvester(want, from_dyadic(tol))
    got = [list(row) for row in rows]
    assert positive_definite(got, tol, prec) is verdict
    for got_row, want_row in zip(got, want):
        assert [_raw(x) for x in got_row] == [w._mpf_ for w in want_row]


@settings(max_examples=300)
@given(_prec_and_values(2))
def test_abs_gt_matches_mpf_cmp(case):
    prec, (a, b) = case
    want = mpf_cmp(mpf_abs(_raw(a)), mpf_abs(_raw(b))) > 0
    assert _abs_gt(a, b) is want
    assert _abs_gt(a, a) is False


def test_dyadic_round_trip():
    with mp.workprec(160):
        for x in (mp.mpf(0), mp.mpf(1) / 3, -mp.pi, mp.mpf(2) ** -5000):
            assert from_dyadic(to_dyadic(x))._mpf_ == x._mpf_


@pytest.mark.parametrize("special", [finf, fninf, fnan])
def test_special_values_are_refused(special):
    # their libmp mantissa is 0: taken apart they would read as zero
    with pytest.raises(InputError):
        to_dyadic(mp.make_mpf(special))
