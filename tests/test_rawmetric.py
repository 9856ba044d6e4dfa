"""The dyadic kernel's rounding, add and mul against mpmath's, bit for bit.

The mp.mpf operators call the libmp functions bound in
mpmath.ctx_mp_python; the kernel must return the same normalized value for
every operand it can meet: at most prec bits each, any signs, exact
half-way ties, exact cancellation and exponent gaps past libmp's
sticky-bit shortcut in mpf_add (more than prec + 4 bits apart).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import finf, fnan, fninf, from_man_exp, round_nearest

import mpmath.ctx_mp_python
from lcpforge.errors import InputError
from lcpforge.rawmetric import _abs_gt, _add, _dot, _mul, _round, from_dyadic, to_dyadic

_OPS = vars(mpmath.ctx_mp_python)
mpf_add, mpf_mul, mpf_pos = _OPS["mpf_add"], _OPS["mpf_mul"], _OPS["mpf_pos"]
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
