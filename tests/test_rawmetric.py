"""The dyadic kernel's rounding, add, mul, exp, division and elimination
(lcpforge.schema1) against mpmath's, bit for bit.

The mp.mpf operators call the libmp functions bound in
mpmath.ctx_mp_python; the kernel must return the same normalized value for
every operand it can meet: at most prec bits each, any signs, exact
half-way ties, exact cancellation and exponent gaps past libmp's
sticky-bit shortcut in mpf_add (more than prec + 4 bits apart).  The
positive-definiteness elimination is compared, entry by entry, with the
loop of mp.mpf operators it replaced, and exp with libmp's mpf_exp, whose
steps it takes on ints.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import finf, fnan, fninf, from_man_exp, mpf_exp, round_nearest
from mpmath.libmp.libintmath import isqrt_fast_python

import mpmath.ctx_mp_python
from lcpforge.errors import InputError
from lcpforge.intlinalg import IntMatrix
import lcpforge.schema1 as schema1_module
from lcpforge.constructions import make_kourganoff, make_rank_n_lcp
from lcpforge.schema1 import (
    _abs_gt,
    _add,
    _div,
    _dot,
    _exp,
    _exp_error_units,
    _exp_fixed,
    _exp_near,
    _exps_here,
    _increment,
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


# _exp's lemma bounds the fixed-point path on each of exp_basecase's
# algorithms: the Taylor loop at wp = prec + 14 from 64 to
# EXP_COSH_CUTOFF = 600, then exponential_series with two cosh series
# below EXP_SERIES_U_CUTOFF = 1500 and more from it, up to 4142 bits
# (--precision 4096 with 32 guard bits)
LEMMA_PRECS = st.sampled_from([50, 53, 96, 160, 288, 400, 544, 575, 586])
SERIES_PRECS = st.one_of(st.integers(587, 1485), st.sampled_from([1486, 2066, 4128]))


@st.composite
def _lemma_arguments(draw, precs=LEMMA_PRECS):
    """A precision and a nonzero (m, e): |x| < 2, where no reduction runs,
    down to far below 2**-wp, and often above 2**-25, where the series'
    square root scales the cosh sum's error most, or |x| >= 2 up to 2**40,
    reduced by ln 2; any sign, mantissas of any width up to prec bits."""
    prec = draw(precs)
    m = draw(_values(prec))[0]
    top = draw(st.one_of(st.integers(-prec - 60, 1), st.integers(-24, 1), st.integers(2, 40)))
    return prec, (m, top - m.bit_length())


def _lemma_holds(prec, m, e):
    wp = prec + 14
    v, s = _exp_fixed(m, e, wp)
    top = m.bit_length() + e
    with mp.workprec(wp + 80 + max(top, 0)):
        err = abs(mp.mpf(v) - mp.exp(mp.ldexp(m, e)) * mp.ldexp(1, -s))
        bound = _exp_error_units(wp) * max(1, mp.ldexp(v, -wp) + mp.ldexp(1, -20)) + 1
        return err <= bound


@pytest.mark.parametrize("prec", [50, 96, 586, 587, 1024, 1485, 1486, 4128])
def test_exps_are_derived_on_every_basecase_algorithm(prec):
    # the Taylor loop, the two-series and the many-series exponential_series:
    # a point value keeps its fixed-point value, and a translated value
    # far from a rounding boundary is derived from it without libmp
    y0, d0 = (5, -3), (3, -4)
    y = _add(y0, d0, prec)
    fallbacks = []
    got = _derive(prec, y0, d0, y, fallbacks)
    assert fallbacks == []
    assert _same(got, mpf_exp(_raw(y), prec, round_nearest))


@settings(max_examples=300, deadline=None)
@given(_lemma_arguments())
def test_exp_lemma_bounds_libmp_against_a_wider_exp(case):
    prec, (m, e) = case
    assert _lemma_holds(prec, m, e)


@settings(max_examples=300, deadline=None)
@given(_lemma_arguments(SERIES_PRECS))
def test_series_lemma_bounds_libmp_against_a_wider_exp(case):
    prec, (m, e) = case
    assert _lemma_holds(prec, m, e)


def test_isqrt_float_start_meets_the_lemma_assumption():
    # isqrt_fast_python starts its Newton chain at int(2**100 * X**-0.5)
    # for the top 100 bits X of its shifted argument, one float pow; the
    # lemma assumes that is within 1.41 * 2**-50 of 2**100 / sqrt(X),
    # which is checked here on ints: with d = 141 * 2**-50 / 100,
    # (1 - d)**2 * 2**200 <= r**2 * X <= (1 + d)**2 * 2**200.  The
    # arguments y have exponential_series' sizes, about 2 W bits for its
    # working precisions W from 611 to 4400 bits
    rng = random.Random(1)
    one = 100 << 50
    for _ in range(20000):
        y = rng.getrandbits(rng.randint(1222, 8800)) | 1
        x = y << 20
        bc = x.bit_length()
        bc += bc & 1
        top = x >> (bc - 100)
        r = int(2.0 ** 100 * top ** -0.5)
        scaled = r * r * top * 10 ** 4
        assert (one - 141) ** 2 << 100 <= scaled <= (one + 141) ** 2 << 100, y


def test_giant_steps_gain_at_most_double_the_bits():
    # the lemma's Newton chain: isqrt_fast_python steps from 50 bits to
    # half its argument's bits, first to at most 100 bits, then each step
    # to at most 2 p - 3 bits
    for n in range(101, 9000):
        steps = isqrt_fast_python.__globals__["giant_steps"](50, n)
        assert 50 < steps[0] <= 100 and steps[-1] == n
        assert all(b <= 2 * a - 3 for a, b in zip(steps, steps[1:]))


@pytest.mark.parametrize("w", list(range(64, 700, 17)) + [1000, 1500, 2080, 4200])
def test_ln2_fixed_is_within_two_units(w):
    # the lemma's reduction step reads ln 2 from libmp at wp + mag bits
    with mp.workprec(w + 40):
        assert abs(mp.mpf(schema1_module.ln2_fixed(w)) - mp.ldexp(mp.ln2, w)) <= 2


def _derive(prec, y0, d0, y, fallbacks=None):
    """_exp_near's value of exp(y) from the point value exp(y0) and the
    increment d0 = 2 c . v, with c = d0 / 2 and v = 1; each _exp call it
    falls back to is appended to fallbacks."""
    units = _exp_error_units(prec + 14)
    fixed = []
    (here,) = _exps_here([y0], prec, units, fixed)
    assert _same(here, mpf_exp(_raw(y0), prec, round_nearest))
    increment = _increment([(d0[0], d0[1] - 1)], [(1, 0)], prec, units)
    if fallbacks is None:
        return _exp_near(y, fixed[0], increment, prec)
    calls = []
    original = schema1_module._exp

    def recording(m, e, p):
        calls.append((m, e))
        return original(m, e, p)

    schema1_module._exp = recording
    try:
        value = _exp_near(y, fixed[0], increment, prec)
    finally:
        schema1_module._exp = original
    fallbacks.extend(calls)
    return value


@st.composite
def _translations(draw):
    """A precision, a point value y0, an increment d0 and
    y = y0 + d0 + eta rounded to prec bits, with |eta| far below 1:
    y0 and y on both sides of 0 and of +-2, as 2 f(x) and 2 f(x + v)."""
    prec = draw(st.one_of(LEMMA_PRECS, st.sampled_from([1024, 1056, 2080, 4128])))
    y0 = draw(_values(prec, exponents=st.just(0)))[0]
    y0 = (y0, draw(st.integers(-4, 5)) - y0.bit_length())
    d0 = draw(_values(prec + 20, exponents=st.just(0)))[0]
    d0 = (d0, draw(st.integers(-prec, 4)) - d0.bit_length())
    eta = draw(_values(40, exponents=st.just(0)))[0]
    eta = (eta, draw(st.integers(-2 * prec, 8 - prec)) - eta.bit_length())
    y = _add(_add(y0, d0, 2 * prec + 64), eta, prec)
    return prec, y0, d0, y


@settings(max_examples=500, deadline=None)
@given(_translations())
def test_derived_exp_is_exp(case):
    prec, y0, d0, y = case
    got = _derive(prec, y0, d0, y)
    assert _same(got, mpf_exp(_raw(y), prec, round_nearest))


@pytest.mark.parametrize("prec, m, e", [
    # exact half-way ties of exp_basecase's value (as in the cases above)
    (53, -1780928, -60),
    (53, 44105, -53),
    (160, -338783110, -162),
    (160, 178543900202, -161),
    (544, 578, -545),
    (544, -3040, -550),
    # exact ties of exponential_series' value (found by search)
    (1024, 290, -12),
    (1024, 69271774033380, -47),
    (1056, -22825522, -24),
    (1056, 586037065154, -44),
    # within 40 units of 2**-wp of a half-way point (found by search)
    (53, -5182964445433316, -55),
    (53, 8773358431609509, -57),
    (53, -5662469771549441, -59),
    (160, -1327726751225912735816681588081904096490369300843, -155),
    (160, 742489281832896552256856484460010281264878913693, -157),
    (160, -1376851329317362123235559143763277028691771251300, -157),
    (1024, -88845763, -26),
    (1024, 177556, -17),
    (1024, -255410, -21),
    (1056, 112948992, -31),
    (1056, -65, -11),
    (1056, 30794072531415, -43),
])
@pytest.mark.parametrize("d0", [(3, -2), (-5, -7), (1, 1)])
def test_derivation_near_a_rounding_boundary_falls_back(prec, m, e, d0):
    # y0 = y - d0 exactly, so eta = 0: the bound U alone decides
    y = (m, e)
    y0 = _add(y, (-d0[0], d0[1]), 4 * prec)
    fallbacks = []
    got = _derive(prec, y0, d0, y, fallbacks)
    assert fallbacks == [y]
    assert _same(got, mpf_exp(_raw(y), prec, round_nearest))


@pytest.mark.parametrize("prec, m, e", [
    # integers above 600 bits, some written with trailing zeros: mpf_exp
    # takes them to its power of e, which rounds differently from the
    # fixed-point path here (the integer cases above)
    (601, -8, 0),
    (601, -1, 3),
    (1056, -106, -1),
    (1056, -53, 0),
    (2080, -64, 0),
])
def test_integer_exponents_above_600_bits_fall_back(prec, m, e):
    y, d0 = (m, e), (3, -2)
    want = mpf_exp(_raw(y), prec, round_nearest)
    # at a sample point no fixed-point value is kept
    fixed = []
    (here,) = _exps_here([y], prec, _exp_error_units(prec + 14), fixed)
    assert fixed == [None]
    assert _same(here, want)
    # at a translated point _exp computes it
    fallbacks = []
    got = _derive(prec, _add(y, (-d0[0], d0[1]), 4 * prec), d0, y, fallbacks)
    assert fallbacks == [y]
    assert _same(got, want)


def _count_exp_basecase(monkeypatch):
    calls = []
    original = schema1_module.exp_basecase

    def counting(t, wp):
        calls.append(wp)
        return original(t, wp)

    monkeypatch.setattr(schema1_module, "exp_basecase", counting)
    return calls


def test_sampled_check_derives_the_translated_exponentials(monkeypatch):
    # ranklcp --n 2 at 512 bits: 100 points, 3 functionals, 2 generators.
    # 300 exps at the points themselves go through exp_basecase, and the
    # 600 at translated points are derived from them, a few falling back
    calls = _count_exp_basecase(monkeypatch)
    make_rank_n_lcp(2, 512, seed=1)
    assert 300 <= len(calls) <= 400


def test_sampled_check_derives_on_exponential_series(monkeypatch):
    # kourganoff --q 1 at 1024 bits, working precision 1070: 100 points,
    # 2 functionals, 1 generator.  200 exps at the points run
    # exponential_series, and the 200 at translated points are derived
    calls = _count_exp_basecase(monkeypatch)
    make_kourganoff(1, IntMatrix([[2, 1], [1, 1]]), 1024, seed=1)
    assert 200 <= len(calls) <= 230


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
