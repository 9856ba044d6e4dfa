"""Schema 1: every stage whose output is pinned to the bytes of a
schema-1 certificate.  lcpcore takes the exact decisions and assembles the
metric, constructions runs the pipelines, and both call in here for the
splitter's eigenblock basis and its interval inverse (decompose_at), the
interval conjugates basis^-1 * a * basis, J1's ratios read off them, the
base translations, the warping functionals' log targets and their solve,
the grid and seeded sample points, the metric, the cross-term scale
search, the sampled pullback residual, the decomposition, generators and
metric sections, and every check payload that seals a float or a
schema-1 literal.  Neither caller imports mpmath
or a float encoder: outside this module the sealed floats come only from
embeddings' enclosures, polynomials.refine_root and certio.enc_float.
Changing any value made here changes certificate bytes, so it needs a
schema bump.

Metric values are signed pairs (m, e) of ints standing for m * 2**e.
Each sum and product is formed exactly on ints and rounded once to the
working precision, round half to even, by _round.  mpmath's mpf_add and
mpf_mul return that correctly rounded value whenever the operands have at
most prec bits, which every value here has, and a normalized mpf is
unique; so doing the mpf expressions' operations in the same order gives
the mpf values bit for bit.  exp runs libmp's mpf_exp steps on ints
around libmp's own fixed-point exp_basecase; only division (_div: one per
point and generator, one per elimination row step) and exp of an integer
above 600 bits call libmp on mpf values, converted at the boundary with
from_man_exp.

The sampled check calls exp_basecase only at the sample points
themselves.  At a translated point x + v, _exp_near derives exp(2 f) from
the point's own unrounded value and exp(2 c . v), and keeps the result
only where a proven error bound (_exp's lemma) shows that libmp would
round to the same value; elsewhere _exp computes it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import ldexp
from operator import mul

from mpmath import iv, mp
from mpmath.libmp import from_man_exp, mpf_div, mpf_exp, round_nearest
from mpmath.libmp.libelefun import EXP_COSH_CUTOFF, EXP_SERIES_U_CUTOFF, exp_basecase, ln2_fixed

from .certio import enc_float, enc_float_matrix, enc_float_vector
from .embeddings import (
    GUARD_BITS, MAX_PRECISION, _at_prec, _iv_inverse, certified_poly_roots, full_pivot_eliminate,
    tolerance, validate_precision,
)
from .errors import InputError, NeedsEscalation, PrecisionError, StructureError
from .intlinalg import IntMatrix, matrix_to_json

# sample points of the equivariance check, cells per translation of the
# scale search's grid, and its bisection steps
SAMPLES = 100
_CROSS_GRID = 10
_CROSS_BISECT_STEPS = 20

_ZERO = (0, 0)
_ONE = (1, 0)
# the top of an exact zero, below that of every other value
_NO_TOP = -(1 << 62)
# the pullback filter's float estimate leaves out an entry's products below
# 2**_FLOOR times its largest and H_F's values below 2**_H_FLOOR times the
# largest at the point, and counts them in its error bound instead, so
# every float product it forms is normal (README, lemma 1)
_FLOOR = -900
_H_FLOOR = -100


def _mpf_from_rational(q):
    return mp.mpf(q.numerator) / mp.mpf(q.denominator)


def _to_mpf(x):
    """Convert a scalar (mpf, int, float, or exact rational) to mpf."""
    if isinstance(x, Fraction):
        return _mpf_from_rational(x)
    return mp.mpf(x)


def _from_raw(raw):
    sign, man, exp, _ = raw
    if not man and exp:
        raise InputError("the metric needs finite numbers, not inf or nan")
    return (-man if sign else man), exp


def to_dyadic(x):
    """A scalar (mpf, int, float, or exact rational) as (m, e), rounded to
    the current mp precision like mp.mpf(x).  inf and nan raise InputError:
    their libmp mantissa is 0, so they would otherwise read as zero."""
    return _from_raw(_to_mpf(x)._mpf_)


def from_dyadic(value):
    """The mpf equal to a pair (m, e)."""
    return mp.make_mpf(from_man_exp(*value))


def _round(m, e, prec):
    """m * 2**e rounded to prec bits, half to even, as a pair."""
    n = m.bit_length() - prec
    if n <= 0:
        return m, e
    a = -m if m < 0 else m
    t = a >> (n - 1)
    if t & 1 and (t & 2 or a & ((1 << (n - 1)) - 1)):
        t += 2
    t >>= 1
    return (-t if m < 0 else t), e + n


def _add(a, b, prec):
    """a + b rounded to prec bits, for operands of any width."""
    am, ae = a
    bm, be = b
    if not am:
        return _round(bm, be, prec)
    if not bm:
        return _round(am, ae, prec)
    if ae < be:
        am, ae, bm, be = bm, be, am, ae
    d = ae - be
    if d > 2 * prec:
        # when |b| < 2**g, no rounding boundary lies strictly between a
        # and a +- 2**g, so a sticky unit of b's sign below 2**g rounds
        # like b, and a is not shifted across the whole gap
        g = min(ae, ae + am.bit_length() - prec - 2)
        if be + bm.bit_length() <= g:
            return _round((am << (ae - g + 1)) + (1 if bm > 0 else -1), g - 1, prec)
    return _round((am << d) + bm, be, prec)


def _mul(a, b, prec):
    """a * b rounded to prec bits."""
    return _round(a[0] * b[0], a[1] + b[1], prec)


def _div(a, b, prec):
    """a / b rounded to prec bits, for b nonzero."""
    return _from_raw(mpf_div(from_man_exp(*a), from_man_exp(*b), prec, round_nearest))


def _abs_gt(a, b):
    """|a| > |b|."""
    am, ae = a
    bm, be = b
    if not bm:
        return am != 0
    if not am:
        return False
    top_a, top_b = ae + am.bit_length(), be + bm.bit_length()
    if top_a != top_b:
        return top_a > top_b
    if ae >= be:
        return abs(am) << (ae - be) > abs(bm)
    return abs(am) > abs(bm) << (be - ae)


def _functional(f):
    return [to_dyadic(c) for c in f]


class MetricTerms:
    """The constant data of a MetricSpec as pairs at its working
    precision: functional coefficients and cross-term scales.  Converted
    once, read by every metric_gram call.

    functionals lists every functional whose exp(2 f) the gram holds: the
    blocks' in block order, the base conformal factor's, then the cross
    terms'.  diagonal pairs each block and the base with the index of its
    functional, or None for the flat block, which carries the identity.
    """

    __slots__ = ("prec", "p", "n", "total", "functionals", "diagonal", "cross")

    def __init__(self, spec):
        decomp = spec.decomposition
        self.prec = decomp.workbits
        self.p, self.n, self.total = decomp.p, spec.n, spec.total_dim
        self.functionals, self.diagonal = [], []
        with _at_prec(self.prec):
            for k in range(decomp.delta):
                slot = None
                if k != spec.flat_block:
                    slot = len(self.functionals)
                    self.functionals.append(_functional(spec.functionals[k]))
                self.diagonal.append((slot, decomp.block_indices(k)))
            self.diagonal.append((len(self.functionals), range(self.p, self.p + self.n)))
            self.functionals.append(_functional(spec.base_conformal))
            self.cross = [
                (
                    to_dyadic(term.epsilon),
                    _functional(term.functional),
                    list(decomp.block_indices(term.k)),
                    list(decomp.block_indices(term.k2)),
                )
                for term in spec.cross_terms
            ]
        self.functionals += [f for _, f, _, _ in self.cross]


def _dot(acc, a, b, prec):
    """acc + a . b, adding each rounded product a[i] * b[i] in index order.

    The loop does _add's aligned case itself, which is most of the terms,
    and writes _round's half-to-even step out for the product and for the
    aligned sum, on the signed value: with t = floor(x / 2**(n - 1)), the
    half bit is t & 1 and the sticky bits are those of x below it, so one
    step serves both signs.  Rounding half to even is symmetric, so each
    value it forms is _round's; tests/test_rawmetric.py checks that.
    """
    m, e = acc
    gap = 2 * prec
    for (am, ae), (bm, be) in zip(a, b):
        pm = am * bm
        pe = ae + be
        n = pm.bit_length() - prec
        if n > 0:
            t = pm >> (n - 1)
            if t & 1 and (t & 2 or pm & ((1 << (n - 1)) - 1)):
                t += 2
            pm = t >> 1
            pe += n
        if not m:
            m, e = pm, pe
            continue
        d = e - pe
        if 0 <= d <= gap:
            m = (m << d) + pm
            e = pe
        elif -gap <= d < 0:
            m += pm << -d
        else:
            m, e = _add((m, e), (pm, pe), prec)
            continue
        n = m.bit_length() - prec
        if n > 0:
            t = m >> (n - 1)
            if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)):
                t += 2
            m = t >> 1
            e += n
    return m, e


def span(weights, vectors, prec):
    """The points sum_j t[j] * vectors[j] for the rows t of weights (pairs),
    each coordinate summed from zero in order; vectors hold scalars."""
    with _at_prec(prec):
        columns = [[to_dyadic(c) for c in column] for column in zip(*vectors)]
    return [[_dot(_ZERO, t, column, prec) for column in columns] for t in weights]


def _exp_fixed(m, e, wp):
    """mpf_exp's fixed-point path for exp(m * 2**e) at wp bits, before its
    rounding: (V, s) with V = exp_basecase(t, wp), so V * 2**s ~ exp(x).
    It reduces x by ln 2 when |x| >= 2 and truncates it to wp fraction bits
    as mpf_exp does."""
    mag = m.bit_length() + e
    n = 0
    if mag > 1:
        # about mag extra bits, taken off again after the reduction
        shift = e + wp + mag
        t = m << shift if shift >= 0 else m >> -shift
        n, t = divmod(t, ln2_fixed(wp + mag))
        t >>= mag
    else:
        shift = e + wp
        t = m << shift if shift >= 0 else m >> -shift
    return exp_basecase(t, wp), n - wp


def _exp(m, e, prec):
    """exp(m * 2**e) rounded to prec bits: libmp's mpf_exp on ints.

    mpf_exp takes x to a fixed point at wp = prec + 14 bits, reduces it by
    ln 2 when |x| >= 2, runs exp_basecase and rounds once; _exp_fixed takes
    these steps without the mpf conversions around them.  An integer x
    above 600 bits takes mpf_exp's other branch, a power of e, so it goes
    to mpf_exp itself.  exp(0) is 1, and so is exp(x) for |x| < 2**-wp,
    where mpf_exp perturbs 1 and round to nearest leaves it.

    Lemma (the error of the fixed-point path, which _exp_near rests on;
    README proves it).  For wp >= 64 and any x = m * 2**e let (V, s) =
    _exp_fixed(m, e, wp), M = max(1, V * 2**-wp + 2**-20) and
    L = _exp_error_units(wp).  Then |V * 2**s - exp(x)| <= (L * M + 1) * 2**s.
    Up to EXP_COSH_CUTOFF, exp_basecase sums a Taylor series: with
    r = floor(sqrt(wp)) and I = floor((wp + r) / (2r - 2)) + 1, L = 3I + 16.
    Above it, exponential_series sums cosh in k series (k = 2 below
    EXP_SERIES_U_CUTOFF, int(0.3 * wp**0.35) from it), takes sinh by
    isqrt_fast and squares r0 = int(0.5 * sqrt(wp)) times: with
    I = floor((wp + 14) / (2 k r0)) + 1 and h = floor(r0 / 2),
    L = floor(17 (I + k + 1) * 2**(h - 13)) + 8, where 2**(h - 9) bounds
    how far the square root scales the cosh sum's error.  That assumes,
    as libmp does, that isqrt_fast's start int(2**100 * y**-0.5) on a
    float is within 1.41 * 2**-50 of 2**100 / sqrt(y), which holds when the
    C library's pow is within one ulp.
    """
    if not m:
        return _ONE
    # m * 2**e is an integer when e is at least minus m's trailing zeros
    if prec > 600 and e + (m & -m).bit_length() > 0:
        return _from_raw(mpf_exp(from_man_exp(m, e), prec, round_nearest))
    wp = prec + 14
    if m.bit_length() + e < -wp:
        return _ONE
    v, s = _exp_fixed(m, e, wp)
    return _round(v, s, prec)


def _exp_error_units(wp):
    """L of _exp's lemma at wp bits."""
    if wp <= EXP_COSH_CUTOFF:
        r = int(wp ** 0.5)
        return 3 * ((wp + r) // (2 * r - 2) + 1) + 16
    r = int(0.5 * wp ** 0.5)
    k = 2 if wp < EXP_SERIES_U_CUTOFF else int(0.3 * wp ** 0.35)
    i = (wp + 14) // (2 * k * r) + 1
    return (17 * (i + k + 1) << (r >> 1) >> 13) + 8


def _relative_error(v, wp, units):
    """An int rho with |V * 2**s - exp(x)| <= rho * 2**-wp * V * 2**s, for
    the lemma's (V, s) at wp bits and its L, units.  The lemma's bound is
    at most (L + (L >> 20) + 2) * V * 2**-wp units when V >= 2**wp, and at
    most L + (L >> 20) + 2 below."""
    units += (units >> 20) + 2
    if v >> wp:
        return units + 1
    return (units << wp) // v + 1


def _exps_here(twice, prec, units, fixed):
    """exp(y) as _exp gives it, for each y = 2 f(x) at a sample point x.
    Appends to fixed, per y, what _exp_near needs to derive exp(y') at
    x + v from it: (y's mantissa at the scale 2**-(wp + 8), V, s, rho), or
    None where _exp takes no fixed-point value: for zero, below 2**-wp,
    with bits below 2**-(wp + 8), or for an integer that mpf_exp takes to
    its power of e above 600 bits.  units is _exp_error_units(prec + 14)."""
    wp = prec + 14
    low = -wp - 8
    values = []
    for m, e in twice:
        if (not m or m.bit_length() + e < -wp or e < low
                or (prec > 600 and e + (m & -m).bit_length() > 0)):
            values.append(_exp(m, e, prec))
            fixed.append(None)
            continue
        v, s = _exp_fixed(m, e, wp)
        values.append(_round(v, s, prec))
        fixed.append((m << (e - low), v, s, _relative_error(v, wp, units)))
    return values


def _increment(functional, v, prec, units):
    """For the translation v of the base and a functional's coefficients
    c: the exact increment d0 = 2 c . v of 2 f, as the floor of -d0 at the
    scale 2**-(wp + 8), and D ~ exp(d0) on the fixed-point path at wp + 64
    bits, as (V_D, s_D).  Then _exp_near's bounds in units of 2**-wp:
    rho_D + L + 6 relative, and rho_D + 4 with L + 1 absolute for
    -2 < y < 0; units is L at wp = prec + 14."""
    wp = prec + 14
    products = [(cm * vm, ce + ve) for (cm, ce), (vm, ve) in zip(functional, v) if cm and vm]
    low = min((pe for _, pe in products), default=0)
    dm = sum(pm << (pe - low) for pm, pe in products)
    if not dm:
        return 0, 1 << wp, -wp, units + 6, 4, units + 1
    de = low + 1
    shift = de + wp + 8
    floor_minus = -dm << shift if shift >= 0 else -dm >> -shift
    vd, sd = _exp_fixed(dm, de, wp + 64)
    rho = (_relative_error(vd, wp + 64, _exp_error_units(wp + 64)) >> 64) + 1
    return floor_minus, vd, sd, rho + units + 6, rho + 4, units + 1


def _exp_near(y, here, increment, prec):
    """exp(y) as _exp gives it, for y = 2 f(x + v), derived from the
    sample point's own exponential when that decides the rounding.

    With y0 = 2 f(x), V * 2**s from _exps_here, the exact increment d0 and
    D ~ exp(d0) from _increment, eta = y - y0 - d0 is exact and tiny, and
    exp(y) = exp(y0) exp(d0) exp(eta).  W = V * 2**s * D * (1 + eta) is
    formed on ints and truncated to wp + 8 bits.  U bounds the distance
    from W to libmp's own unrounded value V' * 2**s' at y: _exp's lemma
    for V, for D and for V' (the last relative to exp(y) when y >= 0 or
    |y| >= 2, and absolute below), plus eta**2 and the truncations, all
    within 4 units of 2**-wp relative.  Rounding to nearest is monotone,
    so if W - U and W + U round to the same prec-bit value with no
    half-way point between them, that is _exp(y) bit for bit (Ziv's
    test).  Otherwise, and where the lemma or the branch does not apply,
    _exp computes it.
    """
    m, e = y
    wp = prec + 14
    low = -wp - 8
    mag = m.bit_length() + e
    if (here is None or not m or mag < -wp or e < low
            or (prec > 600 and e + (m & -m).bit_length() > 0)):
        return _exp(m, e, prec)
    m0, v, s, rho_v = here
    floor_minus, vd, sd, rho_rel, rho_abs, abs_units = increment
    eta = (m << (e - low)) - m0 + floor_minus
    if eta.bit_length() > (wp >> 1) - 10:
        return _exp(m, e, prec)
    w = v * vd
    k = w.bit_length() - wp - 8
    w >>= k
    w += (w * eta) >> (wp + 8)
    scale = s + sd + k
    if m < 0 and mag <= 1:
        # libmp's error at y is absolute there, (L + 1) * 2**-wp
        shift = -wp - scale
        u = ((w + 1) * (rho_v + rho_abs) >> wp) + 1
        u += abs_units << shift if shift >= 0 else (abs_units >> -shift) + 1
    else:
        u = ((w + 1) * (rho_v + rho_rel) >> wp) + 1
    top = w.bit_length()
    n = top - prec
    half = 1 << (n - 1)
    lo, hi = w - u, w + u + 1
    if lo >> (top - 1) == 1 and not hi >> top:
        q = (hi + half) >> n
        if (lo - 1 + half) >> n == q:
            return q, scale + n
    return _exp(m, e, prec)


def _twice(coeffs, x, prec):
    """2 f(x) for a functional with coefficients c and zero constant, c . x
    summed from zero; doubling a value of at most prec bits is exact."""
    m, e = _dot(_ZERO, coeffs, x, prec)
    return m, e + 1


def _exp_twice(coeffs, x, prec):
    """exp(2 f(x)) for a functional with coefficients c and zero constant,
    by _exp: mpf_exp's value bit for bit, with no mpf built on the way."""
    m, e = _dot(_ZERO, coeffs, x, prec)
    return _exp(m, e + 1, prec)


def _add_cross(gram, scale, idx1, idx2, prec):
    """Add scale, a value of at most prec bits, to the entries (i, j) and
    (j, i) of gram for i in idx1 and j in idx2, in place, row by row: the
    all-ones coupling table scaled, since scale * 1 rounds to scale."""
    for i in idx1:
        for j in idx2:
            gram[i][j] = _add(gram[i][j], scale, prec)
            gram[j][i] = _add(gram[j][i], scale, prec)


def metric_gram(terms: MetricTerms, x, exps=None):
    """Gram matrix, as lists of pairs, at base log-coordinates x.

    x is pairs at any precision; each is rounded to the metric's working
    precision first.  Entries no term sets are exact zeros.  exps, if
    given, maps the list of 2 f(x) over terms.functionals to their exps,
    which must be _exp's values; by default _exp computes each.
    """
    prec, total = terms.prec, terms.total
    x = [_round(m, e, prec) for m, e in x]
    if exps is None:
        scales = [_exp_twice(f, x, prec) for f in terms.functionals]
    else:
        scales = exps([_twice(f, x, prec) for f in terms.functionals])
    gram = [[_ZERO] * total for _ in range(total)]
    for slot, indices in terms.diagonal:
        scale = _ONE if slot is None else scales[slot]
        for i in indices:
            gram[i][i] = scale
    if terms.cross:
        factors = scales[len(scales) - len(terms.cross):]
        for (epsilon, _, idx1, idx2), factor in zip(terms.cross, factors):
            _add_cross(gram, _mul(epsilon, factor, prec), idx1, idx2, prec)
    return gram


def _coupled(cross, size):
    """For each index below size, the indices a cross term couples it
    with, sorted; empty for an index no term touches."""
    partners = [set() for _ in range(size)]
    for _, _, idx1, idx2 in cross:
        for i in idx1:
            partners[i].update(idx2)
        for j in idx2:
            partners[j].update(idx1)
    return [sorted(s) for s in partners]


def _above(pivot, tol):
    """pivot > tol, for tol >= 0."""
    return pivot[0] > 0 and _abs_gt(pivot, tol)


def positive_definite(a, tol, prec):
    """Leading-principal-minor test of a symmetric matrix of pairs: every
    pivot of the elimination must exceed tol.  Eliminates a in place; a row
    whose entry in the pivot column is an exact zero is skipped, since
    x - 0 * y is x for x of at most prec bits."""
    n = len(a)
    for k in range(n):
        pivot_row = a[k]
        pivot = pivot_row[k]
        if not _above(pivot, tol):
            return False
        for row in a[k + 1:]:
            if not row[k][0]:
                continue
            fm, fe = _div(row[k], pivot, prec)
            # rounding is symmetric, so round(-f * y) is -round(f * y)
            minus_f = -fm, fe
            for j in range(k, n):
                row[j] = _add(row[j], _mul(minus_f, pivot_row[j], prec), prec)
    return True


def _passes(grid, new, eps, tol, prec):
    """Whether every grid gram of cross_scale, with eps times each new
    term's factor added by _add_cross, passes positive_definite."""
    for gram, factors in grid:
        a = [list(row) for row in gram]
        for (idx1, idx2), factor in zip(new, factors):
            _add_cross(a, _mul(eps, factor, prec), idx1, idx2, prec)
        if not positive_definite(a, tol, prec):
            return False
    return True


def cross_scale(terms: MetricTerms, new_terms, points, tol, steps):
    """The scale eps of new_terms (MetricTerms.cross entries at eps = 1)
    that keeps the gram positive definite at every point: 1 if that passes,
    else half the largest passing k / 2**steps, (0, 0) if none does.  Each
    step adds eps * exp(2 f_c) to the gram of terms with _add_cross, as
    metric_gram does, so every tested matrix is the coupled metric's gram.

    Only the rows and columns some cross term, old or new, touches are
    eliminated.  Any other index has exact zeros off the diagonal in its
    row and column, so the elimination never changes its row, it never
    changes another row, and its pivot is its diagonal entry, which does
    not depend on eps: it is tested once per point, not once per step.

    Lemma: when the cross terms, old and new, couple exactly two indices
    i < j and every old scale is >= 0, a pass at eps is a pass at every
    smaller eps >= 0.  The 2 x 2 elimination tests h_i, which does not
    depend on eps, and then round(h_j - round(f * c)), with c the
    off-diagonal entry: each new term adds round(eps * F), F = exp(2 f_c)
    > 0, to an entry that starts >= 0, and f = round(c / h_i) with h_i >
    tol >= 0.  Rounding to nearest is monotone, so c, f and round(f * c)
    never fall as eps grows, and the last pivot never rises.  A pass at
    the top grid scale (2**steps - 1) / 2**steps is then a pass at every
    scale the bisection would test, and the bisection's result,
    (2**steps - 1) / 2**(steps + 1), is returned after that one pass.
    With more coupled indices, or when the top scale fails, the bisection
    runs.
    """
    prec = terms.prec
    coupled = [i for i, s in enumerate(_coupled(terms.cross + new_terms, terms.total)) if s]
    at = {i: k for k, i in enumerate(coupled)}
    new = [([at[i] for i in idx1], [at[j] for j in idx2]) for _, _, idx1, idx2 in new_terms]
    grid = []
    for x in points:
        gram = metric_gram(terms, x)
        if not all(_above(gram[i][i], tol) for i in range(terms.total) if i not in at):
            # no scale passes at this point
            return 0, -steps - 1
        grid.append((
            [[gram[i][j] for j in coupled] for i in coupled],
            [_exp_twice(f, x, prec) for _, f, _, _ in new_terms],
        ))

    if _passes(grid, new, _ONE, tol, prec):
        return _ONE
    top = (1 << steps) - 1
    if (len(coupled) == 2 and all(eps[0] >= 0 for eps, _, _, _ in terms.cross)
            and _passes(grid, new, (top, -steps), tol, prec)):
        return top, -steps - 1
    lo, hi = 0, 1 << steps
    for _ in range(steps):
        mid = (lo + hi) >> 1
        if _passes(grid, new, (mid, -steps), tol, prec):
            lo = mid
        else:
            hi = mid
    return lo, -steps - 1


def _top(v):
    """t with 2**(t - 1) <= |v| < 2**t for v nonzero; _NO_TOP for zero."""
    m, e = v
    return e + m.bit_length() if m else _NO_TOP


def _split(v):
    """(f, t) with v = f * 2**t * (1 + d), |d| < 2**-52, 1/2 <= |f| <= 1
    and t = _top(v): the top 53 bits of v's mantissa, floored, as a float;
    (0.0, _NO_TOP) for zero."""
    m, e = v
    if not m:
        return 0.0, _NO_TOP
    b = m.bit_length()
    if b > 53:
        return ldexp(float(m >> (b - 53)), -53), e + b
    return ldexp(float(m), -b), e + b


def _scaled(splits, floor):
    """The floats f * 2**(t - top) of (f, t) pairs from _split, top the
    largest t of a nonzero f, with 0.0 for those whose t - top is below
    floor; returns them, top and how many nonzero values became 0.0."""
    top = max(t for f, t in splits if f)
    scaled = [ldexp(f, t - top) if f and t - top >= floor else 0.0 for f, t in splits]
    return scaled, top, sum(1 for f, t in splits if f and t - top < floor)


def _estimates(c_t, support, entries, eta):
    """The float half of the pullback filter for one action, formed once.

    Entry (i, j) of C^T H_F C is the sum over the (l, k) of support of
    C_li H_lk C_kj.  Returns (i, j, q, top, w) for each entry with a
    nonzero product C_li C_kj: q lists the products over support divided
    by 2**top, each one float product of the factors' _split values, top
    is the largest product's top, and w = eta * sum |q| plus 2**_FLOOR for
    each product _scaled leaves out.  An entry whose products are all
    zero is an exact zero, and is left out.
    """
    cs = [[_split(c) for c in col] for col in c_t]
    estimates = []
    for i, j in entries:
        ci, cj = cs[i], cs[j]
        products = [(ci[l][0] * cj[k][0], ci[l][1] + cj[k][1]) for l, k in support]
        if any(f for f, _ in products):
            q, top, left_out = _scaled(products, _FLOOR)
            estimates.append((i, j, q, top, eta * sum(map(abs, q)) + ldexp(left_out, _FLOOR)))
    return estimates


def _hc_column(fiber, c_col, prec):
    """The column H_F C[:, j], for c_col = C[:, j]: entry l is H_F[l] . c_col
    over the entries row l may hold, summed from zero in index order; for
    a block-scalar row that is one product, rounded as _mul rounds it."""
    hc_col = []
    for (h, cols), c in zip(fiber, c_col):
        if cols is not None:
            hc_col.append(_dot(_ZERO, h, [c_col[k] for k in cols], prec))
            continue
        m = h[0] * c[0]
        e = h[1] + c[1]
        n = m.bit_length() - prec
        if n > 0:
            t = m >> (n - 1)
            if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)):
                t += 2
            m = t >> 1
            e += n
        hc_col.append((m, e))
    return hc_col


def _absorbable(c_t, rows, entries, prec):
    """For each (i, j) of entries, (i, j, None), or (i, j, (l, before,
    after)) when one term of the dot C[:, i] . (H_F C)[:, j] may decide it
    at every point (README, lemma 2).

    Term l is C_li (H_F C)_lj, and |C_li| < 2**top C_li.  A block-scalar
    row's (H_F C)_lj is at most 2**(top H_ll + top C_lj); a coupled row's,
    a sum of m rounded products, at most 2**(max top H_lk + bitlen(m) +
    max top C_kj over its k).  So at a point where each row's H_F values
    and bitlen(m) give at most h, term l is at most 2**(bounds[l] + h).
    Term l, the largest bound, may decide the dot only when every other
    bound is prec + 1 below it, since P <= 2**b has a top of at most b + 1;
    before and after are the largest bounds of the earlier and the later
    terms.
    """
    c_top = [[_top(c) for c in col] for col in c_t]
    plans = []
    for i, j in entries:
        bounds = [c_top[i][l] + max(c_top[j][k] for k in (cols or (l,)))
                  for l, cols in enumerate(rows)]
        top = max(bounds)
        l = bounds.index(top)
        before = max(bounds[:l], default=_NO_TOP)
        after = max(bounds[l + 1:], default=_NO_TOP)
        plans.append((i, j, (l, before, after) if max(before, after) <= top - prec - 1 else None))
    return plans


def _absorbed(c_i, c_j, fiber, plan, h, prec):
    """C[:, i] . (H_F C)[:, j], for c_i = C[:, i] and c_j = C[:, j], when
    its term l, P = C_li (H_F C)_lj, decides it (README, lemma 2); else
    None.  plan is (l, before, after) from _absorbable, and h bounds the
    point's H_F values as there.

    The terms are summed from zero in index order with each sum rounded
    to prec bits, and (H_F C)_lj is formed as _hc_column forms it.  The
    sum is P when every later term is within a quarter ulp of P and the
    earlier ones sum to less than half that.
    """
    l, before, after = plan
    h_row, cols = fiber[l]
    if cols is None:
        hc = _mul(h_row, c_j[l], prec)
    else:
        hc = _dot(_ZERO, h_row, [c_j[k] for k in cols], prec)
    product = _mul(c_i[l], hc, prec)
    gap = _top(product) - prec - 2
    if product[0] and after + h <= gap and before + h + l.bit_length() < gap:
        return product
    return None


def pullback_residuals(terms: MetricTerms, actions, points):
    """Largest relative residual |J^T h(x + v) J - L1^2 h(x)| / max|L1^2 h(x)|
    over the points, for each action, at the metric's working precision,
    as pairs.

    Each action is (C^T, L1^2, v): the transpose of the block-coordinate
    linear part, the squared flat-block ratio and the base translation, as
    pairs of at most that many bits, like the points.  J = diag(C, I), so only
    the fiber block of the pullback moves, to C^T (H_F C).  h(x) is
    evaluated once per point, h(x + v) once per point and action.
    exp_basecase runs for h(x) alone: the exps of h(x + v) are derived
    from those of h(x) by _exp_near, with the increments exp(2 c . v)
    computed once per functional and action.  The metric's working
    precision is at least 96 bits, so _exp's lemma holds there.

    Only the entries the metric's sparsity lets be nonzero are read: the
    fiber block, whose row l has the diagonal and the indices cross terms
    couple l with, and the base diagonal.  Every other entry is an exact
    zero in h(x), h(x + v) and the pullback alike.  Entry (i, j) of the
    pullback is C[:, i] . (H_F C)[:, j] with every product and sum rounded
    and summed from zero in index order, and its value is only ever that
    dot's; a column of H_F C is formed when an entry needs it.

    The entries whose target L1^2 h(x) may be nonzero, the fiber diagonal,
    the pairs cross terms couple and the base diagonal, are formed first,
    and give the scale; _absorbed forms a dot that one product decides
    from two products.  Every other fiber entry has a zero target, so it
    only competes for the largest difference.  Its exact dot runs only
    when its float estimate from _estimates, plus a bound on that
    estimate's error and the dot's own (README, lemma 1), reaches the
    larger of the largest difference so far and the residual so far times
    the scale: an entry below that cannot change the residual.
    """
    p, base, prec = terms.p, range(terms.p, terms.total), terms.prec
    coupled = _coupled(terms.cross, p)
    # a block-scalar row (None) holds its diagonal alone
    rows = [sorted(s + [l]) if s else None for l, s in enumerate(coupled)]
    support = [(l, k) for l, cols in enumerate(rows) for k in (cols or (l,))]
    on_target = [(i, i) for i in range(p)] + [(i, j) for i in range(p) for j in coupled[i]]
    off_target = [(i, j) for i in range(p) for j in range(p) if i != j and j not in coupled[i]]
    eta = (len(support) + 13) * 2.0 ** -51
    residuals = [_ZERO] * len(actions)
    units = _exp_error_units(prec + 14)
    increments = [[_increment(f, v, prec, units) for f in terms.functionals]
                  for _, _, v in actions]
    estimates = [_estimates(c_t, support, off_target, eta) for c_t, _, _ in actions]
    plans = [_absorbable(c_t, rows, on_target, prec) for c_t, _, _ in actions]
    # a coupled row sums m products, which adds bitlen(m) to its bound
    width = max(len(cols or ()) for cols in rows).bit_length()
    for x in points:
        fixed = []
        h_here = metric_gram(terms, x, lambda twice: _exps_here(twice, prec, units, fixed))
        for g, (c_t, lam1_sq, v) in enumerate(actions):
            x_v = [_add(xi, vi, prec) for xi, vi in zip(x, v)]
            h_there = metric_gram(terms, x_v, lambda twice: [
                _exp_near(y, h, d, prec) for y, h, d in zip(twice, fixed, increments[g])
            ])
            fiber = [
                (h_row[l], None) if cols is None else ([h_row[k] for k in cols], cols)
                for l, (h_row, cols) in enumerate(zip(h_there, rows))
            ]
            columns = [None] * p

            def column(j):
                if columns[j] is None:
                    columns[j] = _hc_column(fiber, c_t[j], prec)
                return columns[j]

            hs, h_top, left_out = _scaled([_split(h_there[l][k]) for l, k in support], _H_FLOOR)
            h_bound = h_top + width
            pulled = []
            for i, j, plan in plans[g]:
                pij = plan and _absorbed(c_t[i], c_t[j], fiber, plan, h_bound, prec)
                pulled.append((pij or _dot(_ZERO, c_t[i], column(j), prec), h_here[i][j]))
            pulled += [(h_there[i][i], h_here[i][i]) for i in base]

            # the target L1^2 h(x) is exactly zero where h(x) is, and there
            # the difference is the pulled entry itself.  Tied entries have
            # equal absolute values, so the maxima do not depend on the order
            scale = diff = _ZERO
            for pij, h in pulled:
                if h[0]:
                    tm, te = _mul(lam1_sq, h, prec)
                    if _abs_gt((tm, te), scale):
                        scale = tm, te
                    d = _add(pij, (-tm, te), prec)
                elif pij[0]:
                    d = pij
                else:
                    continue
                if _abs_gt(d, diff):
                    diff = d
            scale = (abs(scale[0]), scale[1]) if scale[0] else _ONE

            # every other fiber entry has a zero target.  By lemma 1 it is
            # at most (|estimate| + w + slack) * 2**(top + h_top), and an
            # entry at most the residual so far times the scale leaves the
            # residual as it is
            thr = residuals[g][0] * scale[0], residuals[g][1] + scale[1]
            if _abs_gt(diff, thr):
                thr = abs(diff[0]), diff[1]
            slack = ldexp(left_out, _H_FLOOR)
            tf, te = _split(thr)
            for i, j, q, top, w in estimates[g]:
                # a float below the nearest float to tf * 2**s is below
                # tf * 2**s itself, so ldexp's rounding is harmless; above
                # 2**960 no bound lemma 1 gives comes near the limit
                if abs(sum(map(mul, hs, q))) + w + slack < ldexp(tf, min(te - h_top - top, 960)):
                    continue
                pij = _dot(_ZERO, c_t[i], column(j), prec)
                if _abs_gt(pij, thr):
                    diff = pij
                    thr = abs(pij[0]), pij[1]
                    tf, te = _split(thr)
                elif _abs_gt(pij, diff):
                    diff = pij
            # rounded division by scale is monotone, so the largest
            # relative residual is the largest difference divided once
            rel = _div((abs(diff[0]), diff[1]), scale, prec)
            if _abs_gt(rel, residuals[g]):
                residuals[g] = rel
    return residuals


# ----------------------------------------------------------------------
# the block decomposition's basis, the conjugates and J1's ratios
#
# Matrices are tuples of row tuples.  Entries entering iv.mpf are exact
# mpf values produced at working precision, so the conversions below do
# not widen anything.


def _freeze(rows):
    return tuple(tuple(row) for row in rows)


def _iv_matrix(rows):
    return [[iv.mpf(x) for x in row] for row in rows]


def _iv_matmul(a, b):
    """a * b; each entry sums from zero in increasing index order."""
    n, k, m = len(a), len(b), len(b[0])
    zero = iv.mpf(0)
    return [
        [sum((a[i][l] * b[l][j] for l in range(k)), zero) for j in range(m)]
        for i in range(n)
    ]


def _mid(x):
    return (mp.mpf(x.a) + mp.mpf(x.b)) / 2


def _kernel_vector(rows, workbits, scalar):
    """One kernel vector of a numerically singular square matrix.

    scalar is mp.mpf or mp.mpc.  Full-pivot elimination stops once the
    remaining entries drop far below the working scale and expects nullity
    one, which holds for a simple eigenvalue; back-substitution sets the
    free coordinate to one and the result is scaled so that its largest
    coordinate is one.
    """
    n = len(rows)
    a = [[scalar(x) for x in row] for row in rows]
    stop = mp.mpf(2) ** (-(3 * workbits) // 4)
    scale = max((abs(x) for row in a for x in row), default=mp.mpf(0))
    if scale == 0:
        raise NeedsEscalation("kernel computation hit a zero matrix")
    rank, row_perm, col_perm = full_pivot_eliminate(a, scale * stop)
    if rank != n - 1:
        raise NeedsEscalation(
            "numeric kernel has unexpected dimension %d" % (n - rank)
        )
    x = [scalar(0)] * n
    x[col_perm[n - 1]] = scalar(1)
    for step in range(rank - 1, -1, -1):
        row = a[row_perm[step]]
        acc = scalar(0)
        for j in range(step + 1, n):
            acc += row[col_perm[j]] * x[col_perm[j]]
        x[col_perm[step]] = -acc / row[col_perm[step]]
    lead = max(x, key=abs)
    return [v / lead for v in x]


def decompose_at(splitter, chi, bits):
    """The eigenblocks of a splitter with squarefree characteristic
    polynomial chi at bits: (blocks, basis, inverse, workbits).

    Real eigenvalues give one-dimensional blocks in descending order, then
    each complex pair a plane from the real and imaginary parts of its
    eigenvector.  inverse is the interval Gauss-Jordan inverse of the basis;
    NeedsEscalation unless every pivot excludes zero.
    """
    p = splitter.n
    real_roots, complex_disks, workbits = certified_poly_roots(chi, bits)
    with _at_prec(workbits):
        columns, blocks = [], []
        for lo, hi in reversed(real_roots):
            lam = _mpf_from_rational((lo + hi) / 2)
            rows = [
                [mp.mpf(int(splitter[i, j])) - (lam if i == j else 0) for j in range(p)]
                for i in range(p)
            ]
            blocks.append((len(columns), 1))
            columns.append(_kernel_vector(rows, workbits, mp.mpf))
        for center, _radius in complex_disks:
            rows = [
                [mp.mpc(int(splitter[i, j])) - (center if i == j else 0) for j in range(p)]
                for i in range(p)
            ]
            vec = _kernel_vector(rows, workbits, mp.mpc)
            blocks.append((len(columns), 2))
            columns.append([z.real for z in vec])
            columns.append([z.imag for z in vec])
        basis = [[columns[j][i] for j in range(p)] for i in range(p)]
        inverse = _iv_inverse(_iv_matrix(basis))
    return blocks, basis, inverse, workbits


def restricted_blocks(decomp, a: IntMatrix):
    """Interval form of basis^-1 * a * basis, as one full matrix of row
    tuples.  Computed once per (decomposition, matrix): J1 and the
    equivariance check read the same product."""
    if a.n != decomp.p:
        raise InputError("matrix dimension does not match the decomposition")
    c = decomp._conjugates.get(a)
    if c is None:
        with _at_prec(decomp.workbits):
            am = [[iv.mpf(int(a[i, j])) for j in range(a.n)] for i in range(a.n)]
            c = _freeze(_iv_matmul(decomp.inverse, _iv_matmul(am, _iv_matrix(decomp.basis))))
        decomp._conjugates[a] = c
    return c


def conjugated_numeric(decomp, a: IntMatrix):
    """Midpoint form of basis^-1 * a * basis (the block-coordinate action)."""
    if a == IntMatrix.identity(a.n):
        with _at_prec(decomp.workbits):
            return _freeze(
                [[mp.mpf(1 if i == j else 0) for j in range(a.n)] for i in range(a.n)]
            )
    c = restricted_blocks(decomp, a)
    with _at_prec(decomp.workbits):
        return _freeze([[_mid(x) for x in row] for row in c])


def _block_ratio(c, idx, gen_index, block_index):
    """Similarity ratio of one diagonal block of an interval matrix: the
    midpoint of |c_ii|, or of sqrt(hull(g00, g11)) over the squared column
    norms of a plane.  A GL(p, Z) matrix acts on an invariant block by
    |nu| > 0, so an enclosure that touches 0 means the precision ran out."""
    if len(idx) == 1:
        enc = abs(c[idx[0]][idx[0]])
    else:
        i, j = idx
        g00 = c[i][i] * c[i][i] + c[j][i] * c[j][i]
        g11 = c[i][j] * c[i][j] + c[j][j] * c[j][j]
        enc = iv.mpf([min(mp.mpf(g00.a), mp.mpf(g11.a)),
                      max(mp.mpf(g00.b), mp.mpf(g11.b))])
    if mp.mpf(enc.a) <= 0:
        raise PrecisionError(
            "J1: generator %d block %d: ratio enclosure touches 0"
            % (gen_index, block_index)
        )
    return _mid(enc) if len(idx) == 1 else _mid(iv.sqrt(enc))


def ratios_of_matrix(decomp, a, gen_index):
    """Per-block ratios of one generator that commutes with the splitter."""
    c = restricted_blocks(decomp, a)
    with _at_prec(decomp.workbits):
        return [
            _block_ratio(c, list(decomp.block_indices(k)), gen_index, k)
            for k in range(decomp.delta)
        ]


# ----------------------------------------------------------------------
# the base translations and the warping functionals
#
# A functional is the tuple of its coefficients c: f(x) = c . x.  Its
# constant is zero, since equivariance fixes only the increments c . v.


def log_ratio_translations(ratios, flat_block):
    """The base translation of each generator at the decomposition's
    working precision: generator l moves base coordinate l by ln L1, its
    flat-block ratio, and no other."""
    n = ratios.n_gens
    with _at_prec(ratios.decomposition.workbits):
        zero = mp.mpf(0)
        return [tuple(mp.log(row[flat_block]) if i == l else zero for i in range(n))
                for l, row in enumerate(ratios.entries)]


def solve_equivariant_functional(translations, targets, precision: int):
    """The coefficients c of the functional f with f(x + v_j) - f(x) = r_j
    for all j.

    Solves c . v_j = r_j by Gaussian elimination at the precision plus
    guard bits and verifies every residual against the tolerance; a
    system no functional matches, or one too singular to solve, raises
    StructureError.
    """
    precision = validate_precision(precision)
    translations = [list(v) for v in translations]
    targets = list(targets)
    if len(translations) != len(targets):
        raise InputError("need one target per translation")
    if not translations:
        raise InputError("need at least one translation")
    n = len(translations[0])
    if any(len(v) != n for v in translations):
        raise InputError("translations must share one dimension")
    workbits = precision + GUARD_BITS
    tol = tolerance(precision)
    with _at_prec(workbits):
        a = [[_to_mpf(x) for x in v] + [_to_mpf(r)] for v, r in zip(translations, targets)]
        rows = len(a)
        pivot_cols = []
        r = 0
        for col in range(n):
            piv = max(range(r, rows), key=lambda i: abs(a[i][col]), default=None)
            if piv is None or abs(a[piv][col]) <= tol:
                continue
            a[r], a[piv] = a[piv], a[r]
            lead = a[r][col]
            a[r] = [x / lead for x in a[r]]
            for i in range(rows):
                if i != r:
                    f = a[i][col]
                    if f:
                        a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            pivot_cols.append(col)
            r += 1
        for i in range(r, rows):
            if abs(a[i][n]) > tol:
                raise StructureError(
                    "translation system is inconsistent: no affine functional "
                    "matches the requested increments"
                )
        coeffs = [mp.mpf(0)] * n
        for row_idx, col in enumerate(pivot_cols):
            coeffs[col] = a[row_idx][n]
        for v, target in zip(translations, targets):
            shift = mp.mpf(0)
            for c, vi in zip(coeffs, v):
                shift += c * _to_mpf(vi)
            if abs(shift - _to_mpf(target)) > tol:
                raise StructureError(
                    "translation system is singular: residual exceeds tolerance"
                )
    return tuple(coeffs)


def warping_functionals(ratios, flat_block, translations):
    """The functional of every block, zero on the flat block, and the base
    conformal factor's, as (functionals, base).  Block k's has increments
    ln(L1/Lk) along each generator's base translation and the base's has
    ln L1, L1 being the flat-block ratio; the targets are formed at the
    decomposition's working precision."""
    decomp = ratios.decomposition
    precision = decomp.precision_bits
    with _at_prec(decomp.workbits):
        lam1 = [row[flat_block] for row in ratios.entries]
        functionals = []
        for k in range(decomp.delta):
            if k == flat_block:
                functionals.append((0,) * len(translations[0]))
                continue
            targets = [mp.log(l1 / row[k]) for l1, row in zip(lam1, ratios.entries)]
            functionals.append(solve_equivariant_functional(translations, targets, precision))
        base = solve_equivariant_functional(translations, [mp.log(l1) for l1 in lam1], precision)
    return functionals, base


def cross_functional(spec, k, k2):
    """The functional of the cross term between blocks k and k2 of spec:
    increments ln(L1/sqrt(Lk Lk')), formed at the working precision."""
    decomp = spec.decomposition
    with _at_prec(decomp.workbits):
        targets = [
            mp.log(row[spec.flat_block]) - mp.log(row[k] * row[k2]) / 2
            for row in spec.ratios.entries
        ]
        return solve_equivariant_functional(spec.translations, targets, decomp.precision_bits)


# ----------------------------------------------------------------------
# the points, the scale search and the sampled check on a MetricSpec


def _grid_points(spec):
    """Deterministic fundamental-domain grid, 10 cells per translation, as
    pairs at the metric's working precision.  Translation j takes digit j
    of the cell number, least significant first, and cell c the weight
    (2c + 1) / 20 rounded to that precision."""
    g, workbits = len(spec.translations), spec.decomposition.workbits
    with _at_prec(workbits):
        cells = [to_dyadic(Fraction(2 * c + 1, 2 * _CROSS_GRID)) for c in range(_CROSS_GRID)]
    weights = [
        [cells[flat // _CROSS_GRID ** j % _CROSS_GRID] for j in range(g)]
        for flat in range(_CROSS_GRID ** g)
    ]
    return span(weights, spec.translations, workbits)


def _sample_points(spec, seed: int):
    """SAMPLES seeded points in the span of the stored base translations,
    as pairs at the metric's working precision: each translation takes a
    48-bit random dyadic weight."""
    rng = random.Random(seed)
    g = len(spec.translations)
    weights = [[(rng.getrandbits(48), -48) for _ in range(g)] for _ in range(SAMPLES)]
    return span(weights, spec.translations, spec.decomposition.workbits)


def cross_epsilon(spec, coupled):
    """The common scale of the cross terms coupled adds to spec, at scale 1
    there, by cross_scale on spec's grid and tolerance, as an mpf; 0 if none."""
    epsilon = cross_scale(
        MetricTerms(spec),
        MetricTerms(coupled).cross[len(spec.cross_terms):],
        _grid_points(spec),
        to_dyadic(tolerance(spec.decomposition.precision_bits)),
        _CROSS_BISECT_STEPS,
    )
    return from_dyadic(epsilon)


def sampled_residuals(spec, seed: int):
    """The largest relative residual of gamma*h = L1^2 h for each generator
    of spec, over the SAMPLES seeded points, as mpf: pullback_residuals on
    each generator's conjugate C, squared flat-block ratio L1^2 and base
    translation v, converted to pairs at the working precision."""
    decomp, ratios = spec.decomposition, spec.ratios
    blocks = [conjugated_numeric(decomp, a) for a in ratios.generators]
    pts = _sample_points(spec, seed)
    actions = []
    with _at_prec(decomp.workbits):
        for c, v, row in zip(blocks, spec.translations, ratios.entries):
            lam1 = mp.mpf(row[spec.flat_block])
            c_t = [[to_dyadic(e) for e in col] for col in zip(*c)]
            v = [to_dyadic(t) for t in v]
            actions.append((c_t, to_dyadic(lam1 * lam1), v))
    return [from_dyadic(r) for r in pullback_residuals(MetricTerms(spec), actions, pts)]


# ----------------------------------------------------------------------
# the decomposition, generators and metric sections and the check payloads


def _functional_payload(f, bits):
    # every functional's constant is zero; "constant" keeps the schema-1 bytes
    return {
        "coeffs": enc_float_vector(f, bits),
        "constant": enc_float(0, bits),
    }


def decomposition_section(decomp, block_embeddings):
    return {
        "p": decomp.p,
        "delta": decomp.delta,
        "blocks": [list(b) for b in decomp.blocks],
        "block_embeddings": list(block_embeddings),
        "basis": enc_float_matrix(decomp.basis, decomp.workbits),
    }


def generators_section(spec, labels):
    # every fiber translation is zero and every witness is the ratio
    # itself; "translation" and "exponent": 1 keep the schema-1 bytes
    ratios = spec.ratios
    workbits = ratios.decomposition.workbits
    return [
        {
            "label": label,
            "matrix": matrix_to_json(a),
            "translation": ["0"] * ratios.decomposition.p,
            "base_translation": enc_float_vector(v, workbits),
            "ratio_row": enc_float_vector(row, workbits),
            "witnesses": [
                {"element": u.to_json(), "embedding": i, "exponent": 1}
                for i in ratios.places
            ],
        }
        for label, a, v, row, u in zip(
            labels, ratios.generators, spec.translations, ratios.entries, ratios.units
        )
    ]


def metric_section(spec):
    decomp = spec.decomposition
    workbits = decomp.workbits
    return {
        "flat_block": spec.flat_block,
        "base_dim": spec.n,
        "total_dim": spec.total_dim,
        "functionals": [_functional_payload(f, workbits) for f in spec.functionals],
        "base_conformal": _functional_payload(spec.base_conformal, workbits),
        "translations": [enc_float_vector(v, workbits) for v in spec.translations],
        "cross_terms": [
            {
                "blocks": [term.k, term.k2],
                # every coupling table is all ones
                "table": [["1"] * len(decomp.block_indices(term.k2))
                          for _ in decomp.block_indices(term.k)],
                "functional": _functional_payload(term.functional, workbits),
                "epsilon": enc_float(term.epsilon, workbits),
            }
            for term in spec.cross_terms
        ],
        # schema 1 has a slot for glued product factors; no pipeline
        # builds one
        "extensions": [],
    }


def j1_check(bits):
    # check_J1 raises unless every generator is a similarity, and decides
    # that exactly; "tolerance_bits" keeps the schema-1 bytes
    return {"verdict": True, "tolerance_bits": bits // 2}


def rank_check(value, expected, bits):
    # the rank is proven at the decomposition's precision alone, by a
    # certified log minor and exact unit relations;
    # value_at_doubled_precision and doubled_bits keep their schema-1 names
    # and bytes and repeat that value
    value, expected = int(value), int(expected)
    return {"expected": expected, "value": value, "value_at_doubled_precision": value,
            "doubled_bits": min(2 * bits, MAX_PRECISION), "verdict": value == expected}


def spectral_check(ratios, up, contracting):
    """The spectral shape make_kourganoff decided, with the contracting
    ratio of its one generator."""
    ratio = enc_float(ratios.entries[0][contracting[0]], ratios.decomposition.workbits)
    return {"verdict": True, "expanding_block": up, "contracting_blocks": contracting,
            "ratio": ratio}


def warp_check(spec, q, up):
    # (lambda t)^(2q+2) = lambda^(2q+2) t^(2q+2) holds in any commutative
    # ring, and the solved coefficient ln(lambda_c / mu) / ln(lambda_c) is
    # q + 1, since mu = lambda_c^(-q) when det a = 1; schema 1 seals both
    # facts as literals, and the coefficient as solved
    coeff = enc_float(spec.functionals[up][0], spec.decomposition.workbits)
    return {"power": 2 * q + 2, "exact_points": 50, "exact_identity": True,
            "functional_coeff": coeff, "coeff_matches_power": True, "verdict": True}


def norm_product_check(emb, log_rows):
    """The absolute norm of every unit is 1 up to sign, so the weighted
    log coordinates of each, log_rows, must sum to zero: |exp(sum) - 1|
    below the tolerance, at the embeddings' working precision."""
    tol = tolerance(emb.bits)
    reports = []
    with _at_prec(emb.workbits):
        for idx, row in enumerate(log_rows):
            residual = abs(mp.exp(mp.fsum(row)) - 1)
            reports.append({"unit": idx, "residual": enc_float(residual, emb.workbits),
                            "verdict": bool(residual < tol)})
    return {"verdict": all(r["verdict"] for r in reports), "units": reports}


def equivariance_check(spec, labels, seed, results):
    """The reports of verify_equivariance's results on spec, one
    (max_residual, verdict) pair per generator label."""
    bits = spec.decomposition.precision_bits + 32
    reports = [{"generator": label, "samples": SAMPLES, "seed": seed,
                "max_residual": enc_float(residual, bits), "verdict": verdict}
               for label, (residual, verdict) in zip(labels, results)]
    return {"verdict": all(verdict for _, verdict in results), "reports": reports}
