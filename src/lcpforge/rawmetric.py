"""All arithmetic on metric values: the metric, its points, the cross-term
scale search and the sampled pullback residual, on Python-int dyadics.

Every value here is a signed pair (m, e) of ints standing for m * 2**e.
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
round to the same value; elsewhere, and at working precisions above
EXP_COSH_CUTOFF - 14 bits, where no bound is proven, _exp computes it.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_div, mpf_exp, round_nearest
from mpmath.libmp.libelefun import EXP_COSH_CUTOFF, exp_basecase, ln2_fixed

from .embeddings import _at_prec
from .errors import InputError

_ZERO = (0, 0)
_ONE = (1, 0)


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
    return to_dyadic(f.constant), [to_dyadic(c) for c in f.coeffs]


class MetricTerms:
    """The constant data of a MetricSpec as pairs at its working
    precision: functional coefficients, cross-term scales and tables.
    Converted once, read by every metric_gram call.

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
                    [[to_dyadic(t) for t in row] for row in term.table],
                )
                for term in spec.cross_terms
            ]
        self.functionals += [f for _, f, _, _, _ in self.cross]


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

    Lemma (the error of the fixed-point path, which _exp_near rests on).
    Let 64 <= wp <= EXP_COSH_CUTOFF, r = floor(sqrt(wp)),
    I = floor((wp + r) / (2r - 2)) + 1 and L = 3I + 16 (_exp_error_units).
    For any x = m * 2**e let (V, s) = _exp_fixed(m, e, wp) and
    M = max(1, V * 2**-wp + 2**-20).  Then
    |V * 2**s - exp(x)| <= (L * M + 1) * 2**s.  (_relative_error turns
    this into a bound relative to V * 2**s.)
    Proof.  (a) The reduction gives x = n ln 2 + t * 2**-wp + xi with
    |xi| < 5 * 2**-wp: for |x| < 2 only the floor of t, 0 <= xi < 2**-wp;
    for |x| >= 2 the floors of the shifted x and of t, and ln2_fixed's
    error of at most 2 units (machin sums its series at 10 guard bits;
    tests/test_rawmetric.py checks it) times |n| <= 1.45 * 2**mag + 1.
    So replacing x by n ln 2 + t * 2**-wp costs at most 6M units of 2**s.
    (b) exp_basecase works at P = wp + r bits on u = t * 2**-P, |u| <
    2**(1 - r).  Its series terms are floored from nonnegative values, so
    each is low by less than 3 units of 2**-P and is 0 once u**(2i) <
    2**-P, after at most I rounds; the tail is below 2 terms' worth.  So
    the two sums and their combination are within 3(I + 2) + 2 units of
    exp(u) * 2**P.  (c) Each of the r squarings doubles the relative error
    and its floor adds at most max(1, exp(-t * 2**-wp)) * 2**-P; the final
    shift by r floors once more.  That gives |V - exp(t * 2**-wp) * 2**wp|
    <= (3(I + 2) + 4) M + 1 with M >= max(1, exp(t * 2**-wp)), since
    L * M + 1 < 2**(wp - 20); with (a) that is the bound.
    Above EXP_COSH_CUTOFF exp_basecase runs exponential_series, whose
    square root (isqrt_fast) carries no proven error bound, so no such
    lemma is claimed there.
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
    r = int(wp ** 0.5)
    return 3 * ((wp + r) // (2 * r - 2) + 1) + 16


def _relative_error(v, wp, units):
    """An int rho with |V * 2**s - exp(x)| <= rho * 2**-wp * V * 2**s, for
    the lemma's (V, s) at wp bits and its L, units.  The lemma's bound is
    at most L * V * 2**-wp + 2 units when V >= 2**wp, and at most L + 2
    below."""
    if v >> wp:
        return units + 3
    return ((units + 2) << wp) // v + 1


def _derivable(prec):
    """Whether exps at prec bits may be derived: _exp's lemma holds at
    wp = prec + 14, which the exp_basecase Taylor loop computes."""
    return 64 <= prec + 14 <= EXP_COSH_CUTOFF


def _exps_here(twice, prec, units, fixed):
    """exp(y) as _exp gives it, for each y = 2 f(x) at a sample point x.
    Appends to fixed, per y, what _exp_near needs to derive exp(y') at
    x + v from it: (y's mantissa at the scale 2**-(wp + 8), V, s, rho), or
    None where mpf_exp takes a branch that has no fixed-point value.
    units is _exp_error_units(prec + 14)."""
    wp = prec + 14
    low = -wp - 8
    values = []
    for m, e in twice:
        if not m or m.bit_length() + e < -wp or e < low:
            values.append(_exp(m, e, prec))
            fixed.append(None)
            continue
        v, s = _exp_fixed(m, e, wp)
        values.append(_round(v, s, prec))
        fixed.append((m << (e - low), v, s, _relative_error(v, wp, units)))
    return values


def _increment(functional, v, prec, units):
    """For the translation v of the base and a functional c . x + d: the
    exact increment d0 = 2 c . v of 2 f, as the floor of -d0 at the scale
    2**-(wp + 8), and D ~ exp(d0) on the fixed-point path at
    min(wp + 64, EXP_COSH_CUTOFF) bits, as (V_D, s_D).  Then _exp_near's
    bounds in units of 2**-wp: rho_D + L + 6 relative, and rho_D + 4 with
    L + 1 absolute for -2 < y < 0; units is L at wp = prec + 14."""
    wp = prec + 14
    products = [(cm * vm, ce + ve) for (cm, ce), (vm, ve) in zip(functional[1], v) if cm and vm]
    low = min((pe for _, pe in products), default=0)
    dm = sum(pm << (pe - low) for pm, pe in products)
    if not dm:
        return 0, 1 << wp, -wp, units + 6, 4, units + 1
    de = low + 1
    shift = de + wp + 8
    floor_minus = -dm << shift if shift >= 0 else -dm >> -shift
    wp_d = min(wp + 64, EXP_COSH_CUTOFF)
    vd, sd = _exp_fixed(dm, de, wp_d)
    rho = (_relative_error(vd, wp_d, _exp_error_units(wp_d)) >> (wp_d - wp)) + 1
    return floor_minus, vd, sd, rho + units + 6, rho + 4, units + 1


def _exp_near(y, here, increment, prec):
    """exp(y) as _exp gives it, for y = 2 f(x + v), derived from the
    sample point's own exponential when that decides the rounding.

    With y0 = 2 f(x), V * 2**s from _exp_here, the exact increment d0 and
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
    if here is None or not m or mag < -wp or e < low:
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


def _twice(functional, x, prec):
    """2 f(x) for a functional c . x + d, summed from d; doubling a value
    of at most prec bits is exact."""
    constant, coeffs = functional
    m, e = _dot(constant, coeffs, x, prec)
    return m, e + 1


def _exp_twice(functional, x, prec):
    """exp(2 f(x)) for a functional c . x + d, summed from d, by _exp:
    mpf_exp's value bit for bit, with no mpf built on the way."""
    constant, coeffs = functional
    m, e = _dot(constant, coeffs, x, prec)
    return _exp(m, e + 1, prec)


def _add_cross(gram, scale, idx1, idx2, table, prec):
    """Add scale * table[a][b] to the entries (idx1[a], idx2[b]) and
    (idx2[b], idx1[a]) of gram, in place, row by row."""
    for a, i in enumerate(idx1):
        for b, j in enumerate(idx2):
            value = _mul(scale, table[a][b], prec)
            gram[i][j] = _add(gram[i][j], value, prec)
            gram[j][i] = _add(gram[j][i], value, prec)


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
        for (epsilon, _, idx1, idx2, table), factor in zip(terms.cross, factors):
            _add_cross(gram, _mul(epsilon, factor, prec), idx1, idx2, table, prec)
    return gram


def _coupled(cross, size):
    """For each index below size, the indices a cross term couples it
    with, sorted; empty for an index no term touches."""
    partners = [set() for _ in range(size)]
    for _, _, idx1, idx2, _ in cross:
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
    """
    prec = terms.prec
    coupled = [i for i, s in enumerate(_coupled(terms.cross + new_terms, terms.total)) if s]
    at = {i: k for k, i in enumerate(coupled)}
    new = [([at[i] for i in idx1], [at[j] for j in idx2], table)
           for _, _, idx1, idx2, table in new_terms]
    grid = []
    for x in points:
        gram = metric_gram(terms, x)
        if not all(_above(gram[i][i], tol) for i in range(terms.total) if i not in at):
            # no scale passes at this point
            return 0, -steps - 1
        grid.append((
            [[gram[i][j] for j in coupled] for i in coupled],
            [_exp_twice(f, x, prec) for _, f, _, _, _ in new_terms],
        ))

    def scaled_ok(eps):
        for gram, factors in grid:
            a = [list(row) for row in gram]
            for (idx1, idx2, table), factor in zip(new, factors):
                _add_cross(a, _mul(eps, factor, prec), idx1, idx2, table, prec)
            if not positive_definite(a, tol, prec):
                return False
        return True

    if scaled_ok(_ONE):
        return _ONE
    lo, hi = 0, 1 << steps
    for _ in range(steps):
        mid = (lo + hi) >> 1
        if scaled_ok((mid, -steps)):
            lo = mid
        else:
            hi = mid
    return lo, -steps - 1


def pullback_residuals(terms: MetricTerms, actions, points, prec):
    """Largest relative residual |J^T h(x + v) J - L1^2 h(x)| / max|L1^2 h(x)|
    over the points, for each action, at prec bits, as pairs.

    Each action is (C^T, L1^2, v): the transpose of the block-coordinate
    linear part, the squared flat-block ratio and the base translation, as
    pairs of at most prec bits, like the points.  J = diag(C, I), so only
    the fiber block of the pullback moves, to C^T (H_F C).  h(x) is
    evaluated once per point, h(x + v) once per point and action.  When
    _derivable, exp_basecase runs for h(x) alone: the exps of h(x + v) are
    derived from those of h(x) by _exp_near, with the increments
    exp(2 c . v) computed once per functional and action.

    Only the entries the metric's sparsity lets be nonzero are read: the
    fiber block, whose row l has the diagonal and the indices cross terms
    couple l with, and the base diagonal.  Every other entry is an exact
    zero in h(x), h(x + v) and the pullback alike.
    """
    p, base = terms.p, range(terms.p, terms.total)
    # a block-scalar row (None) holds its diagonal alone
    rows = [sorted(s + [l]) if s else None for l, s in enumerate(_coupled(terms.cross, p))]
    residuals = [_ZERO] * len(actions)
    exp_prec = terms.prec
    derive = _derivable(exp_prec)
    if derive:
        units = _exp_error_units(exp_prec + 14)
        increments = [[_increment(f, v, exp_prec, units) for f in terms.functionals]
                      for _, _, v in actions]
    for x in points:
        if derive:
            fixed = []
            h_here = metric_gram(terms, x, lambda twice: _exps_here(twice, exp_prec, units, fixed))
        else:
            h_here = metric_gram(terms, x)
        here = [h for row in h_here[:p] for h in row[:p]] + [h_here[i][i] for i in base]
        for g, (c_t, lam1_sq, v) in enumerate(actions):
            x_v = [_add(xi, vi, prec) for xi, vi in zip(x, v)]
            if derive:
                h_there = metric_gram(terms, x_v, lambda twice: [
                    _exp_near(y, h, d, exp_prec) for y, h, d in zip(twice, fixed, increments[g])
                ])
            else:
                h_there = metric_gram(terms, x_v)
            fiber = [
                (h_row[l], None) if cols is None else ([h_row[k] for k in cols], cols)
                for l, (h_row, cols) in enumerate(zip(h_there, rows))
            ]
            # every sum runs from zero in index order.  Entry l of column j
            # of H_F C is H_F[l] . C[:, j] over the entries row l may hold;
            # the rest are exact zeros and add nothing.  For a block-scalar
            # row that is one product, rounded as _dot rounds it
            hc_cols = []
            for c_col in c_t:
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
                hc_cols.append(hc_col)
            pulled = [_dot(_ZERO, c_col, hc_col, prec) for c_col in c_t for hc_col in hc_cols]
            pulled += [h_there[i][i] for i in base]
            # the target L1^2 h(x) is exactly zero where h(x) is, and there
            # the difference is the pulled entry itself.  Tied entries have
            # equal absolute values, so the maxima do not depend on the order
            scale = diff = _ZERO
            for pij, h in zip(pulled, here):
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
            if not scale[0]:
                scale = _ONE
            # rounded division by scale is monotone, so the largest
            # relative residual is the largest difference divided once
            rel = _div((abs(diff[0]), diff[1]), (abs(scale[0]), scale[1]), prec)
            if _abs_gt(rel, residuals[g]):
                residuals[g] = rel
    return residuals
