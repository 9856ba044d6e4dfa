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
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_div, mpf_exp, round_nearest
from mpmath.libmp.libelefun import exp_basecase, ln2_fixed

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
    Converted once, read by every metric_gram call."""

    __slots__ = ("prec", "p", "n", "total", "blocks", "base", "cross")

    def __init__(self, spec):
        decomp = spec.decomposition
        self.prec = decomp.workbits
        self.p, self.n, self.total = decomp.p, spec.n, spec.total_dim
        with _at_prec(self.prec):
            # the flat block carries the identity form: no functional
            self.blocks = [
                (
                    None if k == spec.flat_block else _functional(spec.functionals[k]),
                    decomp.block_indices(k),
                )
                for k in range(decomp.delta)
            ]
            self.base = _functional(spec.base_conformal)
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


def _exp(m, e, prec):
    """exp(m * 2**e) rounded to prec bits: libmp's mpf_exp on ints.

    mpf_exp takes x to a fixed point at wp = prec + 14 bits, reduces it by
    ln 2 when |x| >= 2, runs exp_basecase and rounds once; these are its
    steps, without the mpf conversions around them.  An integer x above
    600 bits takes mpf_exp's other branch, a power of e, so it goes to
    mpf_exp itself.  exp(0) is 1, and so is exp(x) for |x| < 2**-wp, where
    mpf_exp perturbs 1 and round to nearest leaves it.
    """
    if not m:
        return _ONE
    # m * 2**e is an integer when e is at least minus m's trailing zeros
    if prec > 600 and e + (m & -m).bit_length() > 0:
        return _from_raw(mpf_exp(from_man_exp(m, e), prec, round_nearest))
    mag = m.bit_length() + e
    wp = prec + 14
    if mag < -wp:
        return _ONE
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
    return _round(exp_basecase(t, wp), n - wp, prec)


def _exp_twice(functional, x, prec):
    """exp(2 f(x)) for a functional c . x + d, summed from d, by _exp:
    mpf_exp's value bit for bit, with no mpf built on the way."""
    constant, coeffs = functional
    m, e = _dot(constant, coeffs, x, prec)
    # doubling a value of at most prec bits is exact
    return _exp(m, e + 1, prec)


def _add_cross(gram, scale, idx1, idx2, table, prec):
    """Add scale * table[a][b] to the entries (idx1[a], idx2[b]) and
    (idx2[b], idx1[a]) of gram, in place, row by row."""
    for a, i in enumerate(idx1):
        for b, j in enumerate(idx2):
            value = _mul(scale, table[a][b], prec)
            gram[i][j] = _add(gram[i][j], value, prec)
            gram[j][i] = _add(gram[j][i], value, prec)


def metric_gram(terms: MetricTerms, x):
    """Gram matrix, as lists of pairs, at base log-coordinates x.

    x is pairs at any precision; each is rounded to the metric's working
    precision first.  Entries no term sets are exact zeros.
    """
    prec, p, total = terms.prec, terms.p, terms.total
    x = [_round(m, e, prec) for m, e in x]
    gram = [[_ZERO] * total for _ in range(total)]
    for functional, indices in terms.blocks:
        scale = _ONE if functional is None else _exp_twice(functional, x, prec)
        for i in indices:
            gram[i][i] = scale
    base_scale = _exp_twice(terms.base, x, prec)
    for i in range(p, p + terms.n):
        gram[i][i] = base_scale
    for epsilon, functional, idx1, idx2, table in terms.cross:
        scale = _mul(epsilon, _exp_twice(functional, x, prec), prec)
        _add_cross(gram, scale, idx1, idx2, table, prec)
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
    evaluated once per point, h(x + v) once per point and action.

    Only the entries the metric's sparsity lets be nonzero are read: the
    fiber block, whose row l has the diagonal and the indices cross terms
    couple l with, and the base diagonal.  Every other entry is an exact
    zero in h(x), h(x + v) and the pullback alike.
    """
    p, base = terms.p, range(terms.p, terms.total)
    # a block-scalar row (None) holds its diagonal alone
    rows = [sorted(s + [l]) if s else None for l, s in enumerate(_coupled(terms.cross, p))]
    residuals = [_ZERO] * len(actions)
    for x in points:
        h_here = metric_gram(terms, x)
        here = [h for row in h_here[:p] for h in row[:p]] + [h_here[i][i] for i in base]
        for g, (c_t, lam1_sq, v) in enumerate(actions):
            h_there = metric_gram(terms, [_add(xi, vi, prec) for xi, vi in zip(x, v)])
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
