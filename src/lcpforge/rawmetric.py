"""The metric and the sampled pullback residual on raw mpmath values.

Every arithmetic operation of mp.mpf wraps one libmp call in a new Python
object, and in the sampled equivariance check that overhead, not the
arithmetic, is most of the time.  This module runs the same libmp
functions on the raw (sign, man, exp, bc) tuples, each with the precision
and round-to-nearest rounding the mpf operator passes, in the order the
mpf expressions evaluate.  Every value is therefore the mpf value bit for
bit; a test pins these functions to the ones mpmath's operators call.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp
from mpmath.libmp import (
    fone,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_gt,
    mpf_mul,
    mpf_mul_int,
    mpf_pos,
    mpf_sub,
    round_nearest,
)

from .embeddings import _at_prec

_RND = round_nearest


def _mpf_from_rational(q):
    return mp.mpf(q.numerator) / mp.mpf(q.denominator)


def _to_mpf(x):
    """Convert a scalar (mpf, int, float, or exact rational) to mpf."""
    if isinstance(x, Fraction):
        return _mpf_from_rational(x)
    return mp.mpf(x)


def _raw(x):
    return _to_mpf(x)._mpf_


def _raw_functional(f):
    return _raw(f.constant), [_raw(c) for c in f.coeffs]


class MetricTerms:
    """The constant data of a MetricSpec as raw values at its working
    precision: functional coefficients, cross-term scales and tables,
    extension grams.  Converted once, read by every metric_gram call."""

    __slots__ = ("prec", "p", "n", "total", "blocks", "base", "cross", "extensions")

    def __init__(self, spec):
        decomp = spec.decomposition
        self.prec = decomp.workbits
        self.p, self.n, self.total = decomp.p, spec.n, spec.total_dim
        with _at_prec(self.prec):
            # the flat block carries the identity form: no functional
            self.blocks = [
                (
                    None if k == spec.flat_block else _raw_functional(spec.functionals[k]),
                    decomp.block_indices(k),
                )
                for k in range(decomp.delta)
            ]
            self.base = _raw_functional(spec.base_conformal)
            self.cross = [
                (
                    _raw(term.epsilon),
                    _raw_functional(term.functional),
                    list(decomp.block_indices(term.k)),
                    list(decomp.block_indices(term.k2)),
                    [[_raw(t) for t in row] for row in term.table],
                )
                for term in spec.cross_terms
            ]
            self.extensions = [
                (_raw_functional(ext.functional), [[_raw(g) for g in row] for row in ext.gram])
                for ext in spec.extensions
            ]


def _dot(acc, a, b, prec):
    """acc + a . b, adding each rounded product a[i] * b[i] in index order."""
    for ai, bi in zip(a, b):
        acc = mpf_add(acc, mpf_mul(ai, bi, prec, _RND), prec, _RND)
    return acc


def _exp_twice(functional, x, prec):
    """exp(2 f(x)) for a functional c . x + d, summed from d."""
    constant, coeffs = functional
    return mpf_exp(mpf_mul_int(_dot(constant, coeffs, x, prec), 2, prec, _RND), prec, _RND)


def metric_gram(terms: MetricTerms, x):
    """Gram matrix, as lists of raw values, at base log-coordinates x.

    x is raw values at any precision; each is rounded to the metric's
    working precision first.  Entries no term sets are exact zeros.
    """
    prec, p, total = terms.prec, terms.p, terms.total
    x = [mpf_pos(t, prec, _RND) for t in x]
    gram = [[fzero] * total for _ in range(total)]
    for functional, indices in terms.blocks:
        scale = fone if functional is None else _exp_twice(functional, x, prec)
        for i in indices:
            gram[i][i] = scale
    base_scale = _exp_twice(terms.base, x, prec)
    for i in range(p, p + terms.n):
        gram[i][i] = base_scale
    for epsilon, functional, idx1, idx2, table in terms.cross:
        scale = mpf_mul(epsilon, _exp_twice(functional, x, prec), prec, _RND)
        for a, i in enumerate(idx1):
            for b, j in enumerate(idx2):
                value = mpf_mul(scale, table[a][b], prec, _RND)
                gram[i][j] = mpf_add(gram[i][j], value, prec, _RND)
                gram[j][i] = mpf_add(gram[j][i], value, prec, _RND)
    offset = p + terms.n
    for functional, ext in terms.extensions:
        scale = _exp_twice(functional, x, prec)
        for i, row in enumerate(ext):
            for j, g in enumerate(row):
                gram[offset + i][offset + j] = mpf_mul(scale, g, prec, _RND)
        offset += len(ext)
    return gram


def pullback_residuals(terms: MetricTerms, actions, points, prec):
    """Largest relative residual |J^T h(x + v) J - L1^2 h(x)| / max|L1^2 h(x)|
    over the points, for each action, at prec bits.

    Each action is (C^T, L1^2, v): the transpose of the block-coordinate
    linear part, the squared flat-block ratio and the base translation, as
    raw values.  J = diag(C, I), so only the fiber block of the pullback
    moves, to C^T (H_F C).  h(x) is evaluated once per point, h(x + v) once
    per point and action.
    """
    p = terms.p
    residuals = [fzero] * len(actions)
    for x in points:
        h_here = metric_gram(terms, x)
        for g, (c_t, lam1_sq, v) in enumerate(actions):
            h_there = metric_gram(
                terms, [mpf_add(xi, vi, prec, _RND) for xi, vi in zip(x, v)]
            )
            # every sum runs from zero in index order.  Column j of H_F C
            # has the entries H_F[l] . C[:, j], which leave out the exact
            # zeros of the block-scalar H_F: they add nothing to a sum
            h_rows = []
            for row in h_there[:p]:
                nonzero = [l for l in range(p) if row[l] != fzero]
                h_rows.append(([row[l] for l in nonzero], nonzero))
            hc_cols = [
                [_dot(fzero, h, [c_col[l] for l in nonzero], prec) for h, nonzero in h_rows]
                for c_col in c_t
            ]
            pulled = [
                [_dot(fzero, c_col, hc_col, prec) for hc_col in hc_cols] + h_row[p:]
                for c_col, h_row in zip(c_t, h_there)
            ]
            pulled += h_there[p:]
            target = [[mpf_mul(lam1_sq, h, prec, _RND) for h in row] for row in h_here]
            scale = None
            for row in target:
                for t in row:
                    t = mpf_abs(t, prec, _RND)
                    if scale is None or mpf_gt(t, scale):
                        scale = t
            if scale == fzero:
                scale = fone
            # rounded division by scale is monotone, so the largest
            # relative residual is the largest difference divided once
            diff = fzero
            for p_row, t_row in zip(pulled, target):
                for pij, tij in zip(p_row, t_row):
                    if pij != fzero or tij != fzero:
                        d = mpf_abs(mpf_sub(pij, tij, prec, _RND), prec, _RND)
                        if mpf_gt(d, diff):
                            diff = d
            rel = mpf_div(diff, scale, prec, _RND)
            if mpf_gt(rel, residuals[g]):
                residuals[g] = rel
    return residuals
