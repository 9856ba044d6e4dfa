"""schema1.pullback_residuals against a frozen copy of the dense loop it
replaced, on drawn metrics and actions.

The kernel forms exactly only the pullback entries that can reach the
largest residual: it skips an entry with a zero target whose float
estimate, plus the bound of README's lemma 1, stays below the running
threshold, and takes a dot that one product decides to be that product
(lemma 2).  Neither may change a sealed bit, so every case here compares
the residuals with _reference_pullback, the loop that formed every entry
of C^T (H_F C) with _dot, value for value.  The cases reach the filter's
edges: blocks of sizes 1 and 2, with and without a cross term, off-block
entries down to 2**-4200 (far below the range of a float), metric values
far apart, entries planted within 2**-50 of the running threshold, and a
dot whose small term is between a quarter and one ulp of its large one.
"""

import collections

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp

import lcpforge.schema1 as schema1_module
from lcpforge.constructions import make_rank_n_lcp
from lcpforge.embeddings import _at_prec
from lcpforge.schema1 import (
    _ONE,
    _ZERO,
    MetricTerms,
    _abs_gt,
    _add,
    _coupled,
    _div,
    _dot,
    _exp_error_units,
    _exp_near,
    _exps_here,
    _increment,
    _mul,
    metric_gram,
    pullback_residuals,
    to_dyadic,
)

PRECS = [160, 96, 1056, 2080, 4128]


def _reference_pullback(terms, actions, points, trace=None):
    """The pullback loop before the filter, kept as the oracle: every
    entry of C^T (H_F C) is a _dot, every column of H_F C is formed.  If
    trace is a list, (largest difference, scale) of each point and action
    is appended to it."""
    p, base = terms.p, range(terms.p, terms.total)
    rows = [sorted(s + [l]) if s else None for l, s in enumerate(_coupled(terms.cross, p))]
    residuals = [_ZERO] * len(actions)
    prec = terms.prec
    units = _exp_error_units(prec + 14)
    increments = [[_increment(f, v, prec, units) for f in terms.functionals]
                  for _, _, v in actions]
    for x in points:
        fixed = []
        h_here = metric_gram(terms, x, lambda twice: _exps_here(twice, prec, units, fixed))
        here = [h for row in h_here[:p] for h in row[:p]] + [h_here[i][i] for i in base]
        for g, (c_t, lam1_sq, v) in enumerate(actions):
            x_v = [_add(xi, vi, prec) for xi, vi in zip(x, v)]
            h_there = metric_gram(terms, x_v, lambda twice: [
                _exp_near(y, h, d, prec) for y, h, d in zip(twice, fixed, increments[g])
            ])
            fiber = [
                (h_row[l], None) if cols is None else ([h_row[k] for k in cols], cols)
                for l, (h_row, cols) in enumerate(zip(h_there, rows))
            ]
            hc_cols = [
                [_mul(h, c, prec) if cols is None
                 else _dot(_ZERO, h, [c_col[k] for k in cols], prec)
                 for (h, cols), c in zip(fiber, c_col)]
                for c_col in c_t
            ]
            pulled = [_dot(_ZERO, c_col, hc_col, prec) for c_col in c_t for hc_col in hc_cols]
            pulled += [h_there[i][i] for i in base]
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
            if trace is not None:
                trace.append((diff, scale))
            rel = _div((abs(diff[0]), diff[1]), (abs(scale[0]), scale[1]), prec)
            if _abs_gt(rel, residuals[g]):
                residuals[g] = rel
    return residuals


def _raw(values):
    return [from_man_exp(*v) for v in values]


def _terms(prec, sizes, flat, coeffs, base, cross=()):
    """MetricTerms for fiber blocks of the given sizes, the flat one
    carrying the identity, block k's functional coeffs[k], the base
    conformal factor's base and cross terms (epsilon, functional, k, k2),
    all as pairs of at most prec bits."""
    terms = object.__new__(MetricTerms)
    terms.prec, terms.p, terms.n = prec, sum(sizes), len(base)
    terms.total = terms.p + terms.n
    terms.functionals, terms.diagonal, blocks, start = [], [], [], 0
    for k, size in enumerate(sizes):
        blocks.append(list(range(start, start + size)))
        start += size
        slot = None
        if k != flat:
            slot = len(terms.functionals)
            terms.functionals.append(coeffs[k])
        terms.diagonal.append((slot, range(blocks[k][0], start)))
    terms.diagonal.append((len(terms.functionals), range(terms.p, terms.total)))
    terms.functionals.append(base)
    terms.cross = [(eps, f, blocks[k], blocks[k2]) for eps, f, k, k2 in cross]
    terms.functionals += [f for _, f, _, _ in terms.cross]
    return terms


def _pair(draw, prec, top):
    """A nonzero pair of prec bits with |value| in [2**(top - 1), 2**top)."""
    m = (1 << (prec - 1)) | draw(st.integers(0, (1 << (prec - 1)) - 1))
    return draw(st.sampled_from([1, -1])) * m, top - prec


def _dyadic(x, prec):
    with _at_prec(prec):
        return to_dyadic(x)


def _equivariant_block(size, scale, angle, sign, prec):
    """scale * R, for R = (sign) in size 1 and the rotation by angle in size
    2, as a size x size list of rows of pairs at prec bits: C_k with
    C_k^T C_k = scale^2 I up to rounding."""
    with _at_prec(prec + 32):
        if size == 1:
            rows = [[sign * scale]]
        else:
            c, s = mp.cos(angle), mp.sin(angle)
            rows = [[scale * c, -scale * s], [scale * s, scale * c]]
    return [[_dyadic(e, prec) for e in row] for row in rows]


@st.composite
def _filter_cases(draw, precs=PRECS, sizes=st.sampled_from([1, 2]), cross=st.booleans()):
    """A metric, one or two actions and up to three points.

    Each action's C is block-diagonal with blocks L1 exp(-c_k . v) R_k, and
    L1 = exp(c_base . v), so the diagonal targets nearly hold and the
    largest difference is a few ulps; then some off-block entries are set:
    a few ulps too, far below the working scale (down to 2**-4200), or
    large."""
    prec = draw(st.sampled_from(precs))
    n = draw(st.integers(1, 2))
    blocks = []
    while not blocks or (sum(blocks) < 8 and draw(st.booleans())):
        size = draw(sizes)
        if sum(blocks) + size <= 8:
            blocks.append(size)
        elif not blocks:
            blocks.append(1)
    delta = len(blocks)
    flat = draw(st.integers(0, delta - 1))
    # a coefficient near 2**8 puts the blocks' metric values up to 2**5900
    # apart, so the estimate leaves the small ones out
    coeffs = [[_pair(draw, prec, draw(st.integers(-2, 1) | st.just(8))) for _ in range(n)]
              for _ in range(delta)]
    base = [_pair(draw, prec, draw(st.integers(-2, 1))) for _ in range(n)]
    terms_cross = []
    if delta > 1 and draw(cross):
        k, k2 = sorted(draw(st.lists(st.integers(0, delta - 1), min_size=2, max_size=2,
                                     unique=True)))
        eps = _pair(draw, prec, draw(st.integers(-3, 0)))
        # half the two blocks' functionals, as a consistent coupling has
        with _at_prec(prec):
            f = [to_dyadic((_mpf(a) + _mpf(b)) / 2)
                 for a, b in zip(coeffs[k] if k != flat else [_ZERO] * n,
                                 coeffs[k2] if k2 != flat else [_ZERO] * n)]
        terms_cross.append((eps, f, k, k2))
    terms = _terms(prec, blocks, flat, coeffs, base, terms_cross)
    starts = [sum(blocks[:k]) for k in range(delta)]
    block_of = [k for k, size in enumerate(blocks) for _ in range(size)]
    p = terms.p

    points = [[_pair(draw, prec, draw(st.integers(-1, 1))) for _ in range(n)]
              for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        # the first point again, or moved by a little: there the residual
        # so far times the scale is the running threshold, and the entries
        # come near it
        moved = [_add(t, _pair(draw, prec, draw(st.integers(-60, -8))), prec)
                 for t in points[0]]
        points.append(draw(st.sampled_from([points[0], moved])))
    actions = []
    for _ in range(draw(st.integers(1, 2))):
        v = [_pair(draw, prec, draw(st.integers(-2, 1))) for _ in range(n)]
        c = [[_ZERO] * p for _ in range(p)]
        with _at_prec(prec + 32):
            v_mp = [_mpf(t) for t in v]
            # L1 = exp(c_base . v), so the base diagonal's targets nearly
            # hold too
            lam1_mp = mp.exp(mp.fsum(_mpf(b) * t for b, t in zip(base, v_mp)))
            lam1 = _dyadic(lam1_mp, prec)
            for k, size in enumerate(blocks):
                drift = 0 if k == flat else mp.fsum(
                    _mpf(ci) * vi for ci, vi in zip(coeffs[k], v_mp))
                block = _equivariant_block(
                    size, lam1_mp * mp.exp(-drift), draw(st.floats(0, 6.28)),
                    draw(st.sampled_from([1, -1])), prec)
                for a in range(size):
                    for b in range(size):
                        c[starts[k] + a][starts[k] + b] = block[a][b]
        for _ in range(draw(st.integers(0, 2 * p))):
            i, j = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
            if block_of[i] == block_of[j]:
                continue
            kind = draw(st.sampled_from(["ulps", "ulps", "root", "far", "large", "zero"]))
            if kind == "ulps":
                top = draw(st.integers(-prec - 12, -prec + 12))
            elif kind == "root":
                # its square, in a diagonal dot, is near an ulp of the dot
                top = draw(st.integers(-prec // 2 - 4, -prec // 2 + 4))
            elif kind == "far":
                top = draw(st.integers(-4250, -4100))
            else:
                top = draw(st.integers(-40, -8))
            c[i][j] = _ZERO if kind == "zero" else _pair(draw, prec, top)
        c_t = [[c[l][i] for l in range(p)] for i in range(p)]
        actions.append((c_t, _mul(lam1, lam1, prec), v))
    return terms, actions, points


def _mpf(value):
    return mp.mpf(from_man_exp(*value))


@settings(max_examples=150)
@given(_filter_cases())
def test_filtered_pullback_matches_the_dense_loop(case):
    terms, actions, points = case
    assert _raw(pullback_residuals(terms, actions, points)) == _raw(
        _reference_pullback(terms, actions, points))


@settings(max_examples=40)
@given(_filter_cases(precs=[4128], sizes=st.just(1), cross=st.just(False)))
def test_filtered_pullback_matches_below_the_float_range(case):
    # at 4128 bits an entry's products of two off-block factors are far
    # below 2**-1022 of its largest, so its estimate leaves them out and
    # bounds them instead
    terms, actions, points = case
    assert _raw(pullback_residuals(terms, actions, points)) == _raw(
        _reference_pullback(terms, actions, points))


@st.composite
def _planted_cases(draw):
    """One point, one action of 1-blocks whose diagonal targets nearly
    hold, and off-block entries placed so that one zero-target entry is
    within 2**-50 (relative) of the largest difference of the others.

    With only C_rs off the diagonal, entry (r, s) of the pullback is
    C_rr (H_rr C_rs), both rounded.  cancel adds C_sr so that the entry is
    X + (T - X) with X = 2**20 T: a float estimate of it is off by far
    more than 2**-50 T, and only lemma 1's margin keeps it from being
    skipped."""
    prec = draw(st.sampled_from([96, 160, 1056]))
    terms, actions, points = draw(_filter_cases(
        precs=[prec], sizes=st.just(1), cross=st.just(False)).filter(
            lambda case: case[0].p >= 2))
    points = points[:1]
    c_t, lam1_sq, v = actions[0]
    p = terms.p
    c = [[_ZERO if i != l else c_t[i][l] for i in range(p)] for l in range(p)]
    plain = lambda: [[c[l][i] for l in range(p)] for i in range(p)]
    trace = []
    _reference_pullback(terms, [(plain(), lam1_sq, v)], points, trace)
    (diff, _), = trace
    assume(diff[0])
    r, s = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
    k = draw(st.integers(-4, 4))
    x_v = [_add(xi, vi, terms.prec) for xi, vi in zip(points[0], v)]
    h = metric_gram(terms, x_v)
    with _at_prec(4 * prec):
        want = abs(_mpf(diff)) * (1 + mp.mpf(k) * 2 ** -52)
        h_r, h_s = _mpf(h[r][r]), _mpf(h[s][s])
        c_rr, c_ss = _mpf(c[r][r]), _mpf(c[s][s])
        if draw(st.booleans()):
            big = want * 2 ** 20 * draw(st.sampled_from([1, -1]))
            c[r][s] = _dyadic(big / (c_rr * h_r), terms.prec)
            c[s][r] = _dyadic((want - big) / (h_s * c_ss), terms.prec)
        else:
            c[r][s] = _dyadic(want / (c_rr * h_r), terms.prec)
    return terms, [(plain(), lam1_sq, v)], points


@settings(max_examples=150)
@given(_planted_cases())
def test_entries_planted_at_the_running_threshold(case):
    terms, actions, points = case
    assert _raw(pullback_residuals(terms, actions, points)) == _raw(
        _reference_pullback(terms, actions, points))


def test_absorption_stops_at_a_quarter_ulp():
    # C = [[1, 0, 0], [0, 1, 0], [0, c, 1]] on three 1-blocks (the first
    # flat), at v = 0 and L1^2 = 1 + 2**-30, so the largest difference is
    # at (1, 1), whose dot is H_11 + c (H_22 c).  H_11 = 1.9 and H_22 = 1.5
    # share the largest top, so the small term's bound 2**(2 top c + 1) is
    # one ulp of H_11 and the term itself 0.68 of one: the sum rounds up to
    # H_11 + ulp, which a rule admitting terms up to one ulp would take to
    # be H_11
    prec = 160
    with _at_prec(prec):
        half_log = lambda t: to_dyadic(mp.log(t) / 2)
        terms = _terms(prec, [1, 1, 1], 0, [None, [half_log(1.9)], [half_log(1.5)]], [_ZERO])
        c = to_dyadic(mp.mpf(0.95) * mp.mpf(2) ** -80)
    x = [_ONE]
    h = metric_gram(terms, x)
    assert schema1_module._top(h[1][1]) == schema1_module._top(h[2][2]) == 1
    c_t = [[_ONE, _ZERO, _ZERO], [_ZERO, _ONE, c], [_ZERO, _ZERO, _ONE]]
    column = [_ZERO, h[1][1], _mul(h[2][2], c, prec)]
    assert _abs_gt(_dot(_ZERO, c_t[1], column, prec), h[1][1])
    actions = [(c_t, ((1 << 30) + 1, -30), [_ZERO])]
    want = _reference_pullback(terms, actions, [x])
    assert _raw(pullback_residuals(terms, actions, [x])) == _raw(want)


def test_sampled_check_forms_a_fifth_of_the_dots(monkeypatch):
    # ranklcp --n 8 at 128 bits: 100 points and 8 generators on 9 fiber
    # coordinates.  Forming every entry of C^T (H_F C), the sampled check
    # made 73700 _dot calls (64800 of them for the pullback's entries, the
    # rest for the functionals' values); a fifth of that is the bound
    parent_calls = 73700
    calls = collections.Counter()
    original_dot, original_check = schema1_module._dot, schema1_module.sampled_residuals
    inside = []

    def counting_dot(*args):
        calls[bool(inside)] += 1
        return original_dot(*args)

    def sampled(*args):
        inside.append(True)
        try:
            return original_check(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(schema1_module, "_dot", counting_dot)
    monkeypatch.setattr(schema1_module, "sampled_residuals", sampled)
    assert make_rank_n_lcp(8, 128, seed=0).verdict == "PASS"
    assert 0 < calls[True] <= parent_calls // 5
