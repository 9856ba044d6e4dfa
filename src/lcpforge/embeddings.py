"""Certified archimedean embeddings of a number field.

Real embeddings are exact dyadic enclosures produced by Sturm isolation and
bisection/Newton refinement; complex embeddings are Weierstrass disks
certified in interval arithmetic around numeric root approximations.  All
downstream quantities (absolute values, logs, rank decisions) are computed
as enclosures, so a reported digit is a proven digit up to the stated
tolerance.

Precision protocol: a request at B bits works internally at B + 32 guard
bits and decisions use the tolerance 2**(-B/2).  Quantities that fail to
certify raise NeedsEscalation.  A rank k is proven at B bits alone: at
least k by one certified interval minor, at most k by exact unit relations
checked in field arithmetic; when either proof fails, PrecisionError.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Tuple

from mpmath import iv, mp
from mpmath.libmp import to_rational

from .errors import InputError, NeedsEscalation, PrecisionError
from .numberfield import FieldElem, NumberField, require_unit
from .polynomials import (
    IntPoly,
    isolate_real_roots,
    refine_root,
    sturm_chain,
)

DEFAULT_PRECISION = 128
MIN_PRECISION = 64
MAX_PRECISION = 4096
GUARD_BITS = 32

_ENV_VAR = "LCPFORGE_PRECISION"


def default_precision() -> int:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_PRECISION
    try:
        bits = int(raw)
    except ValueError:
        raise InputError("%s must be an integer, got %r" % (_ENV_VAR, raw)) from None
    return validate_precision(bits)


def validate_precision(bits: int) -> int:
    if not isinstance(bits, int) or not (MIN_PRECISION <= bits <= MAX_PRECISION):
        raise InputError(
            "precision must be an integer in [%d, %d], got %r"
            % (MIN_PRECISION, MAX_PRECISION, bits)
        )
    return bits


@contextmanager
def _at_prec(workbits: int):
    old_mp, old_iv = mp.prec, iv.prec
    mp.prec = workbits
    iv.prec = workbits
    try:
        yield
    finally:
        mp.prec = old_mp
        iv.prec = old_iv


def tolerance(bits: int):
    return mp.mpf(2) ** (-(bits // 2))


def full_pivot_eliminate(a, cutoff):
    """Full-pivot forward elimination of a rectangular matrix, in place.

    Each step pivots on the first largest remaining entry above cutoff and
    clears the rows below it.  Returns (rank, row_perm, col_perm): in the
    permuted order the leading rank x rank block is upper triangular and
    everything below it is at most cutoff.  Entries may be mpf or mpc.
    """
    nrows, ncols = len(a), len(a[0]) if a else 0
    row_perm = list(range(nrows))
    col_perm = list(range(ncols))
    for step in range(min(nrows, ncols)):
        best = None
        best_val = cutoff
        for i in range(step, nrows):
            row = a[row_perm[i]]
            for j in range(step, ncols):
                v = abs(row[col_perm[j]])
                if v > best_val:
                    best_val = v
                    best = (i, j)
        if best is None:
            return step, row_perm, col_perm
        bi, bj = best
        row_perm[step], row_perm[bi] = row_perm[bi], row_perm[step]
        col_perm[step], col_perm[bj] = col_perm[bj], col_perm[step]
        pivot_row = a[row_perm[step]]
        pivot = pivot_row[col_perm[step]]
        for i in range(step + 1, nrows):
            row = a[row_perm[i]]
            factor = row[col_perm[step]] / pivot
            for j in range(step, ncols):
                row[col_perm[j]] -= factor * pivot_row[col_perm[j]]
    return min(nrows, ncols), row_perm, col_perm


def _iv_identity(n):
    return [[iv.mpf(1 if i == j else 0) for j in range(n)] for i in range(n)]


def _iv_inverse(rows):
    """Interval Gauss-Jordan inverse; pivots must exclude zero."""
    n = len(rows)
    a = [list(r) for r in rows]
    inv = _iv_identity(n)
    for col in range(n):
        pivot_row = max(
            range(col, n), key=lambda r: abs(mp.mpf(a[r][col].mid))
        )
        piv = a[pivot_row][col]
        if mp.mpf(abs(piv).a) <= 0:
            raise NeedsEscalation("interval pivot touches zero during inversion")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        piv = a[col][col]
        for j in range(n):
            a[col][j] = a[col][j] / piv
            inv[col][j] = inv[col][j] / piv
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col]
            for j in range(n):
                a[r][j] = a[r][j] - factor * a[col][j]
                inv[r][j] = inv[r][j] - factor * inv[col][j]
    return inv


# ----------------------------------------------------------------------
# interval helpers; complex enclosures are (real interval, imag interval)


def _iv_from_rational(q):
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def _iv_from_dyadic_pair(lo, hi):
    a = _iv_from_rational(lo)
    b = _iv_from_rational(hi)
    return iv.mpf([a.a, b.b])


def _box(re_part, im_part):
    return (re_part, im_part)


def _box_from_disk(center, radius):
    spread = iv.mpf([-radius, radius])
    return (iv.mpf(center.real) + spread, iv.mpf(center.imag) + spread)


def _box_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _box_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _box_abs(x):
    return iv.sqrt(x[0] ** 2 + x[1] ** 2)


def _box_horner(coeffs: Sequence, z):
    """Evaluate a polynomial with rational coefficients on a complex box."""
    zero = iv.mpf(0)
    acc = _box(zero, zero)
    for c in reversed(coeffs):
        acc = _box_mul(acc, z)
        acc = _box_add(acc, _box(_iv_from_rational(c), zero))
    return acc


def _iv_horner(coeffs: Sequence, x):
    acc = iv.mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + _iv_from_rational(c)
    return acc


# ----------------------------------------------------------------------
# embedding sets


class EmbeddingSet:
    """All archimedean embeddings of a field at a fixed precision.

    Embeddings are indexed 0..s+t-1: first the real ones in ascending root
    order, then one representative per conjugate pair of complex ones,
    ordered by (real part, imaginary part) of the upper-half root.
    """

    __slots__ = ("field", "bits", "workbits", "real_roots", "complex_disks",
                 "_enclosures")

    def __init__(self, field, bits, workbits, real_roots, complex_disks):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "workbits", workbits)
        object.__setattr__(self, "real_roots", tuple(real_roots))
        object.__setattr__(self, "complex_disks", tuple(complex_disks))
        # embed_enclosure's values per (element, index): the set is shared
        # through _embeddings_cached, so every check reads one enclosure
        object.__setattr__(self, "_enclosures", {})

    def __setattr__(self, name, value):
        raise AttributeError("EmbeddingSet is immutable")

    @property
    def count(self) -> int:
        return len(self.real_roots) + len(self.complex_disks)

    def is_real(self, index: int) -> bool:
        self._check_index(index)
        return index < len(self.real_roots)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.count:
            raise InputError(
                "embedding index %d out of range [0, %d)" % (index, self.count)
            )

    def embed_enclosure(self, elem: FieldElem, index: int):
        """Interval (real) or box (complex) containing the image of elem;
        computed once per (element, index)."""
        key = elem, index
        enc = self._enclosures.get(key)
        if enc is not None:
            return enc
        if elem.field != self.field:
            raise InputError("element lives in a different field")
        self._check_index(index)
        with _at_prec(self.workbits):
            if index < len(self.real_roots):
                lo, hi = self.real_roots[index]
                enc = _iv_horner(elem.coords, _iv_from_dyadic_pair(lo, hi))
            else:
                center, radius = self.complex_disks[index - len(self.real_roots)]
                enc = _box_horner(elem.coords, _box_from_disk(center, radius))
        self._enclosures[key] = enc
        return enc

    def abs_enclosure(self, elem: FieldElem, index: int):
        enc = self.embed_enclosure(elem, index)
        with _at_prec(self.workbits):
            if self.is_real(index):
                return abs(enc)
            return _box_abs(enc)

    def log_abs_enclosure(self, elem: FieldElem, index: int):
        a = self.abs_enclosure(elem, index)
        with _at_prec(self.workbits):
            if mp.mpf(a.a) <= 0:
                raise NeedsEscalation(
                    "absolute value enclosure touches zero at embedding %d" % index
                )
            return iv.log(a)


def embeddings(field: NumberField, bits: int) -> EmbeddingSet:
    """Certified embedding data for a field at the requested precision.

    Internal escalations may exceed the user-facing precision cap, so only
    the lower bound is enforced here; entry points validate the full range.
    """
    if bits < MIN_PRECISION:
        raise InputError("precision must be at least %d bits" % MIN_PRECISION)
    return _embeddings_cached(field, bits)


@lru_cache(maxsize=64)
def _embeddings_cached(field: NumberField, bits: int) -> EmbeddingSet:
    real_roots, complex_disks, workbits = certified_poly_roots(field.minpoly, bits)
    return EmbeddingSet(field, bits, workbits, real_roots, complex_disks)


@lru_cache(maxsize=64)
def certified_poly_roots(poly: IntPoly, bits: int):
    """Certified roots of a squarefree integer polynomial.

    Returns (real root enclosures as ascending dyadic pairs, upper-half
    complex Weierstrass disks, working precision), the pairs and disks as
    tuples.  Escalates the working precision up to two times before giving
    up.  Cached per (polynomial, bits): the block decomposition and the
    embeddings of a field whose minimal polynomial is the splitter's
    characteristic polynomial share one certification.
    """
    if poly.degree < 1:
        raise InputError("root isolation needs a nonconstant polynomial")
    if not sturm_chain(poly).squarefree:
        raise InputError("root isolation needs a squarefree polynomial")
    # one isolation serves every attempt: s is its number of intervals
    intervals = isolate_real_roots(poly)
    s = len(intervals)
    t = (poly.degree - s) // 2
    last_error = None
    for attempt_bits in (bits, 2 * bits, 4 * bits):
        workbits = attempt_bits + GUARD_BITS
        try:
            with _at_prec(workbits):
                real_roots = _refined_real_roots(poly, intervals, workbits)
                complex_disks = _certified_complex_disks(poly, s, t, workbits) if t else []
            return tuple(real_roots), tuple(complex_disks), workbits
        except NeedsEscalation as exc:
            last_error = exc
    raise PrecisionError(
        "root certification failed up to %d bits: %s" % (attempt_bits, last_error)
    )


def _refined_real_roots(poly, intervals, workbits):
    return [refine_root(poly, a, b, bits=workbits) for a, b in intervals]


def _certified_complex_disks(p, s, t, workbits):
    """Upper-half-plane Weierstrass disks for the non-real roots."""
    d = p.degree
    coeffs_desc = [mp.mpf(int(c)) for c in reversed(p.coeffs)]
    try:
        approx = mp.polyroots(coeffs_desc, maxsteps=120, extraprec=workbits)
    except Exception as exc:  # noqa: BLE001  polyroots convergence failure
        raise NeedsEscalation("root finding did not converge: %s" % exc) from None
    # Weierstrass-style radius around each approximation
    disks = []
    for k, z in enumerate(approx):
        zbox = _box(iv.mpf(z.real), iv.mpf(z.imag))
        num = _box_abs(_box_horner(p.coeffs, zbox))
        den = iv.mpf(1)
        for j, w in enumerate(approx):
            if j == k:
                continue
            diff = _box(iv.mpf(z.real) - iv.mpf(w.real), iv.mpf(z.imag) - iv.mpf(w.imag))
            den = den * _box_abs(diff)
        if mp.mpf(den.a) <= 0:
            raise NeedsEscalation("root approximations collide")
        radius = mp.mpf((iv.mpf(d) * num / den).b)
        disks.append((mp.mpc(z), radius))
    # split into real-line disks and strictly complex ones
    complex_disks = []
    n_real = 0
    for center, radius in disks:
        if abs(center.imag) > radius:
            if center.imag > 0:
                complex_disks.append((center, radius))
        else:
            n_real += 1
    if n_real != s or len(complex_disks) != t:
        raise NeedsEscalation(
            "embedding counts did not certify (%d real, %d complex vs signature %r)"
            % (n_real, len(complex_disks), (s, t))
        )
    # pairwise disjointness of all disks certifies one root per disk
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            ci, ri = disks[i]
            cj, rj = disks[j]
            sep = _box_abs(
                _box(
                    iv.mpf(ci.real) - iv.mpf(cj.real),
                    iv.mpf(ci.imag) - iv.mpf(cj.imag),
                )
            )
            if mp.mpf(sep.a) <= mp.mpf((iv.mpf(ri) + iv.mpf(rj)).b):
                raise NeedsEscalation("Weierstrass disks overlap")
    complex_disks.sort(key=lambda cr: (cr[0].real, cr[0].imag))
    return complex_disks


# ----------------------------------------------------------------------
# logarithmic embedding and multiplicative rank


def log_vector(emb: EmbeddingSet, elem: FieldElem) -> Tuple:
    """Logarithmic embedding (ln|s_1|, ..., ln|s_s|, 2 ln|s_{s+1}|, ...).

    Complex places carry weight 2 so that the entries of a unit sum to
    zero.  Midpoints of certified enclosures; raises NeedsEscalation when
    an enclosure is too wide to support decisions at the set's tolerance.
    """
    require_unit(elem, "logarithmic embedding")
    width_cap = tolerance(emb.bits) / 256
    with _at_prec(emb.workbits):
        row = _log_rows(emb, [elem], None)[0]
        for index, enc in enumerate(row):
            if mp.mpf(enc.delta) > width_cap:
                raise NeedsEscalation(
                    "log enclosure too wide at log coordinate %d" % index
                )
        return tuple(mp.mpf(enc.mid) for enc in row)


def _log_rows(emb: EmbeddingSet, units, coords):
    """Enclosures of the log vectors of units, one row per unit.

    Complex places carry weight 2, as in log_vector; coords, when given,
    keeps only those places.  Call at emb.workbits.
    """
    s = emb.field.signature[0]
    places = range(emb.count) if coords is None else coords
    return [
        [emb.log_abs_enclosure(u, i) * (1 if i < s else 2) for i in places]
        for u in units
    ]


def multiplicative_rank(field: NumberField, units: Sequence[FieldElem], bits: int) -> int:
    """Rank of the subgroup generated by the given units.

    Unit-ness is checked exactly first.  The rank is then proven at the
    requested precision: at least k by one certified k x k minor of the
    logarithmic embedding, at most k by an exact relation for every other
    unit; PrecisionError when either proof fails.
    """
    validate_precision(bits)
    return _stable_rank(field, tuple(units), bits, None)


def projected_log_rank(
    field: NumberField,
    units: Sequence[FieldElem],
    coords: Sequence[int],
    bits: int,
) -> int:
    """Rank of the logarithmic embeddings restricted to selected places.

    Same unit check and proof as multiplicative_rank; coords index into the
    log vector (real places first, then complex ones).  A rank below both
    the unit count and the place count is proven only by exact relations
    among the units, so a projection that loses the rank of independent
    units raises PrecisionError.
    """
    validate_precision(bits)
    coords = tuple(coords)
    s, t = field.signature
    for i in coords:
        if not 0 <= i < s + t:
            raise InputError("log coordinate %d out of range [0, %d)" % (i, s + t))
    if not coords:
        return 0
    return _stable_rank(field, tuple(units), bits, coords)


@lru_cache(maxsize=64)
def _stable_rank(field, units, bits, coords):
    """Log-embedding rank of units, each checked exactly first, proven at
    bits in both directions by one certified inverse.

    full_pivot_eliminate on the midpoints of the log enclosures picks k
    pivot units and k places, and _iv_inverse inverts that k x k minor M on
    the enclosures themselves: the rank is at least k.  It is at most the
    unit and the place count; below both, the same inverse gives every
    other unit u_j, log row r on the pivot places, its coefficients r M^-1
    over the pivots and an exact relation u_j^a = w * prod p_i^b_i over the
    pivots p_i, with w a root of unity and a > 0: the rank is at most k.
    Either proof failing raises PrecisionError.  coords, when given,
    restricts the log vectors to those places.  Cached per (field, units,
    bits, coords), all hashable and immutable, so a pipeline that checks
    its units' rank and later seals the rank of the same units decides it
    once.
    """
    for u in units:
        require_unit(u, "rank input")
    if not units:
        return 0
    emb = embeddings(field, bits)
    with _at_prec(emb.workbits):
        try:
            logs = _log_rows(emb, units, coords)
            mids = [[mp.mpf(x.mid) for x in row] for row in logs]
            k, rows, cols = full_pivot_eliminate(
                [list(row) for row in mids], tolerance(bits)
            )
            inverse = _iv_inverse([[logs[i][j] for j in cols[:k]] for i in rows[:k]])
        except NeedsEscalation as exc:
            raise PrecisionError(
                "log-embedding rank not certified at %d bits: %s" % (bits, exc)
            ) from None
        pivots, places = rows[:k], cols[:k]
        inverse = [[mp.mpf(x.mid) for x in row] for row in inverse]
        for j in rows[k:] if k < len(cols) else ():
            # the certified minor makes the coefficients of log u_j over the
            # pivot logs unique: read them off the inverse's midpoints and
            # take the nearest fractions of denominator at most 2^16.  Two
            # such fractions lie at least 2^-32 apart, the tolerance at the
            # lowest precision; the exact check alone proves the relation,
            # and a wrong candidate's powers take some 17 squarings each
            r = [mids[j][c] for c in places]
            coeffs = [
                Fraction(*to_rational(mp.fdot(r, col)._mpf_)).limit_denominator(2 ** 16)
                for col in zip(*inverse)
            ]
            a = math.lcm(1, *(q.denominator for q in coeffs))
            w = units[j] ** a
            for i, q in zip(pivots, coeffs):
                w = w * units[i] ** -int(q * a)
            if not _is_torsion(w):
                raise PrecisionError(
                    "rank deficiency not proven: unit %d has no exact "
                    "relation over the %d pivot units" % (j, k)
                )
    return k


def _is_torsion(w: FieldElem) -> bool:
    """Whether w is a root of unity.

    A field with a real place has only +-1.  Otherwise a root of unity of
    order N has phi(N) <= degree and phi(N) >= sqrt(N/2), so its order is
    at most 2 * degree^2.
    """
    if w == 1 or w == -1:
        return True
    if w.field.signature[0]:
        return False
    power = w
    for _ in range(2 * w.field.degree ** 2):
        power = power * w
        if power == 1:
            return True
    return False


def verify_ratio_witness(
    emb: EmbeddingSet,
    elem: FieldElem,
    index: int,
    ratio,
) -> bool:
    """Check that ratio equals |embedding(elem)|.

    The element must be an exact algebraic unit; the numeric comparison is
    certified against the enclosure widened by the tolerance.
    """
    require_unit(elem, "ratio witness")
    with _at_prec(emb.workbits):
        tol = tolerance(emb.bits)
        enc = emb.abs_enclosure(elem, index)
        lo = mp.mpf(enc.a) - tol
        hi = mp.mpf(enc.b) + tol
        return lo <= mp.mpf(ratio) <= hi
