"""Block decompositions, similarity checks, and equivariant metrics.

The objects here certify the two defining properties of a locally
conformally product structure: the ambient lattice automorphisms split
into an orthogonal sum of one- and two-dimensional blocks on which every
generator acts by a similarity (ratio times orthogonal), and the ratio on
the designated flat block is not identically one.  On top of a certified
decomposition the module assembles translation-equivariant metrics whose
conformal behaviour under the group is checked numerically on seeded
sample points by verify_equivariance(spec, seed), which reads each
generator (lattice map, base translation, ratio row) off the metric it
checks.  All arithmetic on metric values (the metric, its points, the
cross-term scale search and the sampled check) runs in rawmetric on
Python-int dyadics, rounded like the mpf operators, bit for bit.

All numeric work runs at the requested precision plus guard bits.  The
similarity verdict is exact: every generator commutes with a splitter of
squarefree characteristic polynomial.  The non-isometry of the flat block
is decided exactly from the witness behind each flat-block ratio: the
ratio of generator j on block k is |sigma_i(u)| for the witness
(u, i) = (units[j], places[k]) that RatioMatrix carries.
The remaining numeric decisions are taken against the tolerance
2**(-bits/2).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Sequence, Tuple

from mpmath import iv, mp

from .errors import (
    CheckFailureError,
    InputError,
    NeedsEscalation,
    PrecisionError,
    StructureError,
)
from .intlinalg import IntMatrix, char_poly, commute, is_gl_z
from .polynomials import IntPoly, sturm_chain
from . import rawmetric
from .rawmetric import _mpf_from_rational, _to_mpf
from .embeddings import (
    GUARD_BITS,
    _at_prec,
    _iv_inverse,
    certified_poly_roots,
    embeddings,
    full_pivot_eliminate,
    multiplicative_rank,
    tolerance,
    validate_precision,
)

_SPLITTER_TRIALS = 40
_SPLITTER_SEED = 0x5EED
_CROSS_BISECT_STEPS = 20
_CROSS_GRID = 10
# sample points of the equivariance check
SAMPLES = 100


# ----------------------------------------------------------------------
# small interval linear algebra helpers
#
# Matrices are tuples of row tuples.  Entries entering iv.mpf are exact
# mpf values produced at working precision, so the conversions below do
# not widen anything.


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


def _freeze(rows):
    return tuple(tuple(row) for row in rows)


# ----------------------------------------------------------------------
# block decompositions


class BlockDecomposition:
    """Certified splitting of Z^p into one- and two-dimensional blocks.

    The basis columns are numeric eigenvectors of a splitter matrix with
    squarefree characteristic polynomial; blocks come from real
    eigenvalues in descending order followed by complex-conjugate pairs.
    inverse is the interval Gauss-Jordan inverse of the basis, computed once
    at workbits; its existence certifies that the basis is invertible.
    splitter is a member or integer combination of family, and every
    member of family commutes with it.
    """

    __slots__ = ("p", "delta", "blocks", "basis", "inverse", "precision_bits",
                 "workbits", "splitter", "family", "_conjugates")

    def __init__(self, p, delta, blocks, basis, inverse, precision_bits, workbits,
                 splitter, family):
        self.p = p
        self.delta = delta
        self.blocks = tuple((int(a), int(b)) for a, b in blocks)
        self.basis = _freeze(basis)
        self.inverse = _freeze(inverse)
        self.precision_bits = precision_bits
        self.workbits = workbits
        self.splitter = splitter
        self.family = tuple(family)
        # restricted_blocks' frozen products per matrix
        self._conjugates = {}

    def block_indices(self, k: int) -> range:
        start, size = self.blocks[k]
        return range(start, start + size)

    def __repr__(self):
        return "BlockDecomposition(p=%d, delta=%d, blocks=%r, bits=%d)" % (
            self.p,
            self.delta,
            self.blocks,
            self.precision_bits,
        )


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


def _pick_splitter(gens: Sequence[IntMatrix]) -> Tuple[IntMatrix, IntPoly]:
    """A commuting-family member with squarefree characteristic polynomial,
    returned with that polynomial.

    Distinct eigenvalues on one member force every commuting member to
    preserve its eigenlines, so a single such splitter diagonalizes the
    whole family.  Falls back to seeded integer combinations.
    """

    def candidates():
        yield from gens
        rng = random.Random(_SPLITTER_SEED)
        for _ in range(_SPLITTER_TRIALS):
            coeffs = [rng.randrange(-3, 4) for _ in gens]
            if any(coeffs):
                yield sum((g * c for c, g in zip(coeffs, gens)), gens[0] * 0)

    for m in candidates():
        chi = char_poly(m)
        if sturm_chain(chi).squarefree:
            return m, chi
    raise StructureError(
        "no generator or seeded combination has distinct eigenvalues; the "
        "family does not certify a one/two-dimensional block decomposition"
    )


def find_block_decomposition(gens: Sequence[IntMatrix], precision: int) -> BlockDecomposition:
    """Common eigenblock structure of a commuting family of lattice maps.

    Real eigenvalues of the splitter give one-dimensional blocks in
    descending eigenvalue order; complex pairs give two-dimensional blocks
    ordered by real then imaginary part of the upper representative.
    """
    precision = validate_precision(precision)
    gens = list(gens)
    if not gens:
        raise InputError("need at least one generator")
    p = gens[0].n
    if any(g.n != p for g in gens):
        raise InputError("generators must share one ambient dimension")
    if p < 2:
        raise StructureError("ambient dimension must be at least 2")
    for i, g in enumerate(gens):
        if not is_gl_z(g):
            raise InputError("generator %d is not in GL(%d, Z)" % (i, p))
    # a matrix that commutes with the squarefree splitter is a polynomial
    # in it, so the family commutes exactly when each member commutes
    # with the splitter
    splitter, chi = _pick_splitter(gens)
    for i, g in enumerate(gens):
        if not commute(g, splitter):
            raise InputError(
                "generators do not commute: generator %d does not commute "
                "with the splitter" % i
            )

    last_error = None
    for attempt in (precision, 2 * precision):
        try:
            return _decompose_at(gens, splitter, chi, precision, attempt)
        except NeedsEscalation as exc:
            last_error = exc
    raise PrecisionError(
        "block decomposition failed up to %d bits: %s" % (attempt, last_error)
    )


def _decompose_at(family, splitter, chi, precision, attempt) -> BlockDecomposition:
    p = splitter.n
    real_roots, complex_disks, workbits = certified_poly_roots(chi, attempt)
    with _at_prec(workbits):
        columns: List[List] = []
        blocks: List[Tuple[int, int]] = []
        # descending real eigenvalues, then complex pairs
        for lo, hi in reversed(real_roots):
            lam = _mpf_from_rational((lo + hi) / 2)
            rows = [
                [mp.mpf(int(splitter[i, j])) - (lam if i == j else 0) for j in range(p)]
                for i in range(p)
            ]
            vec = _kernel_vector(rows, workbits, mp.mpf)
            blocks.append((len(columns), 1))
            columns.append(vec)
        for center, _radius in complex_disks:
            rows = [
                [mp.mpc(int(splitter[i, j])) - (center if i == j else 0) for j in range(p)]
                for i in range(p)
            ]
            vec = _kernel_vector(rows, workbits, mp.mpc)
            blocks.append((len(columns), 2))
            columns.append([z.real for z in vec])
            columns.append([z.imag for z in vec])
        delta = len(blocks)
        if delta < 2:
            raise StructureError(
                "decomposition has %d block(s); a locally conformally product "
                "structure needs at least two" % delta
            )
        basis = [[columns[j][i] for j in range(p)] for i in range(p)]
        # raises NeedsEscalation unless every pivot excludes zero
        inverse = _iv_inverse(_iv_matrix(basis))
    return BlockDecomposition(p, delta, blocks, basis, inverse, precision, workbits,
                              splitter, family)


def restricted_blocks(decomp: BlockDecomposition, a: IntMatrix):
    """Interval form of basis^-1 * a * basis, as one full matrix of row
    tuples.  Computed once per (decomposition, matrix): J1, the cross-term
    covariance check and the equivariance check read the same product."""
    if a.n != decomp.p:
        raise InputError("matrix dimension does not match the decomposition")
    c = decomp._conjugates.get(a)
    if c is None:
        with _at_prec(decomp.workbits):
            am = [[iv.mpf(int(a[i, j])) for j in range(a.n)] for i in range(a.n)]
            c = _freeze(_iv_matmul(decomp.inverse, _iv_matmul(am, _iv_matrix(decomp.basis))))
        decomp._conjugates[a] = c
    return c


def conjugated_numeric(decomp: BlockDecomposition, a: IntMatrix):
    """Midpoint form of basis^-1 * a * basis (the block-coordinate action)."""
    if a == IntMatrix.identity(a.n):
        with _at_prec(decomp.workbits):
            return _freeze(
                [[mp.mpf(1 if i == j else 0) for j in range(a.n)] for i in range(a.n)]
            )
    c = restricted_blocks(decomp, a)
    with _at_prec(decomp.workbits):
        return _freeze([[_mid(x) for x in row] for row in c])


# ----------------------------------------------------------------------
# similarity ratios (J1) and the non-isometric flat block (J2)


class RatioMatrix:
    """Similarity ratios of each generator on each block.

    Entries are positive reals certified by the J1 check; rows are indexed
    by generators, columns by blocks.  Witnesses, when present, are one
    exact unit per generator (units) and one embedding index per block
    (places): the witness of entry (j, k) is (units[j], places[k]), and the
    entry equals |sigma_(places[k])(units[j])|.
    """

    __slots__ = ("entries", "decomposition", "generators", "units", "places")

    def __init__(self, entries, decomposition, generators, units=None, places=None):
        self.entries = _freeze(entries)
        self.decomposition = decomposition
        self.generators = tuple(generators)
        self.units = units
        self.places = places

    @property
    def n_gens(self):
        return len(self.entries)

    @property
    def delta(self):
        return self.decomposition.delta

    def with_witnesses(self, units, places) -> "RatioMatrix":
        units, places = tuple(units), tuple(int(i) for i in places)
        if len(units) != self.n_gens or len(places) != self.delta:
            raise InputError("need one unit per generator and one place per block")
        return RatioMatrix(self.entries, self.decomposition, self.generators, units, places)


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


def _ratios_of_matrix(decomp, a, gen_index):
    """Per-block ratios of one generator that commutes with the splitter."""
    c = restricted_blocks(decomp, a)
    with _at_prec(decomp.workbits):
        return [
            _block_ratio(c, list(decomp.block_indices(k)), gen_index, k)
            for k in range(decomp.delta)
        ]


def check_J1(decomp: BlockDecomposition, gens: Sequence[IntMatrix]) -> RatioMatrix:
    """Certify that every generator acts by a similarity on every block.

    The verdict is exact.  The splitter's characteristic polynomial is
    squarefree, so a generator that commutes with it keeps each of its
    eigenlines: it acts by its eigenvalue nu on a real block and by
    [[a, b], [-b, a]] on a plane, a similarity of ratio |nu|.  The family
    was tested against the splitter when the decomposition was built; any
    other generator is tested here.  Returns the matrix of similarity
    ratios, read off the conjugated blocks.
    """
    gens = list(gens)
    for i, g in enumerate(gens):
        if g not in decomp.family and not commute(g, decomp.splitter):
            raise CheckFailureError(
                "generator %d does not commute with the splitter; blocks are "
                "not invariant" % i
            )
    entries = [_ratios_of_matrix(decomp, g, i) for i, g in enumerate(gens)]
    return RatioMatrix(entries, decomp, gens)


def check_J2(ratios: RatioMatrix, flat_block: int) -> bool:
    """Decide whether some generator fails to be an isometry on the flat block.

    The flat-block ratio of generator j is |sigma_i(units[j])| at the flat
    block's place i = places[flat_block], so the decision is exact wherever
    the mathematics allows: u = +-1 is an isometry, and a unit other than
    +-1 is not one at a real place, because sigma_i is injective.  At a
    complex place the certified enclosure of |sigma_i(u)| must exclude 1.
    True when some generator is proven non-isometric, False when every unit
    is +-1; otherwise PrecisionError.  Witnesses are required.
    """
    if ratios.units is None:
        raise InputError("check_J2 needs unit witnesses on the ratio matrix")
    if not 0 <= flat_block < ratios.delta:
        raise InputError("flat block index out of range")
    i = ratios.places[flat_block]
    undecided = False
    for u in ratios.units:
        if u == 1 or u == -1:
            continue
        emb = embeddings(u.field, ratios.decomposition.precision_bits)
        if emb.is_real(i):
            return True
        modulus = emb.abs_enclosure(u, i)
        with _at_prec(emb.workbits):
            if not mp.mpf(modulus.a) <= 1 <= mp.mpf(modulus.b):
                return True
        undecided = True
    if undecided:
        raise PrecisionError(
            "J2: the flat-block ratio of every generator that is not +-1 "
            "has a certified modulus enclosing 1 at a complex place"
        )
    return False


def lcp_rank(ratios: RatioMatrix, flat_block: int) -> int:
    """Rank of the group generated by the flat-block similarity ratios.

    Computed as the multiplicative rank of the exact units behind the
    ratios, at the decomposition's precision; witnesses are required.
    """
    if ratios.units is None:
        raise InputError("lcp_rank needs unit witnesses on the ratio matrix")
    if not 0 <= flat_block < ratios.delta:
        raise InputError("flat block index out of range")
    return multiplicative_rank(
        ratios.units[0].field, ratios.units, ratios.decomposition.precision_bits
    )


# ----------------------------------------------------------------------
# equivariant affine functionals and metric assembly


class AffineFunctional:
    """An affine map c . x + d on base log-coordinates.  Equivariance fixes
    the increments c . v alone, so the constant d is always zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    def shift(self, v):
        """Increment of the functional along a translation vector."""
        acc = mp.mpf(0)
        for c, vi in zip(self.coeffs, v):
            acc += _to_mpf(c) * _to_mpf(vi)
        return acc


def solve_equivariant_functional(translations, targets, precision: int) -> AffineFunctional:
    """Affine functional f with f(x + v_j) - f(x) = r_j for all j.

    Solves c . v_j = r_j by Gaussian elimination at working precision and
    verifies every residual against the tolerance; the constant term is
    free and set to zero.
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
        func = AffineFunctional(coeffs)
        for v, target in zip(translations, targets):
            if abs(func.shift(v) - _to_mpf(target)) > tol:
                raise StructureError(
                    "translation system is singular: residual exceeds tolerance"
                )
    return func


class CrossTerm:
    """Off-diagonal coupling between two non-flat blocks: every entry
    between them is epsilon * exp(2 f_c), the all-ones coupling table
    scaled."""

    __slots__ = ("k", "k2", "functional", "epsilon")

    def __init__(self, k, k2, functional, epsilon):
        self.k = int(k)
        self.k2 = int(k2)
        self.functional = functional
        self.epsilon = epsilon


class MetricSpec:
    """Assembled translation-equivariant metric in block coordinates.

    The flat block carries the identity form; every other block k carries
    exp(2 f_k) times the identity, the base carries exp(2 f_0) times the
    flat metric, and optional cross terms couple pairs of non-flat blocks.
    """

    __slots__ = (
        "decomposition",
        "ratios",
        "flat_block",
        "functionals",
        "base_conformal",
        "translations",
        "cross_terms",
        "n",
    )

    def __init__(self, decomposition, ratios, flat_block, functionals,
                 base_conformal, translations, cross_terms=()):
        self.decomposition = decomposition
        self.ratios = ratios
        self.flat_block = int(flat_block)
        self.functionals = tuple(functionals)
        self.base_conformal = base_conformal
        self.translations = tuple(tuple(v) for v in translations)
        self.cross_terms = tuple(cross_terms)
        self.n = len(self.translations[0]) if self.translations else 0

    @property
    def total_dim(self):
        return self.decomposition.p + self.n

    def replace(self, **kwargs) -> "MetricSpec":
        fields = {
            "decomposition": self.decomposition,
            "ratios": self.ratios,
            "flat_block": self.flat_block,
            "functionals": self.functionals,
            "base_conformal": self.base_conformal,
            "translations": self.translations,
            "cross_terms": self.cross_terms,
        }
        fields.update(kwargs)
        return MetricSpec(**fields)


def build_metric_spec(ratios: RatioMatrix, flat_block: int, translations) -> MetricSpec:
    """Solve for the warping functionals and assemble the metric data on
    the ratios' decomposition.

    Block k receives the functional with increments ln(L1/Lk) along each
    generator's base translation, and the base conformal factor receives
    increments ln(L1); L1 is the flat-block ratio.
    """
    decomp = ratios.decomposition
    if not 0 <= flat_block < decomp.delta:
        raise InputError("flat block index out of range")
    translations = [list(v) for v in translations]
    if len(translations) != ratios.n_gens:
        raise InputError("need one base translation per generator")
    precision = decomp.precision_bits
    workbits = decomp.workbits
    with _at_prec(workbits):
        lam1 = [row[flat_block] for row in ratios.entries]
        functionals = []
        for k in range(decomp.delta):
            if k == flat_block:
                functionals.append(AffineFunctional([0] * len(translations[0])))
                continue
            targets = [
                mp.log(lam1[j] / ratios.entries[j][k])
                for j in range(ratios.n_gens)
            ]
            functionals.append(
                solve_equivariant_functional(translations, targets, precision)
            )
        base_targets = [mp.log(lam1[j]) for j in range(ratios.n_gens)]
        base_conformal = solve_equivariant_functional(
            translations, base_targets, precision
        )
    return MetricSpec(decomp, ratios, flat_block, functionals, base_conformal, translations)


def _cross_covariance_check(spec: MetricSpec, k, k2, tol):
    """Generators must scale the all-ones coupling table by the two block
    ratios."""
    decomp = spec.decomposition
    idx1, idx2 = decomp.block_indices(k), decomp.block_indices(k2)
    for gi, g in enumerate(spec.ratios.generators):
        c = restricted_blocks(decomp, g)
        with _at_prec(decomp.workbits):
            want = iv.mpf(spec.ratios.entries[gi][k] * spec.ratios.entries[gi][k2])
            for a in idx1:
                for b in idx2:
                    acc = iv.mpf(0)
                    for i in idx1:
                        for j in idx2:
                            acc += c[i][a] * c[j][b]
                    if mp.mpf(abs(acc - want).b) > 8 * tol:
                        raise CheckFailureError(
                            "cross-term table between blocks %d and %d is not "
                            "covariant under generator %d" % (k, k2, gi)
                        )


def _grid_points(spec: MetricSpec):
    """Deterministic fundamental-domain grid, 10 cells per translation, as
    pairs at the metric's working precision.  Translation j takes digit j
    of the cell number, least significant first, and cell c the weight
    (2c + 1) / 20 rounded to that precision."""
    g, workbits = len(spec.translations), spec.decomposition.workbits
    with _at_prec(workbits):
        cells = [
            rawmetric.to_dyadic(Fraction(2 * c + 1, 2 * _CROSS_GRID)) for c in range(_CROSS_GRID)
        ]
    weights = [
        [cells[flat // _CROSS_GRID ** j % _CROSS_GRID] for j in range(g)]
        for flat in range(_CROSS_GRID ** g)
    ]
    return rawmetric.span(weights, spec.translations, workbits)


def add_cross_terms(spec: MetricSpec, pairs) -> MetricSpec:
    """Couple pairs of non-flat blocks with equivariant off-diagonal terms.

    Each pair (k, k') receives the all-ones coupling table, the functional
    f_c with increments ln(L1/sqrt(Lk Lk')), and one common scale eps found
    by bisection so the metric stays positive definite on the
    fundamental-domain grid.
    rawmetric.cross_scale runs the search: it adds the new terms to spec's
    grid grams with the helper metric_gram uses, so every tested matrix is
    the coupled metric's gram, bit for bit, in the rows and columns a cross
    term touches; the others hold their diagonal alone, which it tests once
    per grid point.
    """
    pairs = [tuple(pair) for pair in pairs]
    if not pairs:
        return spec
    decomp = spec.decomposition
    precision = decomp.precision_bits
    tol = tolerance(precision)
    for k, k2 in pairs:
        if k == k2:
            raise InputError("cross terms need two distinct blocks")
        if not (0 <= k < decomp.delta and 0 <= k2 < decomp.delta):
            raise InputError("cross-term block index out of range")
        if spec.flat_block in (k, k2):
            raise InputError("cross terms may not touch the flat block")
    couplings = []
    with _at_prec(decomp.workbits):
        for k, k2 in pairs:
            _cross_covariance_check(spec, k, k2, tol)
            lam1 = [row[spec.flat_block] for row in spec.ratios.entries]
            targets = [
                mp.log(lam1[j])
                - mp.log(spec.ratios.entries[j][k] * spec.ratios.entries[j][k2]) / 2
                for j in range(spec.ratios.n_gens)
            ]
            functional = solve_equivariant_functional(spec.translations, targets, precision)
            couplings.append(CrossTerm(k, k2, functional, 1))
    at_one = spec.replace(cross_terms=spec.cross_terms + tuple(couplings))
    epsilon = rawmetric.cross_scale(
        rawmetric.MetricTerms(spec),
        rawmetric.MetricTerms(at_one).cross[len(spec.cross_terms):],
        _grid_points(spec),
        rawmetric.to_dyadic(tol),
        _CROSS_BISECT_STEPS,
    )
    if not epsilon[0]:
        raise CheckFailureError(
            "no positive cross-term scale keeps the sampled metric positive definite"
        )
    epsilon = rawmetric.from_dyadic(epsilon)
    new_terms = tuple(CrossTerm(t.k, t.k2, t.functional, epsilon) for t in couplings)
    return spec.replace(cross_terms=spec.cross_terms + new_terms)


# ----------------------------------------------------------------------
# equivariance verification


def _sample_points(spec: MetricSpec, seed: int):
    """SAMPLES seeded points in the span of the stored base translations,
    as pairs at the metric's working precision: each translation takes a
    48-bit random dyadic weight."""
    rng = random.Random(seed)
    g = len(spec.translations)
    weights = [[(rng.getrandbits(48), -48) for _ in range(g)] for _ in range(SAMPLES)]
    return rawmetric.span(weights, spec.translations, spec.decomposition.workbits)


def verify_equivariance(spec: MetricSpec, seed: int) -> List[Tuple]:
    """Check gamma*h = L1^2 h at SAMPLES seeded sample points, for each
    generator of spec.

    Generator j is read off spec: the lattice map ratios.generators[j],
    the base translation translations[j] and the flat-block ratio L1 in
    ratios.entries[j].  The points span the translations, and the check
    runs at the decomposition's working precision against the tolerance
    of its precision.  The sample points do not depend on the generator, so h(x) is evaluated
    once per point and h(x + v) once per point and generator.  The
    pullback uses the exact affine Jacobian of the action: the linear part
    in block coordinates on the fiber, identity on base coordinates.  The
    arithmetic, exp's fixed point included, runs in rawmetric on (m, e)
    pairs m * 2**e, each sum and product rounded to nearest, ties to even,
    in the order the mpf expressions evaluate, so the residual is the mpf
    loop's bit for bit.  libmp's exp_basecase runs at the sample points
    alone: each exp at x + v is derived from the one at x and is kept
    where a proven bound shows that libmp rounds it alike, and libmp
    computes the rest: a few per cent up to a precision of 2048 bits, and
    more than half at 4096.  A block-scalar row of the fiber metric holds
    its diagonal alone, so its row of H_F C is one rounded product per entry,
    and only entries the metric's sparsity lets be nonzero are compared.
    Returns one (max_residual, verdict) pair per generator, in order: the
    maximum relative residual as an mpf and whether it is below the
    tolerance.  An inf or nan coordinate or translation raises InputError.
    """
    decomp, ratios = spec.decomposition, spec.ratios
    blocks = [conjugated_numeric(decomp, a) for a in ratios.generators]
    pts = _sample_points(spec, seed)
    actions = []
    with _at_prec(decomp.workbits):
        for c, v, row in zip(blocks, spec.translations, ratios.entries):
            lam1 = mp.mpf(row[spec.flat_block])
            c_t = [[rawmetric.to_dyadic(e) for e in col] for col in zip(*c)]
            v = [rawmetric.to_dyadic(t) for t in v]
            actions.append((c_t, rawmetric.to_dyadic(lam1 * lam1), v))
    residuals = rawmetric.pullback_residuals(rawmetric.MetricTerms(spec), actions, pts)
    tol = tolerance(decomp.precision_bits)
    return [(r, r < tol) for r in map(rawmetric.from_dyadic, residuals)]
