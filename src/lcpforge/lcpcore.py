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
checks.

This module takes the exact decisions and assembles the metric, and
imports no mpmath.  The stages that exist only to reproduce schema-1
bytes run in schema1: the block basis and its interval inverse, the
ratios read off the conjugated blocks, the warping functionals' log
targets and their solve, the scale search and the sampled check.  A
functional is its coefficient tuple.

The similarity verdict is exact: every generator commutes with a splitter
of squarefree characteristic polynomial.  check_J1 owns the place
decision: it matches each block to the one place i at which every ratio
of the block is |sigma_i(u)|, within the tolerance, for its generator's
unit u, so the ratio of generator j on block k is witnessed by
(u, i) = (units[j], places[k]), which RatioMatrix carries from birth.  The
non-isometry of the flat block is decided exactly from the witness behind
each flat-block ratio.  The remaining numeric decisions are taken at the
requested precision plus guard bits, against the tolerance 2**(-bits/2).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from . import schema1
from .embeddings import (
    embeddings,
    multiplicative_rank,
    tolerance,
    validate_precision,
    verify_ratio_witness,
)
from .errors import CheckFailureError, InputError, NeedsEscalation, PrecisionError, StructureError
from .intlinalg import IntMatrix, char_poly, commute, is_gl_z
from .numberfield import real_sign
from .polynomials import IntPoly, sturm_chain
from .schema1 import _freeze

_SPLITTER_TRIALS = 40
_SPLITTER_SEED = 0x5EED


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

    def __init__(self, blocks, basis, inverse, workbits, precision_bits, splitter, family):
        self.p = len(basis)
        self.delta = len(blocks)
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
            self.p, self.delta, self.blocks, self.precision_bits)


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
    # chi is squarefree: a line per real root and a plane per complex pair
    delta = (p + sturm_chain(chi).count_all()) // 2
    if delta < 2:
        raise StructureError(
            "decomposition has %d block(s); a locally conformally product "
            "structure needs at least two" % delta
        )

    last_error = None
    for attempt in (precision, 2 * precision):
        try:
            found = schema1.decompose_at(splitter, chi, attempt)
        except NeedsEscalation as exc:
            last_error = exc
        else:
            return BlockDecomposition(*found, precision, splitter, gens)
    raise PrecisionError(
        "block decomposition failed up to %d bits: %s" % (attempt, last_error)
    )


# ----------------------------------------------------------------------
# similarity ratios (J1) and the non-isometric flat block (J2)


class RatioMatrix:
    """Similarity ratios of each generator of the decomposition's family on
    each block, with their witnesses.

    Entries are positive reals certified by the J1 check; rows are indexed
    by generators, columns by blocks.  The witnesses are one exact unit per
    generator (units) and one embedding index per block (places):
    generator j acts on block k by sigma_(places[k])(units[j]), and entry
    (j, k) is its modulus.  check_J1 builds them.
    """

    __slots__ = ("entries", "decomposition", "units", "places")

    def __init__(self, entries, decomposition, units, places):
        self.entries = _freeze(entries)
        self.decomposition = decomposition
        self.units = tuple(units)
        self.places = tuple(places)

    @property
    def generators(self):
        return self.decomposition.family

    @property
    def n_gens(self):
        return len(self.entries)

    @property
    def delta(self):
        return self.decomposition.delta


def _match_block_embeddings(emb, units, decomp, entries):
    """Embedding index carried by each block, certified on every unit.

    Block k matches embedding i when every generator's ratio on block k
    is witnessed by the corresponding unit at embedding i; the match must
    be a bijection with real embeddings on 1-dimensional blocks.
    """
    matches = []
    for k in range(decomp.delta):
        cands = [
            i
            for i in range(emb.count)
            if all(
                verify_ratio_witness(emb, u, i, entries[j][k])
                for j, u in enumerate(units)
            )
        ]
        if len(cands) != 1:
            raise StructureError(
                "block %d matches %d embeddings; cannot certify the "
                "block-to-embedding correspondence" % (k, len(cands))
            )
        matches.append(cands[0])
    if len(set(matches)) != decomp.delta:
        raise StructureError("block-to-embedding match is not injective")
    for k, (_, size) in enumerate(decomp.blocks):
        if (size == 1) != emb.is_real(matches[k]):
            raise StructureError(
                "block %d has dimension %d but matched a %s embedding"
                % (k, size, "real" if emb.is_real(matches[k]) else "complex")
            )
    return tuple(matches)


def check_J1(decomp: BlockDecomposition, units, emb) -> RatioMatrix:
    """Certify that every generator of the decomposition's family acts by a
    similarity on every block, and witness each ratio.

    The similarity verdict is exact.  The splitter's characteristic
    polynomial is squarefree and find_block_decomposition refused a family
    that does not commute with it, so each generator keeps the splitter's
    eigenlines: it acts by its eigenvalue nu on a real block and by
    [[a, b], [-b, a]] on a plane, a similarity of ratio |nu|.  The ratios
    are read off the conjugated blocks (schema1.ratios_of_matrix).

    units holds one exact unit per generator, emb the embeddings of their
    field at the decomposition's precision.  Each block is matched to the
    one place i at which every ratio of the block is |sigma_i(u)|, within
    the tolerance, for its generator's unit u (verify_ratio_witness, which
    raises NonUnitError on a non-unit).  Returns the witnessed ratios.
    """
    units = tuple(units)
    if len(units) != len(decomp.family):
        raise InputError("need one unit witness per generator")
    entries = [schema1.ratios_of_matrix(decomp, g, i) for i, g in enumerate(decomp.family)]
    places = _match_block_embeddings(emb, units, decomp, entries)
    return RatioMatrix(entries, decomp, units, places)


def check_J2(ratios: RatioMatrix, flat_block: int) -> bool:
    """Decide whether some generator fails to be an isometry on the flat block.

    The flat-block ratio of generator j is |sigma_i(units[j])| at the flat
    block's place i = places[flat_block], so the decision is exact wherever
    the mathematics allows: u = +-1 is an isometry, and a unit other than
    +-1 is not one at a real place, because sigma_i is injective.  At a
    complex place the certified enclosure of |sigma_i(u)| must exclude 1.
    True when some generator is proven non-isometric, False when every unit
    is +-1; otherwise PrecisionError.
    """
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
        if 1 not in emb.abs_enclosure(u, i):
            return True
        undecided = True
    if undecided:
        raise PrecisionError(
            "J2: the flat-block ratio of every generator that is not +-1 "
            "has a certified modulus enclosing 1 at a complex place"
        )
    return False


def lcp_rank(ratios: RatioMatrix) -> int:
    """Multiplicative rank of the units witnessing the ratios, at the
    decomposition's precision.

    It is the rank of the flat block's ratio group at a real flat place i,
    since |sigma_i(w)| = 1 forces w = +-1 (sigma_i is injective), and with
    one generator that J2 proves non-isometric.  At a complex flat place
    with two or more units it is only an upper bound on that rank.
    """
    return multiplicative_rank(
        ratios.units[0].field, ratios.units, ratios.decomposition.precision_bits
    )


# ----------------------------------------------------------------------
# metric assembly


class CrossTerm:
    """Off-diagonal coupling between two non-flat blocks: every entry
    between them is epsilon * exp(2 f_c), the all-ones coupling table
    scaled; functional is f_c's coefficient tuple."""

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
    Each functional f is its coefficient tuple c, f(x) = c . x.
    """

    __slots__ = ("ratios", "flat_block", "functionals", "base_conformal",
                 "translations", "cross_terms", "n")

    def __init__(self, ratios, flat_block, functionals, base_conformal,
                 translations, cross_terms=()):
        self.ratios = ratios
        self.flat_block = int(flat_block)
        self.functionals = tuple(functionals)
        self.base_conformal = base_conformal
        self.translations = tuple(tuple(v) for v in translations)
        self.cross_terms = tuple(cross_terms)
        self.n = len(self.translations[0]) if self.translations else 0

    @property
    def decomposition(self):
        return self.ratios.decomposition

    @property
    def total_dim(self):
        return self.decomposition.p + self.n

    def replace(self, **kwargs) -> "MetricSpec":
        # every slot but n, which the translations determine
        fields = {name: getattr(self, name) for name in self.__slots__[:-1]}
        return MetricSpec(**{**fields, **kwargs})


def build_metric_spec(ratios: RatioMatrix, flat_block: int, translations) -> MetricSpec:
    """Solve for the warping functionals and assemble the metric data on
    the ratios' decomposition.

    Block k receives the functional with increments ln(L1/Lk) along each
    generator's base translation, and the base conformal factor receives
    increments ln(L1); L1 is the flat-block ratio.  schema1 solves them
    (warping_functionals); a system no functional solves raises
    StructureError.
    """
    decomp = ratios.decomposition
    if not 0 <= flat_block < decomp.delta:
        raise InputError("flat block index out of range")
    translations = [list(v) for v in translations]
    if len(translations) != ratios.n_gens:
        raise InputError("need one base translation per generator")
    functionals, base_conformal = schema1.warping_functionals(ratios, flat_block, translations)
    return MetricSpec(ratios, flat_block, functionals, base_conformal, translations)


def add_cross_terms(spec: MetricSpec, pairs) -> MetricSpec:
    """Couple pairs of one-dimensional non-flat blocks with equivariant
    off-diagonal terms.

    Each pair (k, k') receives the all-ones coupling table, the functional
    f_c with increments ln(L1/sqrt(Lk Lk')) (schema1.cross_functional), and
    one common scale eps found by bisection so the metric stays positive
    definite on the fundamental-domain grid.

    Covariance is decided exactly on the ratio witnesses: with
    nu = sigma_(places[k])(units[j]), generator j scales the coupling by
    nu nu', which is Lk Lk' exactly when the unit has one sign at the two
    real places (numberfield.real_sign on the certified brackets).

    schema1.cross_scale runs the search: it adds the new terms to spec's
    grid grams with the helper metric_gram uses, so every tested matrix is
    the coupled metric's gram, bit for bit, in the rows and columns a cross
    term touches; the others hold their diagonal alone, which it tests once
    per grid point.
    """
    pairs = [tuple(pair) for pair in pairs]
    if not pairs:
        return spec
    ratios, decomp = spec.ratios, spec.decomposition
    emb = embeddings(ratios.units[0].field, decomp.precision_bits)
    for k, k2 in pairs:
        if k == k2:
            raise InputError("cross terms need two distinct blocks")
        if not (0 <= k < decomp.delta and 0 <= k2 < decomp.delta):
            raise InputError("cross-term block index out of range")
        if spec.flat_block in (k, k2):
            raise InputError("cross terms may not touch the flat block")
        if any(decomp.blocks[b][1] != 1 or not emb.is_real(ratios.places[b])
               for b in (k, k2)):
            raise InputError("cross terms couple one-dimensional blocks at real places only")
    couplings = []
    for k, k2 in pairs:
        i, i2 = ratios.places[k], ratios.places[k2]
        for j, u in enumerate(ratios.units):
            if real_sign(u, emb.real_roots[i]) != real_sign(u, emb.real_roots[i2]):
                raise CheckFailureError(
                    "cross-term table between blocks %d and %d is not "
                    "covariant under generator %d" % (k, k2, j)
                )
        couplings.append(CrossTerm(k, k2, schema1.cross_functional(spec, k, k2), 1))
    at_one = spec.replace(cross_terms=spec.cross_terms + tuple(couplings))
    epsilon = schema1.cross_epsilon(spec, at_one)
    if not epsilon:
        raise CheckFailureError(
            "no positive cross-term scale keeps the sampled metric positive definite"
        )
    new_terms = tuple(CrossTerm(t.k, t.k2, t.functional, epsilon) for t in couplings)
    return spec.replace(cross_terms=spec.cross_terms + new_terms)


# ----------------------------------------------------------------------
# equivariance verification


def verify_equivariance(spec: MetricSpec, seed: int) -> List[Tuple]:
    """Check gamma*h = L1^2 h at SAMPLES seeded sample points, for each
    generator of spec.

    Generator j is read off spec: the lattice map ratios.generators[j],
    the base translation translations[j] and the flat-block ratio L1 in
    ratios.entries[j].  The points span the translations, and the check
    runs at the decomposition's working precision against the tolerance
    of its precision.  The pullback uses the exact affine Jacobian of the
    action: the linear part in block coordinates on the fiber, identity on
    base coordinates.  schema1.sampled_residuals computes the residuals,
    bit for bit those of the loop of mpf operators they replace.
    Returns one (max_residual, verdict) pair per generator, in order: the
    maximum relative residual as an mpf and whether it is below the
    tolerance.  An inf or nan coordinate or translation raises InputError.
    """
    tol = tolerance(spec.decomposition.precision_bits)
    return [(r, r < tol) for r in schema1.sampled_residuals(spec, seed)]
