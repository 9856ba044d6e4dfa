"""End-to-end pipelines: cyclic totally real fields, commuting unit
matrices, rank-n structures, warped-product families over one expanding
map, and unit-lattice quotients of number fields with mixed signature.

Each pipeline runs its verification checks in a fixed order and seals the
results into an LcpCertificate.  Construction errors (bad input, broken
structural hypotheses) raise; verification failures produce a FAILED
certificate naming the first failing check, except where a mismatch is
specified as a hard failure.
"""

import itertools
from fractions import Fraction

from mpmath import mp

from . import __version__
from .certio import (
    LcpCertificate,
    SCHEMA_VERSION,
    collect_verdicts,
    canonical_json,
    enc_float,
    enc_float_matrix,
    enc_float_vector,
)
from .embeddings import (
    MAX_PRECISION,
    _at_prec,
    default_precision,
    embeddings,
    log_vector,
    multiplicative_rank,
    projected_log_rank,
    tolerance,
    validate_precision,
    verify_ratio_witness,
)
from .errors import (
    CheckFailureError,
    InputError,
    PrecisionError,
    StructureError,
)
from .intlinalg import (
    IntMatrix,
    char_poly,
    det,
    eigen_solve,
    matrix_from_json,
    matrix_to_json,
)
from .lcpcore import (
    SimilarityGenerator,
    UnitWitness,
    add_cross_terms,
    build_metric_spec,
    check_J1,
    check_J2,
    find_block_decomposition,
    lcp_rank,
    verify_equivariance,
)
from .numberfield import (
    FieldElem,
    NumberField,
    dirichlet_rank_bound,
    elem_from_json,
    field_new,
    galois_generator,
    is_unit,
    minimal_polynomial,
    mult_matrix,
    order_mod_sign,
    require_unit,
)
from .polynomials import (
    IntPoly,
    is_prime,
    poly_from_json,
    poly_to_json,
    rat_to_json,
    real_subfield_minpoly,
)

EQUIVARIANCE_SAMPLES = 100
WARP_SAMPLE_POINTS = 50


# --------------------------------------------------------------------------
# field and matrix families


class ExField:
    """Cyclic totally real field built from a prime modulus, with a
    generator of its Galois group."""

    __slots__ = ("field", "modulus", "sigma")

    def __init__(self, field: NumberField, modulus: int, sigma):
        self.field = field
        self.modulus = modulus
        self.sigma = sigma


def make_exfield(n: int) -> ExField:
    """Smallest-prime cyclic totally real field of degree at least n + 1.

    Takes the first prime m >= 2n + 3 and the minimal polynomial of the
    largest real root of the m-th cyclotomic polynomial; the degree is
    (m - 1) / 2.
    """
    return _exfield(_conductor(n))


def _conductor(n, rank: int = 0) -> int:
    """The first prime m >= 2n + 3 whose Galois orbit has rank >= rank;
    the real subfield then has degree (m - 1)/2 >= n + 1."""
    n = int(n)
    if n < 1:
        raise InputError("rank parameter must be a positive integer")
    m = 2 * n + 3
    while not (is_prime(m) and _orbit_rank(m) >= rank):
        m += 1
    return m


def _exfield(m: int) -> ExField:
    field = field_new(real_subfield_minpoly(m))
    return ExField(field, m, galois_generator(field))


def _orbit_rank(m: int) -> int:
    """Multiplicative rank of the full Galois orbit of 2cos(2*pi/m), m an
    odd prime: d - d/k with d = (m - 1)/2 and k the order of 2 in
    (Z/m)^x / {+-1}.

    The generator is zeta^-1 (1 - zeta^4) / (1 - zeta^2), so on an even
    character chi its log vector has the coefficient
    (chi(4) - chi(2)) * sum_a chi(a) log|1 - zeta^a| (conjugates dropped),
    whose sum is nonzero for chi != 1 because L(1, chi) != 0 (Washington,
    Introduction to Cyclotomic Fields, Lemma 8.1 and Thm 8.2).  The d - 1
    nontrivial even characters span the log space, and the coefficient
    vanishes on the d/k - 1 of them with chi(2) = 1.
    """
    d = (m - 1) // 2
    return d - d // order_mod_sign(2, m)


class DMatrixData:
    """Commuting unit-multiplication matrices in the power basis, together
    with the exact units they represent."""

    __slots__ = ("exfield", "units", "matrices")

    def __init__(self, exfield, units, matrices):
        self.exfield = exfield
        self.units = tuple(units)
        self.matrices = tuple(matrices)

    @property
    def field(self) -> NumberField:
        return self.exfield.field

    @property
    def p(self) -> int:
        return self.exfield.field.degree


def make_dmatrix(n: int, precision=None) -> DMatrixData:
    """n commuting matrices in GL_p(Z) whose common eigenvector carries a
    multiplicatively independent family of unit eigenvalues.

    The field is that of make_exfield, except that the conductor is the
    first prime m >= 2n + 3 whose full Galois orbit has rank at least n
    (_orbit_rank), an exact test made before any numeric work; for every n
    whose first prime passes, that is the first prime.  The units are the
    Galois orbit prefix of the field generator; each becomes its exact
    multiplication matrix in the power basis (numberfield.mult_matrix);
    these commute because M_u M_v = M_uv.  multiplicative_rank checks that
    they are units, which for integral elements is |det| = 1 of these
    matrices, so they lie in GL(p, Z); it decides their rank at precision
    bits (default: default_precision()), so a pipeline passes its own bits
    and certifies the field's roots once.
    """
    ex = _exfield(_conductor(n, int(n)))
    field = ex.field
    alpha = field.gen()
    units = [alpha]
    for _ in range(int(n) - 1):
        units.append(ex.sigma(units[-1]))
    matrices = [mult_matrix(u) for u in units]
    rank = multiplicative_rank(field, units, precision)
    if rank != int(n):
        raise StructureError(
            "independent units not found: the Galois orbit prefix has "
            "multiplicative rank %d, need %d" % (rank, int(n))
        )
    return DMatrixData(ex, units, matrices)


# --------------------------------------------------------------------------
# block-to-embedding matching


def _match_block_embeddings(emb, units, ratios):
    """Embedding index carried by each block, certified on every unit.

    Block k matches embedding i when every generator's ratio on block k
    is witnessed by the corresponding unit at embedding i; the match must
    be a bijection with real embeddings on 1-dimensional blocks.
    """
    decomp = ratios.decomposition
    matches = []
    for k in range(decomp.delta):
        cands = [
            i
            for i in range(emb.count)
            if all(
                verify_ratio_witness(emb, u, i, ratios.entries[j][k])
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


def _witness_table(units, block_embeddings):
    return [
        [UnitWitness(u, block_embeddings[k]) for k in range(len(block_embeddings))]
        for u in units
    ]


# --------------------------------------------------------------------------
# certificate assembly


class _Builder:
    def __init__(self, pipeline, parameters, bits, seed):
        self.doc = {
            "schema_version": SCHEMA_VERSION,
            "tool": {"name": "lcpforge", "version": __version__},
            "pipeline": pipeline,
            "parameters": parameters,
            "precision_bits": bits,
            "seed": seed,
            "checks": {},
            "verdict": "PASS",
            "failed_check": None,
        }

    def section(self, key, payload):
        self.doc[key] = payload

    def check(self, name, payload):
        verdicts = collect_verdicts(payload, name)
        if not verdicts:
            raise InputError("check %r carries no verdict" % name)
        self.doc["checks"][name] = payload
        if not all(verdicts.values()) and self.doc["failed_check"] is None:
            self.doc["verdict"] = "FAILED"
            self.doc["failed_check"] = name

    def fail(self, name, exc):
        self.check(name, {"verdict": False, "error": str(exc)})
        return self.seal()

    def seal(self) -> LcpCertificate:
        return LcpCertificate(self.doc)


def _functional_payload(f, bits):
    return {
        "coeffs": enc_float_vector(f.coeffs, bits),
        "constant": enc_float(f.constant, bits),
    }


def _field_section(field, modulus=None):
    payload = {
        "minpoly": poly_to_json(field.minpoly),
        "degree": field.degree,
        "signature": list(field.signature),
    }
    if modulus is not None:
        payload["modulus"] = int(modulus)
    return payload


def _decomposition_section(decomp, block_embeddings):
    return {
        "p": decomp.p,
        "delta": decomp.delta,
        "blocks": [list(b) for b in decomp.blocks],
        "block_embeddings": list(block_embeddings),
        "basis": enc_float_matrix(decomp.basis, decomp.workbits),
    }


def _generators_section(gens, ratios, workbits):
    payload = []
    for j, gen in enumerate(gens):
        entry = {
            "label": gen.label,
            "matrix": matrix_to_json(gen.linear),
            "translation": [rat_to_json(c) for c in gen.translation],
            "base_translation": enc_float_vector(gen.base_translation, workbits),
            "ratio_row": enc_float_vector(ratios.entries[j], workbits),
        }
        if ratios.witnesses is not None:
            entry["witnesses"] = [
                {
                    "element": w.element.to_json(),
                    "embedding": w.embedding_index,
                    "exponent": w.exponent,
                }
                for w in ratios.witnesses[j]
            ]
        payload.append(entry)
    return payload


def _metric_section(spec):
    workbits = spec.decomposition.workbits
    payload = {
        "flat_block": spec.flat_block,
        "base_dim": spec.n,
        "total_dim": spec.total_dim,
        "functionals": [_functional_payload(f, workbits) for f in spec.functionals],
        "base_conformal": _functional_payload(spec.base_conformal, workbits),
        "translations": [enc_float_vector(v, workbits) for v in spec.translations],
        "cross_terms": [
            {
                "blocks": [term.k, term.k2],
                "table": [[rat_to_json(x) for x in row] for row in term.table],
                "functional": _functional_payload(term.functional, workbits),
                "epsilon": enc_float(term.epsilon, workbits),
            }
            for term in spec.cross_terms
        ],
        "extensions": [
            {
                "functional": _functional_payload(ext.functional, workbits),
                "gram": [[rat_to_json(x) for x in row] for row in ext.gram],
            }
            for ext in spec.extensions
        ],
    }
    return payload


def _matrix_family_check(matrices):
    # det(X*I - A) at X = 0 is det(-A).  Commutation and GL(Z) are decided
    # once, by find_block_decomposition, which raises InputError before any
    # certificate carrying this check is sealed.
    constants = [(-1) ** m.n * det(m) for m in matrices]
    return {
        "verdict": all(abs(c) == 1 for c in constants),
        "char_poly_constants": constants,
        "count": len(matrices),
    }


def _unit_ratio_check(emb, ratios):
    """Exact unit-ness of every ratio witness plus the numeric agreement
    between each ratio and its witnessed embedding modulus; a non-unit is
    recorded as neither a unit nor witnessed, not raised."""
    if ratios.witnesses is None:
        raise InputError("ratio matrix carries no witnesses")
    rows = []
    overall = True
    for j, row in enumerate(ratios.witnesses):
        entries = []
        for k, w in enumerate(row):
            unit_ok = is_unit(w.element)
            witnessed = unit_ok and verify_ratio_witness(
                emb, w.element, w.embedding_index, ratios.entries[j][k], w.exponent
            )
            overall = overall and witnessed
            # the constant of the monic minimal polynomial
            mpoly = minimal_polynomial(w.element)
            entries.append(
                {
                    "minpoly_constant": rat_to_json(
                        Fraction(mpoly.constant(), mpoly.leading())
                    ),
                    "unit": unit_ok,
                    "witnessed": bool(witnessed),
                    "verdict": bool(witnessed),
                }
            )
        rows.append(entries)
    return {"verdict": bool(overall), "entries": rows}


def _rank_check(ratios, flat_block, bits, expected):
    # the rank is proven at bits by a certified log minor, or else decided
    # by the stability pass; value_at_doubled_precision and doubled_bits
    # keep their schema-1 names and bytes and repeat that value
    value = lcp_rank(ratios, flat_block, bits)
    return {
        "expected": int(expected),
        "value": int(value),
        "value_at_doubled_precision": int(value),
        "doubled_bits": min(2 * bits, MAX_PRECISION),
        "verdict": value == int(expected),
    }


def _dirichlet_check(field, tested_rank):
    bound = dirichlet_rank_bound(field)
    return {
        "bound": int(bound),
        "tested_rank": int(tested_rank),
        "verdict": tested_rank <= bound,
    }


def _equivariance_check(spec, gens, bits, seed):
    reports = verify_equivariance(
        spec, gens, samples=EQUIVARIANCE_SAMPLES, precision=bits, seed=seed
    )
    return {
        "verdict": all(rep.verdict for rep in reports),
        "reports": [
            {
                "generator": rep.generator_label,
                "samples": rep.samples,
                "seed": rep.seed,
                "max_residual": enc_float(rep.max_residual, rep.precision_bits + 32),
                "verdict": rep.verdict,
            }
            for rep in reports
        ],
    }


def _witnessed_ratios(builder, decomp, emb, units, ratios):
    """Match blocks to embeddings, record the decomposition section and
    attach one unit witness per (unit, block); returns (ratios,
    block_embeddings)."""
    block_emb = _match_block_embeddings(emb, units, ratios)
    builder.section("decomposition", _decomposition_section(decomp, block_emb))
    return ratios.with_witnesses(_witness_table(units, block_emb)), block_emb


def _flat_block_checks(builder, emb, ratios, flat, bits, tested_rank, expected_rank):
    """J2, unit_ratios, dirichlet and rank, in that order."""
    j2 = check_J2(ratios, flat)
    builder.check("J2", {"verdict": bool(j2), "flat_block": flat})
    builder.check("unit_ratios", _unit_ratio_check(emb, ratios))
    builder.check("dirichlet", _dirichlet_check(emb.field, tested_rank))
    builder.check("rank", _rank_check(ratios, flat, bits, expected_rank))


def _seal_metric(builder, spec, ratios, labels, matrices, translations, bits, seed):
    """One similarity generator per label, the generators and metric
    sections, the equivariance check, then the sealed certificate."""
    decomp = spec.decomposition
    gens = [
        SimilarityGenerator(
            label, matrices[l], (0,) * decomp.p, translations[l], ratios.entries[l]
        )
        for l, label in enumerate(labels)
    ]
    builder.section("generators", _generators_section(gens, ratios, decomp.workbits))
    builder.section("metric", _metric_section(spec))
    builder.check("equivariance", _equivariance_check(spec, gens, bits, seed))
    return builder.seal()


# --------------------------------------------------------------------------
# rank pipeline


def make_rank_n_lcp(n: int, precision=None, seed: int = 0) -> LcpCertificate:
    """Certificate for a rank-n structure over the degree-(m-1)/2 field.

    Pipeline: commuting unit matrices, block decomposition, per-block
    similarity check, non-isometry of the distinguished block, metric
    assembly over an n-dimensional base, equivariance sampling, and the
    multiplicative rank of the flat-block ratio witnesses.
    """
    n = int(n)
    bits = validate_precision(default_precision() if precision is None else precision)
    builder = _Builder("ranklcp", {"n": n}, bits, int(seed))
    dm = make_dmatrix(n, bits)
    return _assemble_rank_certificate(builder, dm, n, bits, int(seed))


def _assemble_rank_certificate(builder, dm, n, bits, seed, notes=None):
    field = dm.field
    builder.section("field", _field_section(field, dm.exfield.modulus))
    builder.check("matrix_family", _matrix_family_check(dm.matrices))

    decomp = find_block_decomposition(list(dm.matrices), bits)
    emb = embeddings(field, bits)
    try:
        ratios = check_J1(decomp, list(dm.matrices))
    except CheckFailureError as exc:
        builder.section(
            "decomposition", _decomposition_section(decomp, [])
        )
        return builder.fail("J1", exc)
    ratios, block_emb = _witnessed_ratios(builder, decomp, emb, dm.units, ratios)
    builder.check("J1", {"verdict": True, "tolerance_bits": bits // 2})

    # distinguished block: the one carrying the defining embedding of the
    # generator (the largest real root)
    flat = block_emb.index(emb.count - 1)
    _flat_block_checks(builder, emb, ratios, flat, bits, n, n)

    with _at_prec(decomp.workbits):
        translations = []
        for l in range(n):
            v = [mp.mpf(0)] * n
            v[l] = mp.log(ratios.entries[l][flat])
            translations.append(tuple(v))
    spec = build_metric_spec(decomp, ratios, flat, translations)
    if notes:
        builder.section("notes", notes)
    labels = ["g%d" % (l + 1) for l in range(n)]
    return _seal_metric(
        builder, spec, ratios, labels, dm.matrices, translations, bits, seed
    )


# --------------------------------------------------------------------------
# worked rank-2 example


_RANK2_A1 = IntMatrix(((0, 0, 1), (1, 0, 2), (0, 1, -1)))
_RANK2_A2 = IntMatrix(((-2, 1, -1), (0, 0, -1), (1, -1, 1)))

_NOTE_ABS = (
    "The second translation unit is negative at the distinguished "
    "embedding; the base lattice uses the log of its absolute value, "
    "which leaves every similarity ratio unchanged."
)
_NOTE_WARP = (
    "Writing the warp factors as products of conjugate ratios raised to "
    "natural-log exponents does not satisfy the equivariance increments; "
    "the exponents must be rescaled by the reciprocal log of the "
    "corresponding translation unit. The functional coefficients recorded "
    "here come from an exact linear solve of the increment system."
)


def worked_rank2_example(precision=None, seed: int = 0) -> LcpCertificate:
    """Fully explicit rank-2 certificate with frozen golden values.

    Compares the two unit matrices and the distinguished exact
    eigenvector against their known closed forms before running the
    generic rank pipeline; any mismatch is a hard failure.
    """
    bits = validate_precision(default_precision() if precision is None else precision)
    builder = _Builder("worked-example", {}, bits, int(seed))
    dm = make_dmatrix(2, bits)
    if dm.matrices[0] != _RANK2_A1:
        raise CheckFailureError("golden comparison failed for the first unit matrix")
    if dm.matrices[1] != _RANK2_A2:
        raise CheckFailureError("golden comparison failed for the second unit matrix")
    field = dm.field
    alpha = field.gen()
    vec = eigen_solve(dm.matrices[0], alpha)
    if not vec[0]:
        raise CheckFailureError("golden comparison failed: eigenvector has zero lead")
    scaled = tuple(x * vec[0].inverse() for x in vec)
    expected = (field.one(), alpha + alpha * alpha, alpha)
    if scaled != expected:
        raise CheckFailureError("golden comparison failed for the eigenvector")
    cert = _assemble_rank_certificate(
        builder,
        dm,
        2,
        bits,
        int(seed),
        notes={"base_translation_absolute_value": _NOTE_ABS,
               "warp_coefficients": _NOTE_WARP},
    )
    # golden verdict goes in post-hoc: insert before sealing is cleaner,
    # but the comparisons above raise on mismatch, so reaching this point
    # certifies them
    cert.document["checks"]["golden"] = {
        "verdict": True,
        "items": ["A1", "A2", "x1"],
    }
    return cert


# --------------------------------------------------------------------------
# one expanding eigenline over a contracted complement


def make_kourganoff(q: int, a: IntMatrix, precision=None, seed: int = 0) -> LcpCertificate:
    """Certificate for the warped product over t -> lambda t.

    The matrix must lie in SL_{q+1}(Z) with a single expanding eigenline
    and a contracted complement on which it acts by one similarity ratio
    lambda; the warp along the one-dimensional base is t^(2q+2), checked
    exactly at rational sample points, and the metric functional derived
    from the increment system must reproduce the exponent.
    """
    q = int(q)
    if q not in (1, 2):
        raise InputError(
            "admissible warp powers are q = 1 and q = 2; got q = %d" % q
        )
    if not isinstance(a, IntMatrix):
        raise InputError("expected an integer matrix")
    if a.n != q + 1:
        raise InputError("matrix must be %d x %d for q = %d" % (q + 1, q + 1, q))
    if det(a) != 1:
        raise InputError("matrix must lie in SL(%d, Z)" % (q + 1))
    bits = validate_precision(default_precision() if precision is None else precision)
    seed = int(seed)
    builder = _Builder(
        "kourganoff", {"q": q, "matrix": matrix_to_json(a)}, bits, seed
    )

    decomp = find_block_decomposition([a], bits)
    try:
        ratios = check_J1(decomp, [a])
    except CheckFailureError as exc:
        return builder.fail("J1", exc)
    builder.check("J1", {"verdict": True, "tolerance_bits": bits // 2})

    tol = tolerance(bits)
    entries = ratios.entries[0]
    with _at_prec(decomp.workbits):
        expanding = [k for k in range(decomp.delta) if entries[k] > 1 + tol]
        contracting = [k for k in range(decomp.delta) if entries[k] < 1 - tol]
        if (
            len(expanding) != 1
            or decomp.blocks[expanding[0]][1] != 1
            or len(expanding) + len(contracting) != decomp.delta
        ):
            raise StructureError(
                "spectral hypothesis fails: need one expanding eigenline "
                "and a contracted complement"
            )
        lam = entries[contracting[0]]
        for k in contracting[1:]:
            if abs(entries[k] - lam) > 8 * tol:
                raise StructureError(
                    "spectral hypothesis fails: the contracted complement "
                    "does not act by a single similarity ratio"
                )
    up = expanding[0]
    flat = contracting[0]

    # exact algebraic data for the eigenvalues
    cpoly = char_poly(a)
    try:
        field = field_new(cpoly)
    except InputError as exc:
        raise StructureError(
            "exact warp check needs an irreducible characteristic "
            "polynomial: %s" % exc
        ) from exc
    lam_elem = field.gen()
    require_unit(lam_elem, "eigenvalue")
    emb = embeddings(field, bits)
    builder.section("field", _field_section(field))
    ratios, _ = _witnessed_ratios(builder, decomp, emb, [lam_elem], ratios)

    builder.check(
        "spectral",
        {
            "verdict": True,
            "expanding_block": up,
            "contracting_blocks": contracting,
            "ratio": enc_float(lam, decomp.workbits),
        },
    )

    # the warp identity (lambda t)^(2q+2) = lambda^(2q+2) t^(2q+2) in exact
    # field arithmetic at rational sample points
    power = 2 * q + 2
    lam_power = lam_elem ** power
    exact_ok = True
    for i in range(1, WARP_SAMPLE_POINTS + 1):
        t = field.from_rational(Fraction(i, 7) + 1)
        if (lam_elem * t) ** power != lam_power * t ** power:
            exact_ok = False
            break

    _flat_block_checks(builder, emb, ratios, flat, bits, 1, 1)

    with _at_prec(decomp.workbits):
        translations = [(mp.log(lam),)]
    spec = build_metric_spec(decomp, ratios, flat, translations)
    with _at_prec(decomp.workbits):
        coeff = spec.functionals[up].coeffs[0]
        coeff_ok = abs(coeff - (q + 1)) <= 8 * tol
    builder.check(
        "warp",
        {
            "power": power,
            "exact_points": WARP_SAMPLE_POINTS,
            "exact_identity": bool(exact_ok),
            "functional_coeff": enc_float(coeff, decomp.workbits),
            "coeff_matches_power": bool(coeff_ok),
            "verdict": bool(exact_ok and coeff_ok),
        },
    )

    return _seal_metric(
        builder, spec, ratios, ["kourganoff"], [a], translations, bits, seed
    )


# --------------------------------------------------------------------------
# unit lattice quotients of mixed-signature fields


class OtData:
    """Unit action data for a field with both real and complex places."""

    __slots__ = (
        "field",
        "signature",
        "units",
        "squared",
        "log_projection",
        "matrices",
        "block_form",
    )

    def __init__(self, field, signature, units, squared, log_projection,
                 matrices, block_form):
        self.field = field
        self.signature = tuple(signature)
        self.units = tuple(units)
        self.squared = tuple(squared)
        self.log_projection = tuple(tuple(v) for v in log_projection)
        self.matrices = tuple(matrices)
        self.block_form = block_form


def _certified_real_sign(field, u, index, bits):
    """Sign of a real embedding, escalating once if the enclosure is wide."""
    for level in (bits, 2 * bits):
        if level > MAX_PRECISION:
            break
        emb = embeddings(field, level)
        enc = emb.embed_enclosure(u, index)
        with _at_prec(emb.workbits):
            if mp.mpf(enc.b) < 0:
                return -1
            if mp.mpf(enc.a) > 0:
                return 1
    raise PrecisionError(
        "could not certify the sign of a real embedding at %d bits" % bits
    )


def make_ot(minpoly: IntPoly, unit_exprs, precision=None, seed: int = 0,
            lck: bool = False):
    """Unit-lattice pipeline for a field with signature (s, t), s, t >= 1.

    Units are made totally positive at the real places by squaring where
    needed (recorded), their multiplication matrices are checked to act
    with s real scalings and t rotation-scaling planes, the projected log
    lattice must have full rank s, and the metric is assembled over an
    s-dimensional base.  With lck=True (t must be 1) the flat block is
    the rotation plane and the real blocks are pairwise coupled.

    Returns (OtData, LcpCertificate).
    """
    field = field_new(minpoly)
    s, t = field.signature
    if t == 0:
        raise InputError("not an OT field: every embedding is real (t = 0)")
    if s == 0:
        raise InputError("not an OT field: no real embedding (s = 0)")
    units_in = list(unit_exprs)
    if not units_in:
        raise InputError("need at least one unit generator")
    for u in units_in:
        if not isinstance(u, FieldElem) or u.field != field:
            raise InputError("unit generators must be elements of the field")
        require_unit(u, "unit generator")
    if lck and t != 1:
        raise InputError("the LCK preset needs exactly one complex place")
    bits = validate_precision(default_precision() if precision is None else precision)
    seed = int(seed)
    builder = _Builder(
        "ot",
        {
            "minpoly": poly_to_json(minpoly),
            "units": [u.to_json() for u in units_in],
            "lck": bool(lck),
        },
        bits,
        seed,
    )
    builder.section("field", _field_section(field))

    units, squared = [], []
    for u in units_in:
        negative = any(
            _certified_real_sign(field, u, i, bits) < 0 for i in range(s)
        )
        units.append(u * u if negative else u)
        squared.append(bool(negative))
    builder.check(
        "positivity",
        {
            "verdict": all(
                _certified_real_sign(field, u, i, bits) > 0
                for u in units
                for i in range(s)
            ),
            "squared": list(squared),
        },
    )

    matrices = [mult_matrix(u) for u in units]
    builder.check("matrix_family", _matrix_family_check(matrices))

    # full-lattice condition on the projected unit logs; this is a
    # precondition for the quotient construction, so its failure is fatal
    projected_rank = projected_log_rank(field, units, range(s), bits)
    if projected_rank < s:
        raise CheckFailureError(
            "projected unit lattice has rank %d < %d; not a full lattice"
            % (projected_rank, s)
        )
    builder.check(
        "full_lattice", {"verdict": True, "rank": projected_rank, "expected": s}
    )

    decomp = find_block_decomposition(matrices, bits)
    emb = embeddings(field, bits)
    try:
        ratios = check_J1(decomp, matrices)
    except CheckFailureError as exc:
        builder.section("decomposition", _decomposition_section(decomp, []))
        return None, builder.fail("J1", exc)
    ratios, block_emb = _witnessed_ratios(builder, decomp, emb, units, ratios)
    builder.check("J1", {"verdict": True, "tolerance_bits": bits // 2})

    sizes = [size for _, size in decomp.blocks]
    real_blocks = [k for k, size in enumerate(sizes) if size == 1]
    plane_blocks = [k for k, size in enumerate(sizes) if size == 2]
    block_form_ok = len(real_blocks) == s and len(plane_blocks) == t
    block_form = {
        "verdict": bool(block_form_ok),
        "real_scalings": len(real_blocks),
        "rotation_planes": len(plane_blocks),
        "expected": [s, t],
    }
    builder.check("block_form", block_form)
    if not block_form_ok:
        return None, builder.seal()

    # absolute norm of every unit generator is 1 up to sign: the weighted
    # log coordinates must sum to zero
    tol = tolerance(bits)
    log_rows = []
    norm_reports = []
    norms_ok = True
    with _at_prec(emb.workbits):
        for idx, u in enumerate(units):
            row = log_vector(emb, u)
            log_rows.append(row)
            residual = abs(mp.exp(mp.fsum(row)) - 1)
            ok = residual < tol
            norms_ok = norms_ok and ok
            norm_reports.append(
                {
                    "unit": idx,
                    "residual": enc_float(residual, emb.workbits),
                    "verdict": bool(ok),
                }
            )
    builder.check("norm_product", {"verdict": bool(norms_ok), "units": norm_reports})

    if lck:
        flat = block_emb.index(s)
    else:
        flat = block_emb.index(0)
    _flat_block_checks(builder, emb, ratios, flat, bits, len(units), s)

    translations = [tuple(row[:s]) for row in log_rows]
    spec = build_metric_spec(decomp, ratios, flat, translations)
    if lck:
        pairs = list(itertools.combinations(real_blocks, 2))
        if pairs:
            spec = add_cross_terms(spec, pairs)
    labels = ["u%d" % (idx + 1) for idx in range(len(units))]
    cert = _seal_metric(
        builder, spec, ratios, labels, matrices, translations, bits, seed
    )

    data = OtData(
        field,
        (s, t),
        units,
        squared,
        [[x for x in v] for v in translations],
        matrices,
        block_form,
    )
    return data, cert


# --------------------------------------------------------------------------
# dispatch and re-verification


def run_pipeline(name: str, parameters: dict, precision=None,
                 seed: int = 0) -> LcpCertificate:
    """Run a named pipeline from its JSON-ready parameter mapping."""
    if name == "ranklcp":
        return make_rank_n_lcp(int(parameters["n"]), precision, seed)
    if name == "worked-example":
        return worked_rank2_example(precision, seed)
    if name == "kourganoff":
        return make_kourganoff(
            int(parameters["q"]), matrix_from_json(parameters["matrix"]),
            precision, seed,
        )
    if name == "ot":
        minpoly = poly_from_json(parameters["minpoly"])
        field = field_new(minpoly)
        units = [elem_from_json(field, coords) for coords in parameters["units"]]
        _, cert = make_ot(
            minpoly, units, precision, seed, lck=bool(parameters.get("lck"))
        )
        return cert
    raise InputError("unknown pipeline %r" % name)


def verify_certificate(cert: LcpCertificate, precision=None) -> dict:
    """Re-run a certificate's pipeline and compare the verdicts.

    At the certificate's own precision the rebuilt document must be byte
    identical; at any other precision only the verdicts are compared.
    """
    doc = cert.document
    stored_bits = int(doc["precision_bits"])
    bits = stored_bits if precision is None else validate_precision(precision)
    fresh = run_pipeline(doc["pipeline"], doc["parameters"], bits, doc["seed"])
    stored_verdicts = collect_verdicts(doc["checks"])
    fresh_verdicts = collect_verdicts(fresh.checks)
    mismatches = [
        path
        for path in sorted(set(stored_verdicts) | set(fresh_verdicts))
        if stored_verdicts.get(path) != fresh_verdicts.get(path)
    ]
    if doc["verdict"] != fresh.verdict:
        mismatches.append("verdict")
    bit_identical = None
    if bits == stored_bits:
        bit_identical = canonical_json(fresh.document) == canonical_json(doc)
    reproduced = not mismatches and bit_identical is not False
    return {
        "reproduced": reproduced,
        "bit_identical": bit_identical,
        "verdict": fresh.verdict,
        "mismatches": mismatches,
        "precision_bits": bits,
    }
