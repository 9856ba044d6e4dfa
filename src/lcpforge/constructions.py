"""End-to-end pipelines: cyclic totally real fields, commuting unit
matrices, rank-n structures, warped-product families over one expanding
map, and unit-lattice quotients of number fields with mixed signature.

Each pipeline runs its verification checks in a fixed order and seals the
results into an LcpCertificate.  Construction errors (bad input, broken
structural hypotheses) raise; verification failures produce a FAILED
certificate naming the first failing check, except where a mismatch is
specified as a hard failure.

The pipelines take the exact decisions and fix the order of the checks;
every float and literal that a section or check payload seals is made in
schema1, so this module imports no mpmath.
"""

import itertools
from fractions import Fraction

from . import __version__, schema1
from .certio import (
    LcpCertificate,
    SCHEMA_VERSION,
    collect_verdicts,
    canonical_json,
)
from .embeddings import (
    default_precision,
    embeddings,
    log_vector,
    multiplicative_rank,
    projected_log_rank,
    validate_precision,
    verify_ratio_witness,
)
from .errors import (
    CheckFailureError,
    InputError,
    NeedsEscalation,
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
    _over_common_denominator,
)
from .polynomials import (
    IntPoly,
    as_int,
    is_prime,
    isolate_real_roots,
    minpoly_from_traces,
    poly_from_json,
    poly_to_json,
    rat_to_json,
    sign_at,
    sturm_chain,
    trace_polys,
)


# --------------------------------------------------------------------------
# field and matrix families


class ExField:
    """Cyclic totally real field built from a prime modulus, and the trace
    polynomials trace_polys(degree) it was read off; no Galois generator:
    make_dmatrix reads sigma's residue off them (galois_generator)."""

    __slots__ = ("field", "modulus", "traces")

    def __init__(self, field: NumberField, modulus: int, traces):
        self.field = field
        self.modulus = modulus
        self.traces = traces


def make_exfield(n: int) -> ExField:
    """Smallest-prime cyclic totally real field of degree at least n + 1.

    Takes the first prime m >= 2n + 3 and the minimal polynomial of the
    largest real root of the m-th cyclotomic polynomial; the degree is
    (m - 1) / 2.
    """
    return _exfield(_conductor(_int_param("n", n)))


def _int_param(name: str, value) -> int:
    """value read through as_int; 1.9, "1" and other non-integers raise
    InputError naming the parameter rather than being truncated."""
    try:
        return as_int(value)
    except InputError:
        raise InputError("%s must be an integer, got %r" % (name, value)) from None


def _conductor(n: int, rank: int = 0) -> int:
    """The first prime m >= 2n + 3 whose Galois orbit has rank >= rank;
    the real subfield then has degree (m - 1)/2 >= n + 1."""
    if n < 1:
        raise InputError("rank parameter must be a positive integer")
    m = 2 * n + 3
    while not (is_prime(m) and (not rank or _orbit_rank(m) >= rank)):
        m += 1
    return m


def _exfield(m: int) -> ExField:
    """The field of make_exfield and its trace polynomials, from one
    trace-polynomial pass; no Galois generator is derived.

    The polynomial is irreducible, so field_new's heuristic is not run, and
    its roots 2cos(2*pi*k/m), k = 1..d, are real and distinct, so the
    signature is (d, 0) with no Sturm chain.
    """
    cs = trace_polys((m - 1) // 2)
    field = NumberField._totally_real(
        minpoly_from_traces(cs),
        "minimal polynomial of 2cos(2*pi/%d): degree [Q(zeta_m)^+ : Q]" % m,
    )
    return ExField(field, m, cs)


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

    A generator sigma of the Galois group permutes the real places, so the
    log vectors obey L(sigma x) = P L(x) for a permutation matrix P.  The
    orbit's log vectors v, Pv, P^2 v, ... span a Krylov space: the span of
    the first j of them grows by one with each j until it stops for good at
    this rank R, so a prefix of n of them has rank min(n, R).
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


def make_dmatrix(n: int) -> DMatrixData:
    """n commuting matrices in GL_p(Z) whose common eigenvector carries a
    multiplicatively independent family of unit eigenvalues.

    The field is that of make_exfield, except that the conductor is the
    first prime m >= 2n + 3 whose full Galois orbit has rank at least n
    (_orbit_rank); for every n whose first prime passes, that is the first
    prime.  The units are the Galois orbit prefix alpha, sigma(alpha), ...,
    sigma^(n-1)(alpha) of the field generator alpha = 2cos(2*pi/m), a
    cyclotomic unit, read off the trace polynomials that the field was
    built from (ExField.traces), sigma = sigma_g carried as its residue g:
    sigma^k(alpha) = c_r(alpha) with r = g^k mod m, and c_r = c_(m-r).
    sigma permutes the real places, so their log vectors
    span a Krylov space of the place permutation, and a prefix of n of them
    has rank min(n, R) with R the orbit rank (_orbit_rank); R >= n by the
    choice of m, so the rank is n without any numeric work.  Each unit
    becomes its exact multiplication matrix in the power basis
    (numberfield.mult_matrix); these commute because M_u M_v = M_uv, and
    the pipelines decide exactly that they lie in GL(p, Z).
    """
    n = _int_param("n", n)
    ex = _exfield(_conductor(n, n))
    m, cs = ex.modulus, ex.traces
    g = galois_generator(ex.field, cs)
    residues = [pow(g, k, m) for k in range(n)]
    units = [ex.field.from_int_poly(cs[min(r, m - r)]) for r in residues]
    return DMatrixData(ex, units, [mult_matrix(u) for u in units])


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


# --------------------------------------------------------------------------
# certificate assembly


def _document(pipeline, parameters, seed, **fields):
    """The header every certificate and field report opens with, and fields."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "lcpforge", "version": __version__},
        "pipeline": pipeline,
        "parameters": parameters,
        "seed": seed,
        **fields,
    }


class _Builder:
    def __init__(self, pipeline, parameters, bits, seed):
        self.doc = _document(pipeline, parameters, seed, precision_bits=bits, checks={},
                             verdict="PASS", failed_check=None)

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

    def seal(self) -> LcpCertificate:
        return LcpCertificate(self.doc)


def _field_section(field, modulus=None):
    payload = {
        "minpoly": poly_to_json(field.minpoly),
        "degree": field.degree,
        "signature": list(field.signature),
    }
    if modulus is not None:
        payload["modulus"] = int(modulus)
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


def _unit_ratio_check(ratios, orbit=()):
    """Exact unit-ness of every ratio witness; a non-unit is recorded as
    neither a unit nor witnessed, not raised.  The places come from
    _match_block_embeddings, which has already certified each ratio against
    its witnessed embedding modulus, so a unit witness is witnessed.  The
    witness of entry (j, k) is (units[j], places[k]), so each generator's
    unit is decided once and its entry is written for every block.

    orbit holds Galois conjugates of the field generator.  The minimal
    polynomial of such a unit is the field polynomial, so its constant
    and its unit-ness (monic with constant +-1, as is_unit decides) are
    read off that polynomial; every other unit is derived."""
    rows = []
    for u in ratios.units:
        if u in orbit:
            mpoly = u.field.minpoly
            witnessed = mpoly.is_monic() and abs(mpoly.constant()) == 1
        else:
            witnessed = is_unit(u)
            mpoly = minimal_polynomial(u)
        # the constant of the monic minimal polynomial
        entry = {
            "minpoly_constant": rat_to_json(Fraction(mpoly.constant(), mpoly.leading())),
            "unit": witnessed,
            "witnessed": witnessed,
            "verdict": witnessed,
        }
        rows.append([dict(entry) for _ in range(ratios.delta)])
    return {"verdict": all(row[0]["verdict"] for row in rows), "entries": rows}


def _dirichlet_check(field, tested_rank):
    bound = dirichlet_rank_bound(field)
    return {
        "bound": int(bound),
        "tested_rank": int(tested_rank),
        "verdict": tested_rank <= bound,
    }


def _witnessed_ratios(builder, emb, units, ratios):
    """Match blocks to embeddings, record the decomposition section and the
    J1 check, which check_J1 passed when it returned the ratios, and
    return the ratios witnessed by units and the matched places."""
    decomp = ratios.decomposition
    places = _match_block_embeddings(emb, units, ratios)
    builder.section("decomposition", schema1.decomposition_section(decomp, places))
    builder.check("J1", schema1.j1_check(decomp.precision_bits))
    return ratios.with_witnesses(units, places)


def _flat_block_checks(builder, emb, ratios, flat, tested_rank, expected_rank, orbit=()):
    """J2, unit_ratios, dirichlet and rank, in that order; orbit is as in
    _unit_ratio_check."""
    j2 = check_J2(ratios, flat)
    builder.check("J2", {"verdict": bool(j2), "flat_block": flat})
    builder.check("unit_ratios", _unit_ratio_check(ratios, orbit))
    builder.check("dirichlet", _dirichlet_check(emb.field, tested_rank))
    bits = ratios.decomposition.precision_bits
    builder.check("rank", schema1.rank_check(lcp_rank(ratios, flat), expected_rank, bits))


def _seal_metric(builder, spec, labels, seed):
    """The generators section, one label per generator of spec, the metric
    section, the equivariance check, then the sealed certificate."""
    builder.section("generators", schema1.generators_section(spec, labels))
    builder.section("metric", schema1.metric_section(spec))
    results = verify_equivariance(spec, seed)
    builder.check("equivariance", schema1.equivariance_check(spec, labels, seed, results))
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
    n, seed = _int_param("n", n), _int_param("seed", seed)
    bits = validate_precision(default_precision() if precision is None else precision)
    builder = _Builder("ranklcp", {"n": n}, bits, seed)
    dm = make_dmatrix(n)
    return _assemble_rank_certificate(builder, dm, n, bits, seed)


def _assemble_rank_certificate(builder, dm, n, bits, seed, notes=None):
    field = dm.field
    builder.section("field", _field_section(field, dm.exfield.modulus))
    builder.check("matrix_family", _matrix_family_check(dm.matrices))

    decomp = find_block_decomposition(list(dm.matrices), bits)
    emb = embeddings(field, bits)
    ratios = _witnessed_ratios(builder, emb, dm.units, check_J1(decomp, list(dm.matrices)))

    # distinguished block: the one carrying the defining embedding of the
    # generator (the largest real root)
    flat = ratios.places.index(emb.count - 1)
    # the units are the generator's Galois orbit prefix (make_dmatrix)
    _flat_block_checks(builder, emb, ratios, flat, n, n, frozenset(dm.units))

    spec = build_metric_spec(ratios, flat, schema1.log_ratio_translations(ratios, flat))
    if notes:
        builder.section("notes", notes)
    return _seal_metric(builder, spec, ["g%d" % (l + 1) for l in range(n)], seed)


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
    seed = _int_param("seed", seed)
    bits = validate_precision(default_precision() if precision is None else precision)
    builder = _Builder("worked-example", {}, bits, seed)
    dm = make_dmatrix(2)
    if dm.matrices[0] != _RANK2_A1:
        raise CheckFailureError("golden comparison failed for the first unit matrix")
    if dm.matrices[1] != _RANK2_A2:
        raise CheckFailureError("golden comparison failed for the second unit matrix")
    field = dm.field
    alpha = field.gen()
    vec = eigen_solve(dm.matrices[0], alpha)
    if not vec[0]:
        raise CheckFailureError("golden comparison failed: eigenvector has zero lead")
    # eigen_solve has scaled the first nonzero coordinate to one
    if vec != (field.one(), alpha + alpha * alpha, alpha):
        raise CheckFailureError("golden comparison failed for the eigenvector")
    builder.check("golden", {"verdict": True, "items": ["A1", "A2", "x1"]})
    return _assemble_rank_certificate(
        builder,
        dm,
        2,
        bits,
        seed,
        notes={"base_translation_absolute_value": _NOTE_ABS,
               "warp_coefficients": _NOTE_WARP},
    )


# --------------------------------------------------------------------------
# one expanding eigenline over a contracted complement


def make_kourganoff(q: int, a: IntMatrix, precision=None, seed: int = 0) -> LcpCertificate:
    """Certificate for the warped product over t -> lambda t.

    The matrix must lie in SL_{q+1}(Z) with a single expanding eigenline
    and a contracted complement on which it acts by one similarity ratio
    lambda, decided by the Sturm chain of its characteristic polynomial;
    the warp along the one-dimensional base is t^(2q+2), and the metric
    functional solved from the increment system has coefficient q + 1.
    """
    q = _int_param("q", q)
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
    seed = _int_param("seed", seed)
    builder = _Builder(
        "kourganoff", {"q": q, "matrix": matrix_to_json(a)}, bits, seed
    )

    decomp = find_block_decomposition([a], bits)
    ratios = check_J1(decomp, [a])

    # the decomposition split a along its squarefree characteristic
    # polynomial: blocks 0..real-1 are its real roots, descending, and
    # det a = 1 decides the rest.  q = 1: roots r and 1/r, one in [-1, 1].
    # q = 2: a real root mu outside [-1, 1] and a complex pair of modulus
    # mu^(-1/2); three real roots cannot share one contracting ratio.  With
    # these counts -1 is no root, so (-1, 1] counts the roots in [-1, 1].
    cpoly = char_poly(a)
    chain = sturm_chain(cpoly)
    real = chain.count_all()
    if (real, chain.count_in(-1, 1)) != ((2, 1) if q == 1 else (1, 0)):
        raise StructureError(
            "spectral hypothesis fails: need one expanding eigenline "
            "and a contracted complement acted on by a single similarity ratio"
        )
    up = 0 if chain.variations_at(1) > chain.variations_at_pos_inf() else real - 1
    contracting = [k for k in range(decomp.delta) if k != up]
    flat = contracting[0]

    # exact algebraic data for the eigenvalues; chi is irreducible, as a
    # rational root would be +-1 and no passing chi has one
    field = field_new(cpoly)
    lam_elem = field.gen()
    require_unit(lam_elem, "eigenvalue")
    emb = embeddings(field, bits)
    builder.section("field", _field_section(field))
    ratios = _witnessed_ratios(builder, emb, [lam_elem], ratios)

    builder.check("spectral", schema1.spectral_check(ratios, up, contracting))

    _flat_block_checks(builder, emb, ratios, flat, 1, 1)

    spec = build_metric_spec(ratios, flat, schema1.log_ratio_translations(ratios, flat))
    builder.check("warp", schema1.warp_check(spec, q, up))
    return _seal_metric(builder, spec, ["kourganoff"], seed)


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


def _real_sign(f, interval, u):
    """Sign of u = g(r) at the real root r of f in the isolating interval
    (lo, hi], decided exactly.

    g is taken as a positive integer multiple, which has u's sign.  The
    interval is bisected until g's Sturm chain counts no root in it; g then
    keeps one sign on (lo, hi], read at hi.  u is a unit, so g(r) is not
    zero, and f is irreducible of degree at least 3 in an OT field, so no
    dyadic point is a root of f.
    """
    g = IntPoly(_over_common_denominator(u.coords)[0])
    chain = sturm_chain(g)
    lo, hi = interval
    while chain.count_in(lo, hi):
        mid = (lo + hi) / 2
        if sign_at(f, mid) == sign_at(f, hi):
            hi = mid
        else:
            lo = mid
    return sign_at(g, hi)


def make_ot(minpoly: IntPoly, unit_exprs, precision=None, seed: int = 0,
            lck: bool = False):
    """Unit-lattice pipeline for a field with signature (s, t), s, t >= 1.

    Units are made totally positive at the real places by squaring where
    needed (recorded), their multiplication matrices act with s real
    scalings and t rotation-scaling planes, the projected log
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
    seed = _int_param("seed", seed)
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

    # a unit left as it is has sign +1 at every real place, and a square
    # of a nonzero real is positive, so each sign is decided once
    intervals = isolate_real_roots(field.minpoly)
    units, squared = [], []
    for u in units_in:
        negative = any(_real_sign(field.minpoly, r, u) < 0 for r in intervals)
        units.append(u * u if negative else u)
        squared.append(bool(negative))
    builder.check("positivity", {"verdict": True, "squared": list(squared)})

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
    # units of multiplicative rank above s project to a subgroup of R^s of
    # rank above s, which is no lattice; the rank check reads this proof
    # back from _stable_rank's cache
    if len(units) > s:
        rank = multiplicative_rank(field, units, bits)
        if rank > s:
            raise CheckFailureError(
                "full_lattice: the units have multiplicative rank %d > %d, so "
                "their projected logs generate no lattice" % (rank, s)
            )
    builder.check(
        "full_lattice", {"verdict": True, "rank": projected_rank, "expected": s}
    )

    decomp = find_block_decomposition(matrices, bits)
    emb = embeddings(field, bits)
    ratios = _witnessed_ratios(builder, emb, units, check_J1(decomp, matrices))

    # a squarefree splitter is M_beta, beta primitive, so its blocks are (s, t)
    real_blocks = [k for k, (_, size) in enumerate(decomp.blocks) if size == 1]
    block_form = {
        "verdict": True,
        "real_scalings": s,
        "rotation_planes": t,
        "expected": [s, t],
    }
    builder.check("block_form", block_form)

    # the log embedding gives the base translations; the absolute norm of
    # every unit is 1 up to sign, so its weighted log coordinates sum to zero
    try:
        log_rows = [log_vector(emb, u) for u in units]
    except NeedsEscalation as exc:
        raise PrecisionError(
            "norm_product: log embedding not certified at %d bits: %s" % (bits, exc)
        ) from None
    builder.check("norm_product", schema1.norm_product_check(emb, log_rows))

    flat = ratios.places.index(s if lck else 0)
    _flat_block_checks(builder, emb, ratios, flat, len(units), s)

    translations = [tuple(row[:s]) for row in log_rows]
    spec = build_metric_spec(ratios, flat, translations)
    if lck:
        pairs = list(itertools.combinations(real_blocks, 2))
        if pairs:
            spec = add_cross_terms(spec, pairs)
    cert = _seal_metric(builder, spec, ["u%d" % (idx + 1) for idx in range(len(units))], seed)

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


def _stored(mapping, key, read, prefix=""):
    """read(mapping[key]), the stored certificate field prefix + key; a
    missing or unreadable value raises InputError naming the field."""
    name = prefix + key
    if key not in mapping:
        raise InputError("certificate field %s is missing" % name)
    try:
        return read(mapping[key])
    except (TypeError, ValueError) as exc:
        raise InputError("certificate field %s is malformed: %s" % (name, exc)) from None


def _exactly(kind):
    """A reader of stored values of exactly this JSON type: an integer
    field refuses 1.7, "1" and true, and a boolean one refuses 1."""

    def read(value):
        if type(value) is not kind:
            raise ValueError("expected %s, got %r" % (kind.__name__, value))
        return value

    return read


def field_report(name: str, parameters: dict, seed: int = 0) -> dict:
    """The exfield or dmatrix report document from its parameter mapping
    {"n": n}: the field of make_exfield(n), or the field, units and
    matrices of make_dmatrix(n)."""
    n = _stored(parameters, "n", _exactly(int), "parameters.")
    if name == "exfield":
        ex = make_exfield(n)
        return _document(name, {"n": n}, seed, field=_field_section(ex.field, ex.modulus),
                         verdict="PASS")
    if name == "dmatrix":
        dm = make_dmatrix(n)
        return _document(
            name, {"n": n}, seed,
            field=_field_section(dm.field, dm.exfield.modulus),
            units=[u.to_json() for u in dm.units],
            matrices=[matrix_to_json(m) for m in dm.matrices],
            multiplicative_rank=len(dm.units),
            verdict="PASS",
        )
    raise InputError("unknown field report %r" % name)


def run_pipeline(name: str, parameters: dict, precision=None,
                 seed: int = 0) -> LcpCertificate:
    """Run a named pipeline from its JSON-ready parameter mapping.

    Every parameter is read before the pipeline starts; a missing or
    malformed one raises InputError naming it.  The CLI builds every
    certificate here, and verify_certificate rebuilds one here.
    """
    if not isinstance(parameters, dict):
        raise InputError("certificate field parameters is not an object")

    def param(key, read):
        return _stored(parameters, key, read, "parameters.")

    if name == "ranklcp":
        return make_rank_n_lcp(param("n", _exactly(int)), precision, seed)
    if name == "worked-example":
        return worked_rank2_example(precision, seed)
    if name == "kourganoff":
        q, matrix = param("q", _exactly(int)), param("matrix", matrix_from_json)
        return make_kourganoff(q, matrix, precision, seed)
    if name == "ot":
        minpoly = param("minpoly", poly_from_json)
        field = field_new(minpoly)
        units = param("units", lambda rows: [elem_from_json(field, c) for c in rows])
        lck = param("lck", _exactly(bool))
        _, cert = make_ot(minpoly, units, precision, seed, lck=lck)
        return cert
    raise InputError("unknown pipeline %r" % name)


def verify_certificate(cert: LcpCertificate, precision=None) -> dict:
    """Re-run a certificate's pipeline and compare the verdicts.

    At the certificate's own precision the rebuilt document must be byte
    identical; at any other precision only the verdicts are compared.
    """
    doc = cert.document
    stored_bits = _stored(doc, "precision_bits", _exactly(int))
    seed = _stored(doc, "seed", _exactly(int))
    bits = stored_bits if precision is None else validate_precision(precision)
    fresh = run_pipeline(doc["pipeline"], doc["parameters"], bits, seed)
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
