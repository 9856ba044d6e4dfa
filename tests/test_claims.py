"""A document-only oracle for the claims of a schema-1 certificate.

Each corpus certificate is read as plain JSON and its claims are decided
again with sympy and mpmath, by code that shares nothing with lcpforge:
this module imports no lcpforge module, so a defect in a builder cannot
reproduce itself here.

  claim                what is decided                    from the fields
  -------------------  ---------------------------------  --------------------------------
  irreducible          the field polynomial f is          field.minpoly (ascending)
                       irreducible over Q
  signature            degree and (r1, r2) equal f's:     field.degree, field.signature
                       r1 real roots counted exactly
  integral             every generator matrix has         generators[j].matrix
                       integer entries
  unimodular           det A_j = +-1                      generators[j].matrix
  commute              A_i A_j = A_j A_i                  generators[j].matrix
  char_poly_constants  the sealed constant of A_j's       checks.matrix_family
                       characteristic polynomial is
                       (-1)^p det A_j
  unit_norms           every witness element u is a unit: generators[j].witnesses[k].element
                       N(u) = Res(f, u) = +-1 for monic f
  dirichlet            the sealed bound is r1 + r2 - 1    checks.dirichlet.bound
  ratios               ratio_row[k] of generator j is     generators[j].ratio_row,
                       |sigma_i(u)|^e for its witness     generators[j].witnesses,
                       (u, e) at place i = block k's      decomposition.block_embeddings
  translations         the metric's translations are the  metric.translations,
                       generators' base translations      generators[j].base_translation
  increments           c . v_j is ln(L1/Lk) for block k's metric.functionals,
                       functional, ln L1 for the base's   metric.base_conformal,
                       and ln(L1/sqrt(Lk Lk')) for a      metric.cross_terms,
                       cross term's, L = |sigma(u_j)|     generators[j].base_translation
  J2                   J2's flat block is the metric's,   checks.J2, metric.flat_block,
                       and its verdict says whether some  generators[j].witnesses,
                       flat-block witness u has           decomposition.block_embeddings
                       |sigma(u)| off 1, decided exactly:
                       at a real place u is not +-1; at
                       a complex place u's minimal
                       polynomial is not +- its own
                       reciprocal (off 1) or is
                       cyclotomic (on 1)
  incomplete           h is incomplete: the base factor   metric.base_conformal,
                       exp(2 c . x) has c != 0, read      generators[j].witnesses,
                       exactly off the sealed decimals,   decomposition.block_embeddings
                       and some flat-block witness has
                       |sigma(u)| off 1, decided as J2
                       decides it (the increments
                       c . v_j = ln L1 tie the two).
                       Cross terms couple fiber blocks
                       only, so at a fixed fiber point
                       the base ray x(t) = -t c / |c|,
                       t >= 0, has length the integral
                       of exp(-t |c|), 1/|c|, and leaves
                       every compact set
  rank_minor           some minor of the log matrix       checks.rank.value,
                       log|sigma_i(u)|^e of the           generators[j].witnesses,
                       witnesses, of the sealed rank's    decomposition.block_embeddings
                       size, exceeds the tolerance
  leakage              basis^-1 A_j basis is below the    decomposition.basis,
                       tolerance off the blocks           decomposition.blocks,
                                                          generators[j].matrix
  equivariance         the sealed verdicts say whether    checks.equivariance,
                       C_j^T h(x + v_j) C_j = L1^2 h(x)   decomposition.basis,
                       at fresh seeded base points x,     generators[j].matrix,
                       C_j = basis^-1 A_j basis and h     generators[j].base_translation,
                       the metric the functionals, base   generators[j].ratio_row,
                       factor and cross terms define      metric.functionals,
                                                          metric.base_conformal,
                                                          metric.cross_terms
  epsilon              the metric h, each cross term at   metric.translations,
                       its sealed epsilon, is positive    metric.functionals,
                       definite at every point of the     metric.base_conformal,
                       scale search's grid: each pivot    metric.cross_terms,
                       of its elimination exceeds the     decomposition.blocks
                       tolerance
  epsilon_domain       h is positive definite on the      metric.translations,
                       whole fundamental domain {sum of   metric.functionals,
                       t_j v_j : t in [0, 1]^g}: each     metric.base_conformal,
                       pivot's lower bound over the       metric.cross_terms,
                       domain exceeds the tolerance.      decomposition.blocks
                       Cross terms couple disjoint pairs
                       of one-dimensional non-flat
                       blocks k, k' (else not decided,
                       and refused),
                       so the pivots are the diagonal
                       exp(2 c . x) off the pairs, and
                       exp(2 c_k . x) then exp(2 c_k' .
                       x) (1 - eps^2 exp(2 d . x)) on a
                       pair, d = 2 c_c - c_k - c_k'; a
                       linear form c . x on the domain
                       lies between the sums of the
                       negative and of the positive
                       c . v_j

J2, incomplete and the claims above them are exact.  The numeric claims, ratios,
translations, increments, rank_minor, leakage, equivariance, epsilon and
epsilon_domain, are decided at 2b + 64 bits, b the certificate's precision,
against its tolerance 2**-tolerance_bits (checks.J1).  The places are the roots of f from
mpmath's polyroots: its r1 real roots ascending, then the upper root of
each complex pair, ordered by real and then imaginary part.  A witness's
minimal polynomial is the one irreducible factor of its characteristic
polynomial Res_y(f(y), x - u(y)).  J2 at a complex place whose witness
polynomial is its own reciprocal up to sign and not cyclotomic is not
decided, and is refused.  The equivariance residual is relative to the
largest entry of L1^2 h(x), as the sealed max_residual is; the points are
drawn here, not read from the certificate's seed.  The scale search's grid
weights translation j by (2c + 1)/20 for each of 10 cells c, every
combination of cells once.
"""

import copy
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import sympy

DATA = Path(__file__).resolve().parent / "data"
CORPUS = sorted(DATA.glob("*.json"))
X, Y = sympy.symbols("x y")
# the base points of the equivariance claim: weights in [0, 1) of the
# translations, drawn from a seed of this module's own
EQUIVARIANCE_POINTS = 4
EQUIVARIANCE_SEED = 20220615
# cells per translation of the grid the cross-term scale is searched on
SCALE_GRID_CELLS = 10


def _poly(coeffs, var=X):
    """The polynomial of ascending rational coefficient strings."""
    return sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], var, domain="QQ")


def _matrices(doc):
    return [sympy.Matrix([[sympy.Rational(e) for e in row] for row in g["matrix"]])
            for g in doc["generators"]]


def _signature(f):
    r1 = f.count_roots()
    return r1, (f.degree() - r1) // 2


def _places(f, r1, bits):
    """The places of f at bits, in the order block_embeddings indexes."""
    roots = mpmath.polyroots([int(c) for c in f.all_coeffs()], maxsteps=200, extraprec=bits)
    roots = sorted(roots, key=lambda z: abs(z.imag))
    upper = sorted((z for z in roots[r1:] if z.imag > 0), key=lambda z: (z.real, z.imag))
    return sorted(z.real for z in roots[:r1]) + upper


def _embed(element, place):
    """sigma(u) at place for u's ascending power-basis coordinates."""
    acc = 0
    for c in reversed(element):
        q = Fraction(c)
        acc = acc * place + mpmath.mpf(q.numerator) / q.denominator
    return acc


def _float(pair):
    return mpmath.mpf(pair[0])


def _off_one(field, element, real):
    """Whether |sigma(u)| != 1 at a place of the field polynomial, for u
    of ascending power-basis coordinates element, decided exactly; None
    when neither rule decides it.

    sigma is injective, so at a real place |sigma(u)| = 1 exactly when
    u = +-1.  At a complex place |sigma(u)| = 1 makes 1/sigma(u) its
    complex conjugate, a conjugate of u, so u's minimal polynomial is
    then its own reciprocal up to sign; a root of unity has modulus 1 at
    every place.
    """
    if real:
        return [Fraction(c) for c in element] not in (
            [sign] + [0] * (len(element) - 1) for sign in (1, -1))
    charpoly = sympy.resultant(_poly(field, Y).as_expr(),
                               X - _poly(element, Y).as_expr(), Y)
    factors = sympy.factor_list(charpoly, X)[1]
    if len(factors) != 1:
        # f is reducible: u has no one minimal polynomial
        return None
    minpoly = sympy.Poly(factors[0][0], X)
    coeffs = minpoly.all_coeffs()
    if coeffs[::-1] not in (coeffs, [-c for c in coeffs]):
        return True
    return False if minpoly.is_cyclotomic else None


def _has_minor(rows, k, tol):
    """Whether some k x k minor of rows exceeds tol in absolute value."""
    if k == 0:
        return True
    return any(
        abs(mpmath.det(mpmath.matrix([[rows[i][j] for j in cols] for i in picked]))) > tol
        for picked in itertools.combinations(range(len(rows)), k)
        for cols in itertools.combinations(range(len(rows[0])), k)
    )


def _leaks(doc, tol):
    """Whether some basis^-1 A_j basis has an entry above tol off the
    blocks of the decomposition."""
    decomposition = doc["decomposition"]
    basis = mpmath.matrix([[_float(e) for e in row] for row in decomposition["basis"]])
    inverse = basis ** -1
    block = [k for k, (start, size) in enumerate(decomposition["blocks"])
             for _ in range(start, start + size)]
    for g in doc["generators"]:
        a = mpmath.matrix([[mpmath.mpf(Fraction(e).numerator) / Fraction(e).denominator
                            for e in row] for row in g["matrix"]])
        conjugate = inverse * a * basis
        if any(abs(conjugate[i, j]) > tol
               for i in range(len(block)) for j in range(len(block)) if block[i] != block[j]):
            return True
    return False


def _rational(entry):
    q = Fraction(entry)
    return mpmath.mpf(q.numerator) / q.denominator


def _metric(doc):
    """The metric h(x) the document's functionals, base conformal factor
    and cross terms define, as a function of the base point x."""
    decomposition, metric = doc["decomposition"], doc["metric"]
    p, n, flat = decomposition["p"], metric["base_dim"], metric["flat_block"]
    indices = [range(start, start + size) for start, size in decomposition["blocks"]]

    def coeffs(functional):
        return [_float(c) for c in functional["coeffs"]]

    def exp2(c, x):
        return mpmath.exp(2 * mpmath.fsum(ci * xi for ci, xi in zip(c, x)))

    def h(x):
        gram = mpmath.zeros(p + n)
        for k, block in enumerate(indices):
            scale = 1 if k == flat else exp2(coeffs(metric["functionals"][k]), x)
            for i in block:
                gram[i, i] = scale
        for i in range(p, p + n):
            gram[i, i] = exp2(coeffs(metric["base_conformal"]), x)
        for term in metric["cross_terms"]:
            k, k2 = term["blocks"]
            scale = _float(term["epsilon"]) * exp2(coeffs(term["functional"]), x)
            for i in indices[k]:
                for j in indices[k2]:
                    gram[i, j] = gram[j, i] = scale
        return gram

    return h


def _equivariant(doc, tol):
    """Per generator j, whether C_j^T h(x + v_j) C_j = L1^2 h(x) holds to
    tol relative to the largest entry of L1^2 h(x) at every fresh point x,
    with C_j = basis^-1 A_j basis, v_j the base translation and L1 the
    flat-block ratio.  The pullback acts by diag(C_j, I) on fiber and base.
    """
    decomposition, metric = doc["decomposition"], doc["metric"]
    basis = mpmath.matrix([[_float(e) for e in row] for row in decomposition["basis"]])
    inverse = basis ** -1
    p, n, flat = decomposition["p"], metric["base_dim"], metric["flat_block"]
    h = _metric(doc)
    translations = [[_float(t) for t in g["base_translation"]] for g in doc["generators"]]
    rng = random.Random(EQUIVARIANCE_SEED)
    points = [[mpmath.fsum(rng.random() * v[i] for v in translations) for i in range(n)]
              for _ in range(EQUIVARIANCE_POINTS)]
    holds = []
    for g, v in zip(doc["generators"], translations):
        a = mpmath.matrix([[_rational(e) for e in row] for row in g["matrix"]])
        jacobian = mpmath.eye(p + n)
        jacobian[:p, :p] = inverse * a * basis
        lam1_sq = _float(g["ratio_row"][flat]) ** 2
        worst = 0
        for x in points:
            target = lam1_sq * h(x)
            pulled = jacobian.T * h([xi + vi for xi, vi in zip(x, v)]) * jacobian
            scale = max(abs(e) for e in target)
            worst = max(worst, max(abs(e) for e in pulled - target) / scale)
        holds.append(worst < tol)
    return holds


def _pivots_exceed(a, tol):
    """Whether every pivot of the elimination of the symmetric matrix a,
    without row swaps, exceeds tol: a is positive definite with room."""
    a = a.copy()
    for k in range(a.rows):
        if a[k, k] <= tol:
            return False
        for i in range(k + 1, a.rows):
            factor = a[i, k] / a[k, k]
            for j in range(k, a.rows):
                a[i, j] -= factor * a[k, j]
    return True


def _positive_on_grid(doc, tol):
    """Whether the metric, each cross term at its sealed epsilon, passes
    _pivots_exceed at every point of the scale search's grid."""
    h = _metric(doc)
    translations = [[_float(t) for t in v] for v in doc["metric"]["translations"]]
    weights = [mpmath.mpf(2 * c + 1) / (2 * SCALE_GRID_CELLS) for c in range(SCALE_GRID_CELLS)]
    for cells in itertools.product(weights, repeat=len(translations)):
        x = [mpmath.fsum(w * v[i] for w, v in zip(cells, translations))
             for i in range(doc["metric"]["base_dim"])]
        if not _pivots_exceed(h(x), tol):
            return False
    return True


def _positive_on_domain(doc, tol):
    """Whether every pivot of the metric's elimination, each cross term
    at its sealed epsilon, exceeds tol at every point of the fundamental
    domain {sum t_j v_j : t in [0, 1]^g}: the constant 2 x 2 argument on
    each coupled pair, over the bounds of each linear form on the domain.
    Cross terms that share a block, or touch the flat block or a block
    of another size, are not decided, and refused."""
    decomposition, metric = doc["decomposition"], doc["metric"]
    sizes = [size for _, size in decomposition["blocks"]]
    translations = [[_float(t) for t in v] for v in metric["translations"]]

    def coeffs(functional):
        return [_float(c) for c in functional["coeffs"]]

    def low(c):
        """The least value of 2 c . x on the domain."""
        return 2 * mpmath.fsum(min(0, mpmath.fdot(c, v)) for v in translations)

    functionals = [coeffs(f) for f in metric["functionals"]]
    paired = [k for term in metric["cross_terms"] for k in term["blocks"]]
    if (len(set(paired)) < len(paired) or metric["flat_block"] in paired
            or any(sizes[k] != 1 for k in paired)):
        return False
    # the logs of the pivots' lower bounds: the base's, each uncoupled
    # non-flat block's, then two per coupled pair; the flat block's is 0
    logs = [0, low(coeffs(metric["base_conformal"]))]
    logs += [low(c) for k, c in enumerate(functionals)
             if k != metric["flat_block"] and k not in paired]
    for term in metric["cross_terms"]:
        k, k2 = term["blocks"]
        d = [2 * c - a - b for c, a, b in
             zip(coeffs(term["functional"]), functionals[k], functionals[k2])]
        room = 1 - _float(term["epsilon"]) ** 2 * mpmath.exp(-low([-di for di in d]))
        if room <= 0:
            return False
        logs += [low(functionals[k]), low(functionals[k2]) + mpmath.log(room)]
    return all(mpmath.exp(v) > tol for v in logs)


def _numeric_refusals(doc, f, r1):
    """The names of the numeric claims of doc that do not hold."""
    metric, generators = doc["metric"], doc["generators"]
    flat, j2 = metric["flat_block"], doc["checks"]["J2"]
    places = doc["decomposition"]["block_embeddings"]
    translations = [g["base_translation"] for g in generators]
    failed = []
    with mpmath.workprec(2 * doc["precision_bits"] + 64):
        tol = mpmath.mpf(2) ** -doc["checks"]["J1"]["tolerance_bits"]
        roots = _places(f, r1, mpmath.mp.prec)
        # |sigma(u)|^e of each generator's witness on each block
        moduli = [[abs(_embed(w["element"], roots[i])) ** w["exponent"]
                   for w, i in zip(g["witnesses"], places)] for g in generators]
        if not all([w["embedding"] for w in g["witnesses"]] == places
                   and all(abs(_float(r) - m) <= tol for r, m in zip(g["ratio_row"], row))
                   for g, row in zip(generators, moduli)):
            failed.append("ratios")
        if metric["translations"] != translations:
            failed.append("translations")

        def near(functional, v, want):
            got = mpmath.fsum(_float(c) * _float(x) for c, x in zip(functional["coeffs"], v))
            return abs(got - want) <= tol

        increments = []
        for v, row in zip(translations, moduli):
            logs = [mpmath.log(m) for m in row]
            lam1 = logs[flat]
            for functional, log in zip(metric["functionals"], logs):
                increments.append(near(functional, v, lam1 - log))
            increments.append(near(metric["base_conformal"], v, lam1))
            for term in metric["cross_terms"]:
                k, k2 = term["blocks"]
                increments.append(near(term["functional"], v, lam1 - (logs[k] + logs[k2]) / 2))
        if not all(increments):
            failed.append("increments")
        states = {_off_one(doc["field"]["minpoly"], g["witnesses"][flat]["element"],
                           places[flat] < r1) for g in generators}
        off_one = True if True in states else None if None in states else False
        if j2["flat_block"] != flat or j2["verdict"] != off_one:
            failed.append("J2")
        if off_one is not True or not any(
                Fraction(c[0]) for c in metric["base_conformal"]["coeffs"]):
            failed.append("incomplete")
        logs = [[mpmath.log(m) for m in row] for row in moduli]
        if not _has_minor(logs, doc["checks"]["rank"]["value"], tol):
            failed.append("rank_minor")
        if _leaks(doc, tol):
            failed.append("leakage")
        holds = _equivariant(doc, tol)
        equivariance = doc["checks"]["equivariance"]
        if ([r["verdict"] for r in equivariance["reports"]] != holds
                or equivariance["verdict"] != all(holds)):
            failed.append("equivariance")
        if not _positive_on_grid(doc, tol):
            failed.append("epsilon")
        if not _positive_on_domain(doc, tol):
            failed.append("epsilon_domain")
    return failed


def refusals(doc):
    """The names of the claims of doc that do not hold, in the table's
    order; empty when every claim holds."""
    field = doc["field"]
    f = _poly(field["minpoly"])
    r1, r2 = _signature(f)
    matrices = _matrices(doc)
    failed = []

    def claim(name, holds):
        if not holds:
            failed.append(name)

    claim("irreducible", f.is_irreducible)
    claim("signature", field["degree"] == f.degree() and field["signature"] == [r1, r2])
    claim("integral", all(e.is_integer for a in matrices for e in a))
    claim("unimodular", all(abs(a.det()) == 1 for a in matrices))
    claim("commute", all(a * b == b * a for a in matrices for b in matrices))
    family = doc["checks"].get("matrix_family")
    if family is not None:
        constants = [(-1) ** a.rows * a.det() for a in matrices]
        claim("char_poly_constants", family["char_poly_constants"] == constants)
    monic = f.monic()
    claim("unit_norms", all(
        abs(sympy.resultant(monic.as_expr(), _poly(w["element"]).as_expr(), X)) == 1
        for g in doc["generators"] for w in g["witnesses"]
    ))
    claim("dirichlet", doc["checks"]["dirichlet"]["bound"] == r1 + r2 - 1)
    return failed + _numeric_refusals(doc, f, r1)


def _load(name):
    return json.loads((DATA / name).read_text())


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_certificate_claims_hold(path):
    assert refusals(json.loads(path.read_text())) == []


def _set(doc, path, value):
    """A copy of doc with the field at path (keys and indices) set to value."""
    changed = copy.deepcopy(doc)
    target = changed
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return changed


# one sealed number changed per claim: (certificate, field path, new value)
MUTATIONS = {
    # x^4 - x - 1 becomes x^4 - x = x (x - 1)(x^2 + x + 1)
    "irreducible": ("ot_lck_x4-x-1_128.json", ("field", "minpoly", 0), "0"),
    "signature": ("ranklcp_n2_128.json", ("field", "signature", 0), 1),
    "integral": ("ranklcp_n2_128.json", ("generators", 0, "matrix", 0, 0), "1/2"),
    # [[2, 1], [1, 2]] has determinant 3
    "unimodular": ("kourganoff_q1_128.json", ("generators", 0, "matrix", 1, 1), "2"),
    "commute": ("ranklcp_n2_128.json", ("generators", 1, "matrix", 0, 0), "-1"),
    "char_poly_constants": ("ot_x3-x-1_128.json", ("checks", "matrix_family",
                                                   "char_poly_constants", 0), 1),
    # 2x has norm 8 N(x) = 8
    "unit_norms": ("kourganoff_q2_128.json", ("generators", 0, "witnesses", 0, "element", 1),
                   "2"),
    "dirichlet": ("ot_lck_x4-x-1_128.json", ("checks", "dirichlet", "bound"), 3),
    # 1e-18 off, above the tolerance 2**-64
    "ratios": ("ranklcp_n2_128.json", ("generators", 0, "ratio_row", 1, 0),
               "0.44504186791262880957780512899358951893271113752913"),
    "translations": ("ot_lck_x4-x-1_128.json", ("metric", "translations", 1, 0, 0),
                     "1.0898649811667496392560014250747788844085709651722"),
    # the solved coefficient q + 1 = 2, 1e-18 off
    "increments": ("kourganoff_q1_128.json", ("metric", "functionals", 0, "coeffs", 0, 0),
                   "1.999999999999999999"),
    # -1 is an isometry at every place; here the flat place is real
    "J2": ("ot_x3-x-1_128.json", ("generators", 0, "witnesses", 0, "element"), ["-1", "0", "0"]),
    # the base factor exp(2 f_0) constant: no base ray has finite length
    "incomplete": ("ranklcp_n2_128.json", ("metric", "base_conformal", "coeffs"),
                   [["0.0", 160], ["0.0", 160]]),
    # two units have no 3 x 3 minor
    "rank_minor": ("ranklcp_n2_128.json", ("checks", "rank", "value"), 3),
    # 1e-18 off, so the first column is no longer an eigenvector
    "leakage": ("ranklcp_n2_128.json", ("decomposition", "basis", 0, 0),
                ["0.35689586789220944489439951002130058339912718673465", 160]),
    # a block functional's coefficient 1e-18 off: exp(2 f_k) no longer
    # scales by (L1/Lk)^2 along the translation
    "equivariance": ("ot_lck_x4-x-1_128.json", ("metric", "functionals", 0, "coeffs", 1),
                     ["-1.500000000000000001", 160]),
    # the coupled block [[a, s], [s, b]] has s^2 = eps^2 ab up to the
    # coefficients' last digits, so at eps = 1 its last pivot is near 0;
    # any eps keeps the metric equivariant
    "epsilon": ("ot_lck_x4-x-1_128.json", ("metric", "cross_terms", 0, "epsilon"),
                ["1.0", 160]),
    # at eps = 1 the coupled pair's last pivot is at most
    # exp(2 c_k' . x) (1 - exp(2 d . x)) <= 0 where d . x >= 0
    "epsilon_domain": ("ot_lck_x4-x-1_128.json", ("metric", "cross_terms", 0, "epsilon"),
                       ["1.0", 160]),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_a_changed_number_is_refused_by_name(name):
    certificate, path, value = MUTATIONS[name]
    doc = _load(certificate)
    assert refusals(doc) == []
    assert name in refusals(_set(doc, path, value))


@pytest.mark.parametrize("certificate", ["ot_lck_x4-x-1_128.json", "kourganoff_q2_128.json"])
def test_j2_at_a_complex_flat_place_is_decided_exactly(certificate):
    # the flat place is complex; the witness's minimal polynomial is not
    # its own reciprocal, so J2 holds, and -1, cyclotomic, is refused
    doc = _load(certificate)
    flat = doc["metric"]["flat_block"]
    assert doc["decomposition"]["block_embeddings"][flat] >= doc["field"]["signature"][0]
    assert refusals(doc) == []
    minus_one = ["-1"] + ["0"] * (doc["field"]["degree"] - 1)
    changed = copy.deepcopy(doc)
    for g in changed["generators"]:
        g["witnesses"][flat]["element"] = minus_one
    assert "J2" in refusals(changed)
    assert "J2" in refusals(_set(doc, ("checks", "J2", "verdict"), False))


def test_the_oracle_imports_no_lcpforge_module():
    # in a fresh interpreter, not under this test session's conftest
    script = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('claims', sys.argv[1])\n"
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'lcpforge'))\n"
    )
    # with the package on the path, so an import of it would succeed and show
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script, __file__],
                         capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
