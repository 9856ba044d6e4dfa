"""Tests for the construction pipelines and their certificates.

Golden values for the rank-2 family (matrices, eigenvector, warp
functional coefficients) are frozen decimals obtained from an exact
linear solve of the equivariance increment system performed outside the
pipeline; field/matrix data are checked entrywise as integers.
"""

import collections
import functools
import gc
import importlib
import itertools
import json
import pkgutil
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import iv, mp

import lcpforge
import lcpforge.constructions as constructions_module
from lcpforge.certio import canonical_json
from lcpforge.cli import main as cli_main
from lcpforge.constructions import (
    DMatrixData,
    OtData,
    make_dmatrix,
    make_exfield,
    make_kourganoff,
    make_ot,
    make_rank_n_lcp,
    run_pipeline,
    verify_certificate,
    worked_rank2_example,
)
from lcpforge.errors import (
    CheckFailureError,
    InputError,
    NonUnitError,
    PrecisionError,
    StructureError,
)
import lcpforge.embeddings as embeddings_module
import lcpforge.intlinalg as intlinalg_module
import lcpforge.numberfield as numberfield_module
import lcpforge.polynomials as polynomials_module
import lcpforge.schema1 as schema1_module
from lcpforge.embeddings import embeddings
from lcpforge.intlinalg import IntMatrix, commute, det, is_gl_z
from lcpforge.numberfield import (
    FieldElem,
    NumberField,
    field_new,
    galois_generator,
    mult_matrix,
    order_mod_sign,
)
from lcpforge.polynomials import (
    IntPoly,
    is_prime,
    sturm_chain,
    trace_polys,
)
from oracles import galois_sigma, real_subfield_minpoly

M7 = IntPoly((-1, -2, 1, 1))
PLASTIC = IntPoly((-1, -1, 0, 1))
QUARTIC = IntPoly((-1, -1, 0, 0, 1))

A1 = IntMatrix(((0, 0, 1), (1, 0, 2), (0, 1, -1)))
A2 = IntMatrix(((-2, 1, -1), (0, 0, -1), (1, -1, 1)))

B_HYPERBOLIC = IntMatrix(((2, 1), (1, 1)))

# leading digits of the warp functional coefficients on the two
# non-distinguished blocks of the rank-2 example, from the exact solve
F1_COEFFS = ("4.66786474496889817", "1.72736181142675163")
F2_COEFFS = ("-1.66786474496889817", "1.27263818857324836")


@pytest.fixture(scope="module")
def rank2_cert():
    return make_rank_n_lcp(2, 128, seed=0)


@pytest.fixture(scope="module")
def worked_cert():
    return worked_rank2_example(128, seed=0)


@pytest.fixture(scope="module")
def kourganoff_cert():
    return make_kourganoff(1, B_HYPERBOLIC, 128, seed=0)


@pytest.fixture(scope="module")
def plastic_ot():
    field = field_new(PLASTIC)
    return make_ot(PLASTIC, [field.gen()], 128, seed=0)


@pytest.fixture(scope="module")
def quartic_lck():
    field = field_new(QUARTIC)
    a = field.gen()
    return make_ot(QUARTIC, [a, a - field.one()], 128, seed=0, lck=True)


# --------------------------------------------------------------------------
# field and matrix families


def test_exfield_moduli_and_degrees():
    expected = {1: (5, 2), 2: (7, 3), 3: (11, 5), 4: (11, 5)}
    for n, (m, degree) in expected.items():
        ex = make_exfield(n)
        assert ex.modulus == m
        assert ex.field.degree == degree
        assert ex.field.degree >= n + 1
        assert ex.field.signature == (degree, 0)


def test_exfield_sigma_is_field_automorphism():
    ex = make_exfield(2)
    alpha = ex.field.gen()
    image = galois_sigma(ex.field)(alpha)
    assert image == alpha * alpha - ex.field.from_rational(2)


def test_exfield_rejects_nonpositive_rank():
    with pytest.raises(InputError):
        make_exfield(0)


def test_dmatrix_keeps_the_first_prime_wherever_it_passed():
    # with the first prime m >= 2n + 3, n = 7, 14, 19 and 20 are the only
    # n <= 30 whose orbit prefix fell short of rank n (ranks 6, 12, 18, 18)
    for n in range(1, 31):
        first = constructions_module._conductor(n)
        if n in (7, 14, 19, 20):
            assert constructions_module._orbit_rank(first) < n
        else:
            assert constructions_module._conductor(n, n) == first


def test_dmatrix_rank2_golden_matrices():
    dm = make_dmatrix(2)
    assert isinstance(dm, DMatrixData)
    assert dm.matrices[0] == A1
    assert dm.matrices[1] == A2
    assert dm.units[0].coords == (0, 1, 0)
    assert dm.units[1].coords == (-2, 0, 1)


def test_dmatrix_units_are_galois_orbit_prefix():
    for n in (3, 8):
        dm = make_dmatrix(n)
        sigma = galois_sigma(dm.field)
        assert len(dm.units) == n
        for l in range(1, n):
            assert dm.units[l] == sigma(dm.units[l - 1])


def test_dmatrix_reads_the_orbit_off_the_trace_polynomials(monkeypatch):
    # sigma^k(alpha) = c_(g^k mod m)(alpha): no field product is taken
    counts = _count_calls(monkeypatch, [(FieldElem, "__mul__")])
    assert len(make_dmatrix(12).units) == 12
    assert counts == {}


def test_dmatrix_derives_no_minimal_polynomial(minpoly_derivations):
    # the units are cyclotomic units with integer coordinates; make_dmatrix
    # decides nothing about them, and the pipelines that use them decide
    # unit-ness from the determinant of each multiplication matrix
    dm = make_dmatrix(8)
    assert len(dm.units) == 8
    assert len(minpoly_derivations) == 0


def test_dmatrix_matrices_commute_in_gl():
    dm = make_dmatrix(3)
    for m in dm.matrices:
        assert is_gl_z(m)
    for a, b in itertools.combinations(dm.matrices, 2):
        assert commute(a, b)


@pytest.mark.parametrize("n", list(range(1, 13)) + [14, 19, 20])
def test_dmatrix_orbit_prefix_has_certified_rank_n(n):
    # oracle for the Krylov argument make_dmatrix relies on: the certified
    # log minor proves the rank of the orbit prefix; 7, 14, 19 and 20 take a
    # larger conductor than the first prime
    dm = make_dmatrix(n)
    assert embeddings_module.multiplicative_rank(dm.field, dm.units, 128) == n


def _count_calls(monkeypatch, targets):
    counts = collections.Counter()
    for module, name in targets:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return counts


def test_dmatrix_makes_no_numeric_or_heuristic_decision(monkeypatch):
    counts = _count_calls(
        monkeypatch,
        [
            (embeddings_module, "certified_poly_roots"),
            (embeddings_module, "_stable_rank"),
            (numberfield_module, "irreducibility_heuristic"),
        ],
    )
    assert len(make_dmatrix(12).units) == 12
    assert counts == {}


def test_exfield_runs_no_irreducibility_heuristic(monkeypatch):
    counts = _count_calls(
        monkeypatch, [(numberfield_module, "irreducibility_heuristic")]
    )
    assert make_exfield(20).field.degree == 21
    assert counts == {}


def test_exfield_evaluates_no_polynomial_at_a_field_element(monkeypatch):
    # exfield derives no Galois generator, and the generator's image
    # c_g(alpha) is a root by construction (numberfield's
    # test_generator_image_is_a_root), so no minimal polynomial is
    # evaluated at a field element
    arguments = []
    original = IntPoly.__call__

    def recording(self, x):
        arguments.append(x)
        return original(self, x)

    monkeypatch.setattr(IntPoly, "__call__", recording)
    assert make_exfield(20).field.degree == 21
    assert not any(isinstance(x, FieldElem) for x in arguments)


def test_exfield_reads_everything_off_one_trace_polynomial_pass(monkeypatch):
    # the field polynomial, its signature and the Galois generator come
    # from one trace_polys list, and no Sturm chain is built for a
    # signature that is (d, 0) by construction (three passes, two field
    # polynomial derivations and one chain before)
    modules = (constructions_module, numberfield_module, polynomials_module)
    counts = _count_calls(
        monkeypatch,
        [(module, "trace_polys") for module in modules if hasattr(module, "trace_polys")],
    )
    ex = make_exfield(40)
    assert ex.field.signature == (41, 0)
    assert counts == {"trace_polys": 1}
    assert polynomials_module.sturm_chain.cache_info().misses == 0


def test_galois_generator_is_carried_as_its_residue(monkeypatch):
    # exfield prints only the field and derives no Galois generator, not
    # even the order of 2 that the orbit rank reads; dmatrix, sigma's one
    # reader, chooses the residue g once
    targets = [
        (module, name)
        for module in (constructions_module, numberfield_module)
        for name in ("galois_generator", "order_mod_sign")
    ]
    counts = _count_calls(monkeypatch, targets)
    assert make_exfield(40).field.degree == 41
    assert counts == {}
    assert len(make_dmatrix(8).units) == 8
    assert counts["galois_generator"] == 1


def test_dmatrix_reads_the_trace_polynomials_its_field_was_built_from(monkeypatch):
    modules = (constructions_module, numberfield_module, polynomials_module)
    counts = _count_calls(
        monkeypatch, [(m, "trace_polys") for m in modules if hasattr(m, "trace_polys")]
    )
    assert len(make_dmatrix(8).units) == 8
    assert counts == {"trace_polys": 1}


def _frozen_galois_choice(field, m):
    """(image coordinates, residue) of the Galois generator as it was derived
    before the images were compared as integer tuples: every candidate
    c_g(alpha) reduced as a FieldElem by the field polynomial, the least
    coordinates kept."""
    d = field.degree
    cs = trace_polys(d)
    image, g = min(
        (
            (field.from_int_poly(cs[g]), g)
            for g in range(2, d + 1)
            if order_mod_sign(g, m) == d
        ),
        key=lambda pair: pair[0].coords,
    )
    return image.coords, g


def _frozen_mult_matrix(u):
    """mult_matrix as it was derived before the transpose went to zip: the
    columns by the index recurrence, the rows through the validating
    IntMatrix constructor."""
    m, d = u.field.minpoly.coeffs, u.field.degree
    col = [int(c) for c in u.coords]
    cols = [col]
    for _ in range(d - 1):
        top = col[-1]
        col = [(col[i - 1] if i else 0) - top * m[i] for i in range(d)]
        cols.append(col)
    return IntMatrix([[cols[j][i] for j in range(d)] for i in range(d)])


@pytest.mark.parametrize("m", [m for m in range(5, 212) if is_prime(m)])
def test_exfield_construction_matches_the_derivations_it_replaces(m):
    # _exfield takes the signature and the polynomial as proved by
    # construction, and galois_generator the residue of the Galois
    # generator; each is compared here with the derivation it replaces
    ex = constructions_module._exfield(m)
    field, d = ex.field, (m - 1) // 2
    f = field.minpoly
    assert sturm_chain(f).count_all() == d
    assert field.signature == (d, 0) == NumberField(f, "checked").signature
    assert f == sum(trace_polys(d), IntPoly((-1,))) == real_subfield_minpoly(m)
    assert ex.traces == trace_polys(d)
    expected = _frozen_galois_choice(field, m)
    # the residue make_dmatrix carries, and the public map built from it
    assert galois_generator(field, ex.traces) == expected[1]
    image = galois_sigma(field)(field.gen())
    assert image.coords == expected[0]
    # alpha, sigma(alpha) and c_d(alpha), the one image that needs reducing
    for u in (field.gen(), image, field.from_int_poly(ex.traces[d])):
        built, frozen = mult_matrix(u), _frozen_mult_matrix(u)
        assert built == frozen
        assert hash(built) == hash(frozen)


# --------------------------------------------------------------------------
# rank pipeline


def test_rank2_certificate_passes(rank2_cert):
    assert rank2_cert.verdict == "PASS"
    assert rank2_cert.failed_check is None
    for name in ("matrix_family", "J1", "J2", "unit_ratios", "dirichlet",
                 "rank", "equivariance"):
        assert name in rank2_cert.checks


def test_rank2_certificate_structure(rank2_cert):
    doc = rank2_cert.document
    assert doc["schema_version"] == 1
    assert doc["pipeline"] == "ranklcp"
    assert doc["parameters"] == {"n": 2}
    assert doc["precision_bits"] == 128
    assert doc["seed"] == 0
    assert doc["field"]["modulus"] == 7
    dec = doc["decomposition"]
    assert dec["p"] == 3 and dec["delta"] == 3
    assert sorted(dec["block_embeddings"]) == [0, 1, 2]
    assert len(doc["generators"]) == 2
    for gen in doc["generators"]:
        assert len(gen["witnesses"]) == dec["delta"]


def test_rank_certificates_pass_for_all_ranks():
    for n in (1, 3):
        cert = make_rank_n_lcp(n, 128, seed=0)
        assert cert.verdict == "PASS"
        assert cert.checks["rank"]["value"] == n


def test_rank_pipeline_deterministic(rank2_cert):
    again = make_rank_n_lcp(2, 128, seed=0)
    assert canonical_json(again.document) == canonical_json(rank2_cert.document)


def test_rank_pipeline_seed_changes_samples(rank2_cert):
    other = make_rank_n_lcp(2, 128, seed=1)
    assert other.verdict == "PASS"
    assert canonical_json(other.document) != canonical_json(rank2_cert.document)
    assert other.checks["equivariance"]["reports"][0]["seed"] == 1


def test_rank_rejects_bad_input():
    with pytest.raises(InputError):
        make_rank_n_lcp(0)
    with pytest.raises(InputError):
        make_rank_n_lcp(2, 17)


# --------------------------------------------------------------------------
# worked rank-2 example


def test_worked_example_passes_with_golden_check(worked_cert):
    assert worked_cert.verdict == "PASS"
    assert worked_cert.checks["golden"] == {
        "verdict": True,
        "items": ["A1", "A2", "x1"],
    }
    notes = worked_cert.document["notes"]
    assert "absolute value" in notes["base_translation_absolute_value"]
    assert "linear solve" in notes["warp_coefficients"]


def test_worked_example_functional_coefficients(worked_cert):
    functionals = worked_cert.document["metric"]["functionals"]
    flat = worked_cert.checks["J2"]["flat_block"]
    others = [k for k in range(3) if k != flat]
    got1 = [pair[0] for pair in functionals[others[0]]["coeffs"]]
    got2 = [pair[0] for pair in functionals[others[1]]["coeffs"]]
    for got, want in zip(got1, F1_COEFFS):
        assert got.startswith(want)
    for got, want in zip(got2, F2_COEFFS):
        assert got.startswith(want)
    # the distinguished block carries no warp of its own
    assert all(pair[0] == "0.0" for pair in functionals[flat]["coeffs"])


def test_worked_example_matches_generic_pipeline(rank2_cert, worked_cert):
    decomposition = worked_cert.document["decomposition"]
    assert decomposition == rank2_cert.document["decomposition"]
    assert worked_cert.document["generators"] == rank2_cert.document["generators"]
    assert decomposition["block_embeddings"] == [2, 1, 0]


# --------------------------------------------------------------------------
# warped products over one expanding map


def test_kourganoff_q1_passes(kourganoff_cert):
    cert = kourganoff_cert
    assert cert.verdict == "PASS"
    warp = cert.checks["warp"]
    assert warp["power"] == 4
    assert warp["exact_identity"] is True
    assert warp["exact_points"] == 50
    with mp.workprec(200):
        assert abs(mp.mpf(warp["functional_coeff"][0]) - 2) < mp.mpf(2) ** -100
    assert cert.checks["rank"]["value"] == 1


def test_kourganoff_q1_spectral_structure(kourganoff_cert):
    spectral = kourganoff_cert.checks["spectral"]
    assert spectral["verdict"] is True
    assert len(spectral["contracting_blocks"]) == 1
    # the contracting ratio is (3 - sqrt 5)/2
    with mp.workprec(160):
        lam = (3 - mp.sqrt(5)) / 2
        got = mp.mpf(kourganoff_cert.checks["spectral"]["ratio"][0])
        assert abs(got - lam) < mp.mpf(2) ** -120


def test_kourganoff_q2_passes():
    a = mult_matrix(field_new(PLASTIC).gen())
    assert det(a) == 1
    cert = make_kourganoff(2, a, 128, seed=0)
    assert cert.verdict == "PASS"
    warp = cert.checks["warp"]
    assert warp["power"] == 6
    with mp.workprec(200):
        assert abs(mp.mpf(warp["functional_coeff"][0]) - 3) < mp.mpf(2) ** -100


def test_each_root_certification_is_refined_once(monkeypatch):
    # the splitter's characteristic polynomial is the field's minimal
    # polynomial here, so the block decomposition and the embeddings share
    # one certification per (polynomial, working bits)
    refined = []
    original = embeddings_module._refined_real_roots

    def counting(poly, intervals, workbits):
        refined.append((poly, workbits))
        return original(poly, intervals, workbits)

    monkeypatch.setattr(embeddings_module, "_refined_real_roots", counting)
    embeddings_module._embeddings_cached.cache_clear()
    make_kourganoff(1, B_HYPERBOLIC, 128, seed=0)
    make_rank_n_lcp(2, 128, seed=0)
    assert (IntPoly((1, -3, 1)), 160) in refined
    assert (IntPoly((-1, -2, 1, 1)), 160) in refined
    assert len(refined) == len(set(refined))


def test_rank_pipeline_refines_only_at_its_own_precision(refined_bits):
    cert = make_rank_n_lcp(2, 512, seed=0)
    assert cert.verdict == "PASS"
    assert refined_bits == [512 + embeddings_module.GUARD_BITS]


def test_rank_pipeline_derives_no_unit_minimal_polynomial(minpoly_derivations):
    # the block matching, the ratio witness check and lcp_rank all decide
    # that the two units are units: the first two by the determinant, the
    # witness check by the field polynomial, which is the minimal
    # polynomial of every Galois conjugate of the generator
    cert = make_rank_n_lcp(2, 512, seed=0)
    assert cert.verdict == "PASS"
    assert minpoly_derivations == []


def test_rank_pipeline_decides_the_rank_once(monkeypatch):
    # make_dmatrix reads the rank off the orbit rank and proves nothing;
    # the rank check alone proves the rank, by one certified 2 x 2 minor at
    # the pipeline's working bits
    proved = []
    original = embeddings_module._iv_inverse

    def counting(rows):
        proved.append((len(rows), iv.prec))
        return original(rows)

    monkeypatch.setattr(embeddings_module, "_iv_inverse", counting)
    assert make_rank_n_lcp(2, 512, seed=0).verdict == "PASS"
    assert proved == [(2, 512 + embeddings_module.GUARD_BITS)]


def test_rank_pipeline_computes_each_certified_quantity_once(monkeypatch, package_caches):
    # n = 4: four units with integer coordinates at the five real places of
    # a quintic field, so 20 enclosures (each one Horner evaluation) and 4
    # unit determinants; J1 conjugates the 4 generators (two interval
    # products each), and the equivariance check reads the same conjugates.
    # The block decomposition takes one characteristic polynomial, of the
    # splitter, and tests each generator once for commuting with it; the
    # matrix family check seals determinants and decides neither again.
    # n = 8 reads 8 units at the 9 real places of a degree-9 field
    counts = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def counting(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)

    count(embeddings_module, "_iv_horner")
    count(numberfield_module, "is_gl_z")
    count(schema1_module, "_iv_matmul")
    for name in ("char_poly", "commute"):
        original = getattr(intlinalg_module, name)
        for info in pkgutil.iter_modules(lcpforge.__path__):
            module = importlib.import_module("lcpforge." + info.name)
            if getattr(module, name, None) is original:
                count(module, name)
    for n, places in ((4, 5), (8, 9)):
        for cache in package_caches:
            cache.cache_clear()
        counts.clear()
        assert make_rank_n_lcp(n, 128, seed=0).verdict == "PASS"
        assert counts == {
            "_iv_horner": n * places,
            "is_gl_z": n,
            "_iv_matmul": 2 * n,
            "char_poly": 1,
            "commute": n,
        }


@pytest.mark.parametrize(
    "vector, message",
    [
        (lambda f, a: (f.zero(), f.one(), a), "eigenvector has zero lead"),
        (lambda f, a: (f.one(), a * a, a), "for the eigenvector"),
    ],
    ids=["zero-lead", "wrong-coordinate"],
)
def test_worked_example_refuses_an_eigenvector_off_its_golden_value(
    monkeypatch, vector, message
):
    monkeypatch.setattr(
        constructions_module, "eigen_solve", lambda a, lam: vector(lam.field, lam)
    )
    with pytest.raises(CheckFailureError, match=message):
        worked_rank2_example(128)


@pytest.mark.parametrize("n", [4, 8])
def test_rank_pipeline_derives_each_determinant_once(det_derivations, n):
    # the unit decision, the matrix family check, the block decomposition's
    # GL(Z) test and the similarity generator read the determinants of the
    # same n matrices: one elimination each
    assert make_rank_n_lcp(n, 128, seed=0).verdict == "PASS"
    assert det_derivations == [n + 1] * n


@pytest.mark.parametrize(
    "build, degrees",
    [
        (lambda: make_exfield(40), []),
        (lambda: make_rank_n_lcp(4, 128, seed=0), [5]),
    ],
    ids=["exfield-40", "ranklcp-4"],
)
def test_each_polynomial_takes_one_pseudo_remainder_sequence(monkeypatch, build, degrees):
    # the squarefree tests, the signature and the real-root isolation of
    # the one field polynomial read one Sturm chain, whose single sequence
    # takes degree-many pseudo-remainders (three sequences and more before:
    # 123 and 35 calls); exfield's signature is (d, 0) by construction and
    # it isolates no root, so it builds no chain (one before)
    built, calls = [], []

    class CountedChain(polynomials_module.SturmChain):
        __slots__ = ()

        def __init__(self, p):
            built.append(p)
            super().__init__(p)

    original = polynomials_module._pseudo_remainder

    def counting(a, b):
        calls.append(len(a))
        return original(a, b)

    monkeypatch.setattr(polynomials_module, "SturmChain", CountedChain)
    monkeypatch.setattr(polynomials_module, "_pseudo_remainder", counting)
    build()
    assert polynomials_module.sturm_chain.cache_info().misses == len(built)
    assert [p.degree for p in built] == degrees
    assert len(calls) == sum(degrees)


def test_rank_pipeline_refuses_a_non_commuting_family_before_sealing(monkeypatch):
    # the matrix family check no longer tests commutation; the block
    # decomposition does, and it must raise before any certificate exists
    sealed = []
    original = constructions_module._Builder.seal

    def recording(self):
        sealed.append(self)
        return original(self)

    monkeypatch.setattr(constructions_module._Builder, "seal", recording)
    dm = make_dmatrix(2)
    shear = IntMatrix(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    assert is_gl_z(shear) and not commute(dm.matrices[0], shear)
    family = DMatrixData(dm.exfield, dm.units, (dm.matrices[0], shear))
    builder = constructions_module._Builder("ranklcp", {"n": 2}, 128, 0)
    with pytest.raises(InputError, match="do not commute"):
        constructions_module._assemble_rank_certificate(builder, family, 2, 128, 0)
    # both determinants are +-1, so the family check alone would pass
    assert builder.doc["checks"]["matrix_family"]["verdict"] is True
    assert sealed == []


def test_every_package_cache_is_cleared_between_tests(package_caches):
    # the autouse fixture finds its caches by scanning the modules; here
    # every functools cache of lcpforge alive on the heap is found on its
    # own, so a cache the scan misses fails the test
    make_rank_n_lcp(2, 128, seed=0)
    cache_type = type(functools.lru_cache(maxsize=1)(abs))
    live = [
        obj
        for obj in gc.get_objects()
        if type(obj) is cache_type and obj.__module__.startswith("lcpforge")
    ]
    assert {"_stable_rank", "is_unit", "_embeddings_cached"} <= {c.__name__ for c in live}
    assert {id(c) for c in live} <= {id(c) for c in package_caches}
    for cache in package_caches:
        cache.cache_clear()
    assert all(c.cache_info().currsize == 0 for c in live)


def test_kourganoff_rank_is_proven_without_refining_at_doubled_precision(refined_bits):
    cert = make_kourganoff(1, B_HYPERBOLIC, 1024, seed=0)
    assert cert.verdict == "PASS"
    assert cert.checks["rank"]["value"] == 1
    assert set(refined_bits) == {1024 + embeddings_module.GUARD_BITS}


def test_kourganoff_rejects_inadmissible_power():
    with pytest.raises(InputError, match="q = 1 and q = 2"):
        make_kourganoff(3, B_HYPERBOLIC, 128)
    with pytest.raises(InputError):
        make_kourganoff(0, B_HYPERBOLIC, 128)


def test_kourganoff_rejects_bad_matrices():
    with pytest.raises(InputError, match="SL"):
        make_kourganoff(1, IntMatrix(((2, 0), (0, 1))), 128)
    with pytest.raises(InputError, match="2 x 2"):
        make_kourganoff(1, mult_matrix(field_new(PLASTIC).gen()), 128)
    with pytest.raises(InputError):
        make_kourganoff(1, "2,1;1,1", 128)


def test_kourganoff_rejects_rotation():
    # det 1 but no expanding eigenline: the single rotation plane cannot
    # split into two blocks
    with pytest.raises(StructureError):
        make_kourganoff(1, IntMatrix(((0, -1), (1, 0))), 128)


def test_kourganoff_rejects_shear():
    # refused by the splitter search: the block count that follows assumes
    # a squarefree characteristic polynomial
    with pytest.raises(StructureError, match="distinct eigenvalues"):
        make_kourganoff(1, IntMatrix(((1, 1), (0, 1))), 128)


def _spectral_sweep(q):
    """Every det-1 matrix with squarefree characteristic polynomial in
    SL(2, Z) with entries in [-2, 2] (q = 1), or a seeded sample of 200 of
    those in SL(3, Z) with entries in {-1, 0, 1} (q = 2)."""
    if q == 1:
        return [
            IntMatrix(((a, b), (c, d)))
            for a, b, c, d in itertools.product(range(-2, 3), repeat=4)
            if a * d - b * c == 1 and (a + d) ** 2 != 4
        ]
    sl3 = []
    for e in itertools.product((-1, 0, 1), repeat=9):
        a = IntMatrix((e[0:3], e[3:6], e[6:9]))
        # x^3 - t x^2 + m x - 1 is squarefree iff its discriminant is not 0
        if det(a) == 1 and _cubic_discriminant(-(e[0] + e[4] + e[8]), _minor_sum(e), -1) != 0:
            sl3.append(a)
    return random.Random(2024).sample(sl3, 200)


def _minor_sum(e):
    return (e[0] * e[4] - e[1] * e[3]) + (e[0] * e[8] - e[2] * e[6]) + (e[4] * e[8] - e[5] * e[7])


def _cubic_discriminant(b, c, d):
    """Discriminant of x^3 + b x^2 + c x + d."""
    return b * b * c * c - 4 * c ** 3 - 4 * b ** 3 * d - 27 * d * d + 18 * b * c * d


def _expected_expanding_block(q, a):
    """The expanding block by hand, or None where the hypothesis fails.

    q = 1: x^2 - t x + 1 has two real roots r, 1/r exactly when |t| > 2;
    they are positive for t > 2, so the expanding root comes first in
    descending order, and negative for t < -2, where it comes last.
    q = 2: x^3 - t x^2 + m x - 1 needs one real root mu (a negative
    discriminant) with mu > 1, which for a monic cubic with one real root
    is chi(1) = m - t < 0; mu is the only real root, block 0.
    """
    t = sum(a[i, i] for i in range(a.n))
    if q == 1:
        return None if abs(t) <= 2 else (0 if t > 2 else 1)
    e = [a[i, j] for i in range(3) for j in range(3)]
    m = _minor_sum(e)
    one_real = _cubic_discriminant(-t, m, -1) < 0
    return 0 if one_real and m - t < 0 else None


@pytest.mark.parametrize("q, passed, refused", [(1, 8, 18), (2, 46, 154)])
def test_kourganoff_spectral_hypothesis_is_the_exact_predicate(q, passed, refused):
    cases = collections.Counter()
    for a in _spectral_sweep(q):
        up = _expected_expanding_block(q, a)
        if up is None:
            with pytest.raises(StructureError):
                make_kourganoff(q, a, 128)
            cases["refused"] += 1
            continue
        cert = make_kourganoff(q, a, 128)
        assert cert.verdict == "PASS"
        spectral = cert.checks["spectral"]
        assert spectral["expanding_block"] == up
        # two blocks: two real roots, or a real root and a complex pair
        assert spectral["contracting_blocks"] == [1 - up]
        cases["passed"] += 1
    assert cases == {"passed": passed, "refused": refused}


@pytest.mark.parametrize("name, q", [
    ("kourganoff_q1_128", 1), ("kourganoff_q1_1024", 1), ("kourganoff_q2_128", 2),
])
def test_sealed_warp_coefficient_is_q_plus_one(name, q):
    # the coefficient the warp check once compared with q + 1 at runtime
    doc = json.loads((Path(__file__).parent / "data" / (name + ".json")).read_text())
    coeff, bits = doc["checks"]["warp"]["functional_coeff"]
    with mp.workprec(bits + 64):
        assert abs(mp.mpf(coeff) - (q + 1)) <= mp.mpf(2) ** -100


# --------------------------------------------------------------------------
# unit-lattice quotients


def test_ot_plastic_passes(plastic_ot):
    data, cert = plastic_ot
    assert cert.verdict == "PASS"
    assert isinstance(data, OtData)
    assert data.signature == (1, 1)
    assert data.squared == (False,)
    assert cert.checks["block_form"] == {
        "verdict": True,
        "real_scalings": 1,
        "rotation_planes": 1,
        "expected": [1, 1],
    }
    assert cert.checks["full_lattice"]["rank"] == 1
    assert cert.checks["norm_product"]["verdict"] is True
    assert cert.checks["rank"]["value"] == 1


def test_norm_product_refuses_a_log_sum_off_zero():
    # a unit's weighted log coordinates sum to zero; a sum of 2^-40, far
    # above the tolerance 2^-64, is a norm off +-1 and fails the check
    emb = embeddings(field_new(PLASTIC), 128)
    with mp.workprec(emb.workbits):
        rows = [[mp.mpf(0), mp.mpf(0)], [mp.mpf(2) ** -40, mp.mpf(0)]]
    payload = schema1_module.norm_product_check(emb, rows)
    assert [r["verdict"] for r in payload["units"]] == [True, False]
    assert payload["verdict"] is False


def test_ot_flat_block_is_real_scaling(plastic_ot):
    data, cert = plastic_ot
    flat = cert.checks["J2"]["flat_block"]
    dec = cert.document["decomposition"]
    assert dec["blocks"][flat][1] == 1
    assert dec["block_embeddings"][flat] == 0


def test_ot_translations_are_real_place_logs(plastic_ot):
    data, cert = plastic_ot
    assert len(data.log_projection) == 1
    assert len(data.log_projection[0]) == 1
    with mp.workprec(160):
        rho = mp.polyroots([1, 0, -1, -1])[0]
        got = mp.mpf(cert.document["generators"][0]["base_translation"][0][0])
        assert abs(got - mp.log(rho)) < mp.mpf(2) ** -100


# a dyadic 2^-40 below the larger real root of x^4 - x - 1, near 1.2207
_BELOW = Fraction(1342222315562, 2 ** 40)


@pytest.mark.parametrize("coords", [
    (0, 1, 0, 0), (0, -1, 0, 0), (-1, 0, 1, 0), (-1, 1, 0, 0), (1, 0, 0, 0), (-1, 0, 0, 0),
    # a root of g inside the isolating interval, either side of the real
    # root, so the interval has to be bisected
    (-_BELOW, 1, 0, 0), (-_BELOW - Fraction(1, 2 ** 40), 1, 0, 0), (-_BELOW / 3, Fraction(1, 3), 0, 0),
], ids=["alpha", "-alpha", "alpha^2-1", "alpha-1", "1", "-1", "alpha-c", "alpha-c'", "(alpha-c)/3"])
def test_real_sign_is_decided_exactly(coords):
    # the unit alpha of x^4 - x - 1 is negative at the first real place
    # (near -0.7245) and positive at the second
    u = FieldElem(field_new(QUARTIC), coords)
    intervals = polynomials_module.isolate_real_roots(QUARTIC)
    got = [numberfield_module.real_sign(u, r) for r in intervals]
    with mp.workprec(256):
        roots = sorted(r.real for r in mp.polyroots([1, 0, 0, -1, -1]) if abs(r.imag) < 1e-60)
        coeffs = [mp.mpf(c.numerator) / c.denominator for c in reversed(u.coords)]
        assert got == [int(mp.sign(mp.polyval(coeffs, r))) for r in roots]


def test_ot_rejects_wrong_signature():
    with pytest.raises(InputError, match="every embedding is real"):
        make_ot(M7, [field_new(M7).gen()], 128)
    allcomplex = IntPoly((1, 1, 1))
    with pytest.raises(InputError, match="no real embedding"):
        make_ot(allcomplex, [field_new(allcomplex).gen()], 128)


def test_ot_rejects_trivial_unit_lattice():
    field = field_new(PLASTIC)
    with pytest.raises(CheckFailureError, match="not a full lattice"):
        make_ot(PLASTIC, [field.one()], 128)


def test_ot_rejects_dependent_units():
    # alpha^4 = alpha + 1 in this field, so the pair has projected rank 1
    field = field_new(QUARTIC)
    a = field.gen()
    with pytest.raises(CheckFailureError, match="not a full lattice"):
        make_ot(QUARTIC, [a, a + field.one()], 128)


def test_ot_rejects_non_units_and_foreign_elements():
    field = field_new(PLASTIC)
    with pytest.raises(NonUnitError):
        make_ot(PLASTIC, [field.from_rational(2)], 128)
    with pytest.raises(InputError):
        make_ot(PLASTIC, [field_new(QUARTIC).gen()], 128)
    with pytest.raises(InputError):
        make_ot(PLASTIC, [], 128)


def test_orbit_unit_witnesses_derive_no_minimal_polynomial(monkeypatch):
    # every ranklcp witness is a Galois conjugate of the field generator,
    # whose minimal polynomial is the field polynomial
    derived = []
    for module in (constructions_module, numberfield_module):
        original = module.minimal_polynomial

        def recording(a, original=original):
            derived.append(a)
            return original(a)

        monkeypatch.setattr(module, "minimal_polynomial", recording)
    cert = make_rank_n_lcp(4, 128)
    orbit = set(make_dmatrix(4).units)
    assert len(orbit) == 4
    assert not [a for a in derived if a in orbit]
    entries = cert.document["checks"]["unit_ratios"]["entries"]
    constant = str(make_dmatrix(4).field.minpoly.constant())
    assert len(entries) == 4
    assert all(e["minpoly_constant"] == constant and e["unit"] for row in entries for e in row)


def test_ot_lck_quartic_passes(quartic_lck):
    data, cert = quartic_lck
    assert cert.verdict == "PASS"
    assert data.signature == (2, 1)
    # both generators are negative at one real place, so both get squared
    assert data.squared == (True, True)
    assert cert.checks["positivity"]["verdict"] is True
    assert cert.checks["rank"]["value"] == 2


def test_ot_lck_flat_is_rotation_plane(quartic_lck):
    data, cert = quartic_lck
    dec = cert.document["decomposition"]
    flat = cert.checks["J2"]["flat_block"]
    assert dec["blocks"][flat][1] == 2
    assert dec["block_embeddings"][flat] == 2


def test_ot_lck_couples_the_real_blocks(quartic_lck):
    data, cert = quartic_lck
    terms = cert.document["metric"]["cross_terms"]
    assert len(terms) == 1
    k, k2 = terms[0]["blocks"]
    dec = cert.document["decomposition"]
    assert dec["blocks"][k][1] == 1 and dec["blocks"][k2][1] == 1


def test_ot_lck_needs_one_rotation_plane():
    quintic = IntPoly((-1, -1, 0, 0, 0, 1))  # signature (1, 2)
    field = field_new(quintic)
    with pytest.raises(InputError, match="one complex place"):
        make_ot(quintic, [field.gen()], 128, lck=True)


def test_ot_deterministic(plastic_ot):
    _, cert = plastic_ot
    field = field_new(PLASTIC)
    _, again = make_ot(PLASTIC, [field.gen()], 128, seed=0)
    assert canonical_json(again.document) == canonical_json(cert.document)


# --------------------------------------------------------------------------
# dispatch and re-verification


def test_run_pipeline_round_trips_every_pipeline(
    rank2_cert, worked_cert, kourganoff_cert, plastic_ot, quartic_lck
):
    for cert in (rank2_cert, worked_cert, kourganoff_cert, plastic_ot[1],
                 quartic_lck[1]):
        fresh = run_pipeline(cert.pipeline, cert.parameters, 128, cert.seed)
        assert canonical_json(fresh.document) == canonical_json(cert.document)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: make_rank_n_lcp(1.9, 128, seed=0), "n"),
        (lambda: make_rank_n_lcp(1, 128, seed=0.7), "seed"),
        (lambda: make_exfield(2.5), "n"),
        (lambda: make_dmatrix("2"), "n"),
        (lambda: make_kourganoff(1.2, B_HYPERBOLIC, 128), "q"),
        (lambda: worked_rank2_example(128, seed=Fraction(1, 2)), "seed"),
        (lambda: make_ot(PLASTIC, [field_new(PLASTIC).gen()], 128, seed="0"), "seed"),
    ],
    ids=["rank-n", "rank-seed", "exfield-n", "dmatrix-n", "kourganoff-q",
         "worked-seed", "ot-seed"],
)
def test_builders_refuse_non_integer_parameters(build, name):
    # 1.9 used to be truncated to 1, and a seed of 0.7 to 0
    with pytest.raises(InputError, match="^%s must be an integer" % name):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_exfield(True),
        lambda: make_rank_n_lcp(2, 128, seed=True),
        lambda: IntPoly((True, 1)),
        lambda: IntMatrix([[True, 0], [0, 1]]),
    ],
    ids=["exfield-n", "rank-seed", "int-poly", "int-matrix"],
)
def test_bools_are_not_integers(build):
    # bool is an int subclass: True used to build the field of n = 1 and
    # the polynomial x + 1
    with pytest.raises(InputError):
        build()


def test_ot_decides_irreducibility_once(monkeypatch, capsys):
    # the CLI parses the units in the field it builds, and make_ot builds
    # the same polynomial's field again: field_new decides it once
    counts = _count_calls(monkeypatch, [(numberfield_module, "irreducibility_heuristic")])
    assert cli_main(["ot", "--minpoly", "x^3-x-1", "--units", "0,1,0"]) == 0
    assert counts == {"irreducibility_heuristic": 1}
    assert json.loads(capsys.readouterr().out)["verdict"] == "PASS"


def test_builders_take_integral_fractions():
    assert make_exfield(Fraction(2)).modulus == make_exfield(2).modulus


def test_run_pipeline_names_a_log_embedding_shortfall():
    # alpha^90 for alpha^3 = alpha + 1 at 64 bits: log_vector's escalation
    # signal becomes a PrecisionError naming the stage
    parameters = {"minpoly": ["-1", "-1", "0", "1"], "lck": False,
                  "units": [["17342153393", "30433357674", "22973462017"]]}
    with pytest.raises(PrecisionError, match="^norm_product: log embedding not certified"):
        run_pipeline("ot", parameters, 64, 0)


def test_run_pipeline_unknown_name():
    with pytest.raises(InputError, match="unknown pipeline"):
        run_pipeline("nonsense", {}, 128, 0)


def test_verify_certificate_same_precision(rank2_cert):
    report = verify_certificate(rank2_cert)
    assert report["reproduced"] is True
    assert report["bit_identical"] is True
    assert report["mismatches"] == []
    assert report["precision_bits"] == 128


def test_verify_certificate_cross_precision(kourganoff_cert):
    report = verify_certificate(kourganoff_cert, 192)
    assert report["reproduced"] is True
    assert report["bit_identical"] is None
    assert report["verdict"] == "PASS"


def test_verify_certificate_detects_tampering(rank2_cert):
    import json

    from lcpforge.certio import certificate_from_json

    doc = json.loads(canonical_json(rank2_cert.document))
    doc["checks"]["rank"]["verdict"] = False
    doc["verdict"] = "FAILED"
    doc["failed_check"] = "rank"
    report = verify_certificate(certificate_from_json(json.dumps(doc)))
    assert report["reproduced"] is False
    assert "checks.rank" in report["mismatches"]
    assert "verdict" in report["mismatches"]


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_rank_n_lcp(1, 128, seed=0),
        lambda: make_kourganoff(1, B_HYPERBOLIC, 128, seed=0),
        lambda: make_ot(PLASTIC, [field_new(PLASTIC).gen()], 128, seed=0)[1],
    ],
    ids=["ranklcp", "kourganoff", "ot"],
)
def test_J2_is_the_first_flat_block_check(monkeypatch, build):
    # every pipeline runs J2, unit_ratios, dirichlet and rank in that order
    # after its own earlier checks, so a failing J2 names the certificate
    monkeypatch.setattr(constructions_module, "check_J2", lambda ratios, flat: False)
    cert = build()
    assert cert.verdict == "FAILED"
    assert cert.document["failed_check"] == "J2"
    assert list(cert.checks).index("J2") + 3 == list(cert.checks).index("rank")


def test_readme_python_api_block_runs_as_written(tmp_path, monkeypatch):
    # README's Python API section is the documented surface; it must run
    # unchanged, so the block is read from README.md and executed
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert (tmp_path / "rank2.json").exists()
