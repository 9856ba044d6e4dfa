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
import pkgutil

import pytest
from mpmath import mp

import lcpforge
import lcpforge.constructions as constructions_module
from lcpforge.certio import canonical_json
from lcpforge.constructions import (
    DMatrixData,
    OtData,
    _match_block_embeddings,
    _unit_ratio_check,
    _witness_table,
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
    StructureError,
)
import lcpforge.embeddings as embeddings_module
import lcpforge.intlinalg as intlinalg_module
import lcpforge.lcpcore as lcpcore_module
import lcpforge.numberfield as numberfield_module
import lcpforge.polynomials as polynomials_module
from lcpforge.embeddings import embeddings
from lcpforge.intlinalg import IntMatrix, commute, companion, det, is_gl_z
from lcpforge.lcpcore import check_J1, find_block_decomposition
from lcpforge.numberfield import field_new
from lcpforge.polynomials import IntPoly

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
    image = ex.sigma(alpha)
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
    dm = make_dmatrix(3)
    assert len(dm.units) == 3
    for l in range(1, 3):
        assert dm.units[l] == dm.exfield.sigma(dm.units[l - 1])


def test_dmatrix_checks_each_unit_once(minpoly_derivations):
    # the units have integer coordinates, so the rank check decides that
    # each is a unit from the determinant of its multiplication matrix,
    # once, and no minimal polynomial is derived
    dm = make_dmatrix(8)
    assert len(dm.units) == 8
    assert len(minpoly_derivations) == 0


def test_dmatrix_matrices_commute_in_gl():
    dm = make_dmatrix(3)
    for m in dm.matrices:
        assert is_gl_z(m)
    for a, b in itertools.combinations(dm.matrices, 2):
        assert commute(a, b)


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
    a = companion(PLASTIC)
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


def test_rank_pipeline_derives_each_unit_minimal_polynomial_once(minpoly_derivations):
    # make_dmatrix, the ratio witness check and lcp_rank all decide that
    # the two units are units; they share one derivation per unit
    cert = make_rank_n_lcp(2, 512, seed=0)
    assert cert.verdict == "PASS"
    assert minpoly_derivations == [3, 3]


def test_rank_pipeline_decides_the_rank_once(monkeypatch):
    # make_dmatrix checks the units' rank and the rank check seals the rank
    # of the same units at the same bits: one decision serves both
    proved = []
    original = embeddings_module._proved_full_rank

    def counting(field, units, bits, coords):
        proved.append(bits)
        return original(field, units, bits, coords)

    monkeypatch.setattr(embeddings_module, "_proved_full_rank", counting)
    assert make_rank_n_lcp(2, 512, seed=0).verdict == "PASS"
    assert proved == [512]


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
    count(lcpcore_module, "_iv_matmul")
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


@pytest.mark.parametrize("n", [4, 8])
def test_rank_pipeline_derives_each_determinant_once(det_derivations, n):
    # the unit decision, the matrix family check, the block decomposition's
    # GL(Z) test and the similarity generator read the determinants of the
    # same n matrices: one elimination each
    assert make_rank_n_lcp(n, 128, seed=0).verdict == "PASS"
    assert det_derivations == [n + 1] * n


@pytest.mark.parametrize(
    "build, degree",
    [
        (lambda: make_exfield(40), 41),
        (lambda: make_rank_n_lcp(4, 128, seed=0), 5),
    ],
    ids=["exfield-40", "ranklcp-4"],
)
def test_each_polynomial_takes_one_pseudo_remainder_sequence(monkeypatch, build, degree):
    # the squarefree tests, the signature and the real-root isolation of
    # the one field polynomial read one Sturm chain, whose single sequence
    # takes degree-many pseudo-remainders (three sequences and more before:
    # 123 and 35 calls)
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
    assert polynomials_module.sturm_chain.cache_info().misses == len(built) == 1
    assert [p.degree for p in built] == [degree]
    assert len(calls) == degree


def test_rank_pipeline_refuses_a_non_commuting_family_before_sealing(monkeypatch):
    # the matrix family check no longer tests commutation; the block
    # decomposition does, and it must raise before any certificate exists
    sealed = []
    original = constructions_module._Builder.seal

    def recording(self):
        sealed.append(self)
        return original(self)

    monkeypatch.setattr(constructions_module._Builder, "seal", recording)
    dm = make_dmatrix(2, 128)
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
        make_kourganoff(1, companion(PLASTIC), 128)
    with pytest.raises(InputError):
        make_kourganoff(1, "2,1;1,1", 128)


def test_kourganoff_rejects_rotation():
    # det 1 but no expanding eigenline: the single rotation plane cannot
    # split into two blocks
    with pytest.raises(StructureError):
        make_kourganoff(1, IntMatrix(((0, -1), (1, 0))), 128)


def test_kourganoff_rejects_shear():
    with pytest.raises(StructureError):
        make_kourganoff(1, IntMatrix(((1, 1), (0, 1))), 128)


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


def test_unit_ratio_check_records_a_non_unit_witness():
    dm = make_dmatrix(2)
    decomp = find_block_decomposition(list(dm.matrices), 128)
    ratios = check_J1(decomp, list(dm.matrices))
    emb = embeddings(dm.field, 128)
    block_emb = _match_block_embeddings(emb, dm.units, ratios)
    units = list(dm.units)
    good = _unit_ratio_check(emb, ratios.with_witnesses(_witness_table(units, block_emb)))
    assert good["verdict"] is True
    units[0] = 2 * units[0]  # minimal polynomial x^3 + 2x^2 - 8x - 8
    payload = _unit_ratio_check(emb, ratios.with_witnesses(_witness_table(units, block_emb)))
    assert payload["verdict"] is False
    for entry in payload["entries"][0]:
        assert entry["unit"] is False
        assert entry["minpoly_constant"] == "-8"
        assert entry["verdict"] is False
    assert payload["entries"][1] == good["entries"][1]


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
