"""Acceptance suite: one test per top-level acceptance criterion.

Each test is self-contained and runs at desk scale; together they cover
exact golden reproduction of the rank-2 family, rank stability across
precision doubling, the unit-rank upper bound, exact unit-ness of all
certificate ratios, equivariance residuals with a negative control, the
warped-product family, the mixed-signature quotient pipeline, vanishing
log-norm sums for random units, and bit-identical round-trips of every
certificate this suite produces.
"""

import random

import pytest
from mpmath import mp

from lcpforge.certio import certificate_from_json, dec_float
from lcpforge.constructions import (
    make_kourganoff,
    make_ot,
    make_rank_n_lcp,
    verify_certificate,
    worked_rank2_example,
)
from lcpforge.embeddings import embeddings, log_vector, multiplicative_rank
from lcpforge.errors import InputError
from lcpforge.intlinalg import IntMatrix, eigen_solve, is_gl_z
from lcpforge.lcpcore import verify_equivariance
from lcpforge.numberfield import (
    dirichlet_rank_bound,
    field_new,
    minimal_polynomial,
    mult_matrix,
)
from lcpforge.polynomials import IntPoly
from oracles import galois_sigma, real_subfield_minpoly

M7 = IntPoly((-1, -2, 1, 1))
PLASTIC = IntPoly((-1, -1, 0, 1))
QUARTIC = IntPoly((-1, -1, 0, 0, 1))

A1 = IntMatrix(((0, 0, 1), (1, 0, 2), (0, 1, -1)))
A2 = IntMatrix(((-2, 1, -1), (0, 0, -1), (1, -1, 1)))

B_HYPERBOLIC = IntMatrix(((2, 1), (1, 1)))


def _companion(p):
    """Companion matrix of monic p: ones on the subdiagonal, the negated
    coefficients in the last column."""
    d = p.degree
    return IntMatrix(
        [int(i == j + 1) if j < d - 1 else -p.coeffs[i] for j in range(d)]
        for i in range(d)
    )


def _at_matrix(p, a):
    """The integer polynomial p evaluated at the matrix a by Horner."""
    identity = IntMatrix.identity(a.n)
    acc = identity * 0
    for c in reversed(p.coeffs):
        acc = acc * a + identity * c
    return acc


def _suite():
    """Every certificate the acceptance suite emits, built at 128 bits."""
    certs = [make_rank_n_lcp(n, 128, seed=0) for n in (1, 2, 3, 4)]
    certs.append(worked_rank2_example(128, seed=0))
    certs.append(make_kourganoff(1, B_HYPERBOLIC, 128, seed=0))
    certs.append(make_kourganoff(2, mult_matrix(field_new(PLASTIC).gen()), 128, seed=0))
    plastic_field = field_new(PLASTIC)
    certs.append(make_ot(PLASTIC, [plastic_field.gen()], 128, seed=0)[1])
    quartic_field = field_new(QUARTIC)
    a = quartic_field.gen()
    certs.append(
        make_ot(QUARTIC, [a, a - quartic_field.one()], 128, seed=0, lck=True)[1]
    )
    return certs


@pytest.fixture(scope="module")
def suite_certificates():
    return _suite()


def test_criterion_1_golden_rank2_family_exact():
    minpoly = real_subfield_minpoly(7)
    assert minpoly == IntPoly((-1, -2, 1, 1))
    a1 = _companion(minpoly)
    assert a1 == A1
    assert _at_matrix(IntPoly((-2, 0, 1)), a1) == A2
    field = field_new(minpoly)
    alpha = field.gen()
    vec = eigen_solve(a1, alpha)
    assert tuple(vec) == (field.one(), alpha + alpha * alpha, alpha)


def test_criterion_2_rank_certificates_stable_under_doubling():
    for n in (1, 2, 3, 4):
        cert = make_rank_n_lcp(n, 128, seed=0)
        assert cert.verdict == "PASS"
        rank = cert.checks["rank"]
        assert rank["value"] == n
        assert rank["value_at_doubled_precision"] == n
        assert rank["doubled_bits"] == 256


def test_criterion_3_dirichlet_bound_holds_and_is_attained(suite_certificates):
    for cert in suite_certificates:
        check = cert.checks["dirichlet"]
        assert check["tested_rank"] <= check["bound"]
        assert check["verdict"] is True
    field = field_new(M7)
    assert dirichlet_rank_bound(field) == 2
    alpha = field.gen()
    sigma = galois_sigma(field)
    assert multiplicative_rank(field, [alpha, sigma(alpha)], 128) == 2


def test_criterion_4_all_certificate_ratios_are_units(suite_certificates):
    for cert in suite_certificates:
        assert cert.checks["unit_ratios"]["verdict"] is True
        field = field_new(
            IntPoly(tuple(int(c) for c in cert.document["field"]["minpoly"]))
        )
        for gen in cert.document["generators"]:
            for witness in gen["witnesses"]:
                elem = field.from_coords(
                    [_rat(c) for c in witness["element"]]
                )
                # the primitive integer minimal polynomial of a unit is
                # monic with constant term +-1
                mpoly = minimal_polynomial(elem)
                assert mpoly.is_monic()
                assert abs(mpoly.constant()) == 1


def _rat(text):
    from lcpforge.polynomials import rat_from_json

    return rat_from_json(text)


def test_criterion_5_equivariance_residuals_and_negative_control(
    suite_certificates,
):
    with mp.workprec(200):
        bound = mp.mpf(2) ** -64
        for cert in suite_certificates:
            payload = cert.checks["equivariance"]
            assert payload["verdict"] is True
            for report in payload["reports"]:
                assert report["samples"] == 100
                assert dec_float(report["max_residual"]) < bound

    # negative control: a 1e-3 bump in one metric coefficient flips the
    # verdict of the equivariance check
    from lcpforge.constructions import make_dmatrix
    from lcpforge.lcpcore import (
        AffineFunctional,
        build_metric_spec,
        check_J1,
        find_block_decomposition,
    )

    dm = make_dmatrix(2)
    decomp = find_block_decomposition(list(dm.matrices), 128)
    ratios = check_J1(decomp, list(dm.matrices))
    flat = 0
    with mp.workprec(decomp.workbits):
        translations = [
            (mp.log(ratios.entries[0][flat]), mp.mpf(0)),
            (mp.mpf(0), mp.log(ratios.entries[1][flat])),
        ]
    spec = build_metric_spec(ratios, flat, translations)
    # generator g1 of spec: the first unit matrix and its base translation
    _, verdict = verify_equivariance(spec, 0)[0]
    assert verdict is True
    k = next(i for i in range(decomp.delta) if i != flat)
    bumped = list(spec.functionals)
    with mp.workprec(decomp.workbits):
        old = bumped[k]
        bumped[k] = AffineFunctional((old.coeffs[0] + mp.mpf("0.001"),) + old.coeffs[1:])
    perturbed = spec.replace(functionals=tuple(bumped))
    _, verdict = verify_equivariance(perturbed, 0)[0]
    assert verdict is False


def test_criterion_6_warped_product_family():
    cert = make_kourganoff(1, B_HYPERBOLIC, 128, seed=0)
    assert cert.verdict == "PASS"
    warp = cert.checks["warp"]
    assert warp["power"] == 4
    assert warp["exact_identity"] is True
    assert warp["exact_points"] == 50
    with pytest.raises(InputError):
        make_kourganoff(3, B_HYPERBOLIC, 128)


def test_criterion_7_mixed_signature_quotient():
    field = field_new(PLASTIC)
    data, cert = make_ot(PLASTIC, [field.gen()], 128, seed=0)
    assert cert.verdict == "PASS"
    assert data.signature == (1, 1)
    assert len(data.matrices) == 1 and is_gl_z(data.matrices[0])
    assert cert.checks["full_lattice"]["verdict"] is True
    assert cert.checks["block_form"] == {
        "verdict": True,
        "real_scalings": 1,
        "rotation_planes": 1,
        "expected": [1, 1],
    }
    # |first embedding| * |second embedding|^2 = 1
    row = cert.document["generators"][0]["ratio_row"]
    sizes = [b[1] for b in cert.document["decomposition"]["blocks"]]
    with mp.workprec(200):
        product = mp.mpf(1)
        for pair, size in zip(row, sizes):
            product *= dec_float(pair) ** size
        assert abs(product - 1) < mp.mpf(2) ** -64
    with pytest.raises(InputError):
        make_ot(M7, [field_new(M7).gen()], 128)


def test_criterion_8_log_norm_sums_vanish():
    field = field_new(M7)
    alpha = field.gen()
    beta = alpha * alpha - field.from_rational(2)
    emb = embeddings(field, 128)
    rng = random.Random(0)
    with mp.workprec(emb.workbits):
        bound = mp.mpf(2) ** -64
        for _ in range(200):
            a = rng.randint(-5, 5)
            b = rng.randint(-5, 5)
            sign = rng.choice((1, -1))
            u = alpha ** a * beta ** b
            if sign < 0:
                u = field.from_rational(-1) * u
            total = mp.fsum(log_vector(emb, u))
            assert abs(total) < bound


def test_criterion_9_round_trip_bit_identical(suite_certificates):
    for cert in suite_certificates:
        text = cert.to_json()
        loaded = certificate_from_json(text)
        assert loaded.to_json() == text
        report = verify_certificate(loaded)
        assert report["reproduced"] is True
        assert report["bit_identical"] is True
        assert report["mismatches"] == []
