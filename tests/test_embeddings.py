"""Tests for certified embeddings, log vectors and multiplicative rank.

Root values are checked against mpmath cosine/polyroots oracles computed
independently at higher precision; the rank-2 decision for the cubic unit
pair is backed by an explicit 2x2 minor bound computed from the cosine
formulas, not by the module under test.
"""

from fractions import Fraction as QQ

import pytest
from mpmath import iv, mp

import lcpforge.embeddings as embeddings_module
import lcpforge.polynomials as polynomials_module
from lcpforge.embeddings import (
    GUARD_BITS,
    EmbeddingSet,
    certified_poly_roots,
    default_precision,
    embeddings,
    log_vector,
    multiplicative_rank,
    projected_log_rank,
    tolerance,
    validate_precision,
    verify_ratio_witness,
)
from lcpforge.errors import InputError, NeedsEscalation, NonUnitError, PrecisionError
from lcpforge.numberfield import field_new, galois_generator
from lcpforge.polynomials import IntPoly

M7 = IntPoly((-1, -2, 1, 1))
PLASTIC = IntPoly((-1, -1, 0, 1))


@pytest.fixture(scope="module")
def m7():
    return field_new(M7)


@pytest.fixture(scope="module")
def plastic():
    return field_new(PLASTIC)


def _cos_roots(prec=240):
    # ascending order: k = 3, 2, 1
    with mp.workprec(prec):
        return [2 * mp.cos(2 * mp.pi * k / 7) for k in (3, 2, 1)]


class TestRealEmbeddings:
    def test_cubic_roots_match_cosines(self, m7):
        emb = embeddings(m7, 128)
        assert emb.count == 3
        alpha = m7.gen()
        with mp.workprec(220):
            for index, oracle in enumerate(_cos_roots()):
                assert emb.is_real(index)
                got = emb.embed(alpha, index)
                assert abs(got - oracle) < mp.mpf(2) ** -120

    def test_enclosures_contain_oracle(self, m7):
        emb = embeddings(m7, 128)
        for index, oracle in enumerate(_cos_roots()):
            enc = emb.root_enclosure(index)
            # convert endpoints above their own precision so nothing rounds
            with mp.workprec(4 * emb.workbits):
                lo, hi = mp.mpf(enc.a), mp.mpf(enc.b)
            assert lo <= oracle <= hi

    def test_polynomial_element(self, m7):
        # alpha^2 - 2 maps each root r to r^2 - 2
        emb = embeddings(m7, 128)
        sigma_alpha = m7.from_coords((-2, 0, 1))
        with mp.workprec(220):
            for index, r in enumerate(_cos_roots()):
                got = emb.embed(sigma_alpha, index)
                assert abs(got - (r ** 2 - 2)) < mp.mpf(2) ** -118

    def test_index_validation(self, m7):
        emb = embeddings(m7, 128)
        with pytest.raises(InputError):
            emb.embed(m7.gen(), 3)

    def test_embed_respects_multiplication(self, m7, plastic):
        for field in (m7, plastic):
            emb = embeddings(field, 128)
            a = field.gen() + field.from_rational(QQ(1, 3))
            b = field.gen() ** 2 - field.from_rational(2)
            lhs = emb.embed_all(a * b)
            with mp.workprec(220):
                for index in range(emb.count):
                    rhs = emb.embed(a, index) * emb.embed(b, index)
                    assert abs(lhs[index] - rhs) < mp.mpf(2) ** -100

    def test_frozen_plastic_number(self, plastic):
        emb = embeddings(plastic, 128)
        got = emb.embed(plastic.gen(), 0)
        with mp.workprec(200):
            assert abs(got - mp.mpf("1.3247179572447460259609088")) < mp.mpf("1e-24")


class TestComplexEmbeddings:
    def test_certified_disk(self, plastic):
        emb = embeddings(plastic, 128)
        assert emb.count == 2
        assert not emb.is_real(1)
        z = emb.embed(plastic.gen(), 1)
        assert z.imag > 0
        # residual of the defining polynomial at the midpoint
        with mp.workprec(emb.workbits):
            residual = abs(z ** 3 - z - 1)
        assert residual < mp.mpf(2) ** -100

    def test_matches_polyroots_oracle(self, plastic):
        emb = embeddings(plastic, 128)
        z = emb.embed(plastic.gen(), 1)
        with mp.workprec(300):
            roots = mp.polyroots([1, 0, -1, -1], extraprec=200)
            upper = [r for r in roots if mp.im(r) > 0.1]
        assert len(upper) == 1
        assert abs(z - upper[0]) < mp.mpf(2) ** -100

    def test_norm_product_is_one(self, plastic):
        # |s1(a)| * |s2(a)|^2 = |N(a)| = 1 for the defining unit
        emb = embeddings(plastic, 128)
        alpha = plastic.gen()
        with mp.workprec(emb.workbits):
            product = abs(emb.embed(alpha, 0)) * abs(emb.embed(alpha, 1)) ** 2
            assert abs(product - 1) < mp.mpf(2) ** -64

    def test_quartic_signature(self):
        field = field_new(IntPoly((1, 1, 0, 0, 1)))  # x^4 + x + 1, two pairs
        emb = embeddings(field, 128)
        assert field.signature == (0, 2)
        assert emb.count == 2
        z0 = emb.embed(field.gen(), 0)
        z1 = emb.embed(field.gen(), 1)
        assert z0.imag > 0 and z1.imag > 0
        assert abs(z0 - z1) > mp.mpf("0.1")


class TestLogVectors:
    def test_unit_sums_to_zero(self, m7, plastic):
        emb = embeddings(m7, 128)
        vec = log_vector(emb, m7.gen())
        assert len(vec) == 3
        emb2 = embeddings(plastic, 128)
        vec2 = log_vector(emb2, plastic.gen())
        assert len(vec2) == 2
        with mp.workprec(220):
            assert abs(sum(vec)) < mp.mpf(2) ** -60
            assert abs(sum(vec2)) < mp.mpf(2) ** -60

    def test_rejects_non_unit(self, plastic):
        emb = embeddings(plastic, 128)
        with pytest.raises(NonUnitError):
            log_vector(emb, 2 * plastic.gen())

    def test_weighted_abs_logs_track_the_norm(self, plastic):
        # N(2 alpha) = 8 N(alpha), so the weighted logs add up to ln 8
        emb = embeddings(plastic, 128)
        elem = 2 * plastic.gen()
        with mp.workprec(220):
            total = mp.mpf(0)
            for index in range(emb.count):
                enc = emb.log_abs_enclosure(elem, index)
                mid = (mp.mpf(enc.a) + mp.mpf(enc.b)) / 2
                total += mid if emb.is_real(index) else 2 * mid
            assert abs(total - mp.log(8)) < mp.mpf(2) ** -60


class TestMultiplicativeRank:
    def test_rank_two_with_independent_minor(self, m7):
        alpha = m7.gen()
        sigma_alpha = m7.from_coords((-2, 0, 1))
        # oracle: the 2x2 minor of the log matrix is bounded away from zero
        with mp.workprec(200):
            r = _cos_roots()
            la = [mp.log(abs(x)) for x in r]
            ls = [mp.log(abs(x ** 2 - 2)) for x in r]
            minor = la[0] * ls[1] - la[1] * ls[0]
            assert abs(minor) > mp.mpf("0.5")
        assert multiplicative_rank(m7, [alpha, sigma_alpha], 128) == 2

    def test_dependent_sets(self, m7):
        alpha = m7.gen()
        assert multiplicative_rank(m7, [alpha, alpha ** 2], 128) == 1
        assert multiplicative_rank(m7, [alpha, -alpha], 128) == 1
        assert multiplicative_rank(m7, [m7.from_rational(-1)], 128) == 0
        assert multiplicative_rank(m7, [], 128) == 0

    def test_full_conjugate_set_has_rank_two(self, m7):
        # the product of all conjugates is the norm, a root of unity, so
        # three conjugates only span a rank-2 lattice
        tau = galois_generator(m7)
        alpha = m7.gen()
        units = [alpha, tau.apply(alpha), tau.power(2).apply(alpha)]
        assert multiplicative_rank(m7, units, 128) == 2

    def test_rejects_non_units(self, m7):
        with pytest.raises(NonUnitError):
            multiplicative_rank(m7, [m7.from_rational(2)], 128)

    def test_plastic_rank_one(self, plastic):
        assert multiplicative_rank(plastic, [plastic.gen()], 128) == 1

    def test_rank_invariant_under_group_moves(self, m7):
        # replacing u by 1/u or by u*v (v in the span) keeps the rank
        alpha = m7.gen()
        sigma_alpha = m7.from_coords((-2, 0, 1))
        base = multiplicative_rank(m7, [alpha, sigma_alpha], 128)
        assert base == 2
        assert multiplicative_rank(m7, [alpha.inverse(), sigma_alpha], 128) == base
        assert multiplicative_rank(m7, [alpha, sigma_alpha * alpha], 128) == base
        assert multiplicative_rank(m7, [alpha * sigma_alpha ** 2, sigma_alpha], 128) == base


class TestRankProof:
    """A full rank is proven by one interval minor at the requested bits;
    anything else falls back to the stability pass at bits and 2*bits."""

    def test_full_rank_is_proven_at_the_requested_precision(self, m7, refined_bits):
        units = [m7.gen(), m7.from_coords((-2, 0, 1))]
        assert multiplicative_rank(m7, units, 256) == 2
        assert refined_bits == [256 + GUARD_BITS]

    def test_projected_full_rank_with_more_units_than_coords(self, m7, refined_bits):
        # three conjugates span rank 2; any two places see all of it
        tau = galois_generator(m7)
        alpha = m7.gen()
        units = [alpha, tau.apply(alpha), tau.power(2).apply(alpha)]
        assert projected_log_rank(m7, units, (0, 1), 128) == 2
        assert refined_bits == [128 + GUARD_BITS]

    @pytest.mark.parametrize(
        "make_units, coords",
        [
            (lambda a: [a, a ** 2], None),
            (lambda a: [a, -a], None),
            (lambda a: [a, a ** 2, -a], (0, 1)),
        ],
        ids=["u-u2", "u-minus-u", "projected-3-units-2-coords"],
    )
    def test_rank_deficient_units_fall_back(self, m7, refined_bits, make_units, coords):
        units = make_units(m7.gen())
        assert embeddings_module._proved_full_rank(m7, units, 128, coords) is None
        if coords is None:
            assert multiplicative_rank(m7, units, 128) == 1
        else:
            assert projected_log_rank(m7, units, coords, 128) == 1
        # the stability pass re-verifies at doubled precision
        assert refined_bits == [128 + GUARD_BITS, 256 + GUARD_BITS]

    def test_minor_with_a_pivot_touching_zero_is_refused(self, m7, monkeypatch):
        units = [m7.gen(), m7.from_coords((-2, 0, 1))]
        assert embeddings_module._proved_full_rank(m7, units, 128, None) == 2
        original = EmbeddingSet.log_abs_enclosure

        def widened(self, elem, index):
            # same midpoints, so the midpoint rank is still 2; the first
            # pivot, about -0.81 +- 0.5, excludes zero and the second
            # touches it
            return original(self, elem, index) + iv.mpf([-0.5, 0.5])

        monkeypatch.setattr(EmbeddingSet, "log_abs_enclosure", widened)
        assert embeddings_module._proved_full_rank(m7, units, 128, None) is None
        # the fallback's log vectors are too wide at every level
        with pytest.raises(PrecisionError):
            multiplicative_rank(m7, units, 128)

    def test_projected_rank_rejects_non_units(self, m7):
        with pytest.raises(NonUnitError):
            projected_log_rank(m7, [m7.gen(), m7.from_rational(2)], (0,), 128)


class TestVerifyRatioWitness:
    def test_accepts_true_ratio(self, m7):
        emb = embeddings(m7, 128)
        with mp.workprec(200):
            ratio = _cos_roots()[2]  # largest root, embedding index 2
            ratio_sqrt = mp.sqrt(ratio)
        assert verify_ratio_witness(emb, m7.gen(), 2, ratio)
        # an exponent-2 witness certifies a square root of the modulus
        assert verify_ratio_witness(emb, m7.gen(), 2, ratio_sqrt, exponent=2)
        assert not verify_ratio_witness(emb, m7.gen(), 2, ratio, exponent=2)

    def test_rejects_wrong_ratio(self, m7):
        emb = embeddings(m7, 128)
        assert not verify_ratio_witness(emb, m7.gen(), 2, mp.mpf("1.3"))

    def test_rejects_non_unit_witness(self, m7):
        emb = embeddings(m7, 128)
        with pytest.raises(NonUnitError):
            verify_ratio_witness(emb, m7.from_rational(2), 0, mp.mpf(2))

    def test_rejects_bad_exponent(self, m7):
        emb = embeddings(m7, 128)
        with pytest.raises(InputError):
            verify_ratio_witness(emb, m7.gen(), 0, mp.mpf(1), exponent=0)


class TestPrecisionControls:
    def test_validate_bounds(self):
        assert validate_precision(64) == 64
        assert validate_precision(4096) == 4096
        for bad in (63, 4097, "128"):
            with pytest.raises(InputError):
                validate_precision(bad)

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("LCPFORGE_PRECISION", raising=False)
        assert default_precision() == 128
        monkeypatch.setenv("LCPFORGE_PRECISION", "256")
        assert default_precision() == 256
        monkeypatch.setenv("LCPFORGE_PRECISION", "abc")
        with pytest.raises(InputError):
            default_precision()
        monkeypatch.setenv("LCPFORGE_PRECISION", "32")
        with pytest.raises(InputError):
            default_precision()

    def test_tolerance(self):
        assert tolerance(128) == mp.mpf(2) ** -64

    def test_cache_identity(self, m7):
        assert embeddings(m7, 128) is embeddings(m7, 128)

    def test_immutable(self, m7):
        emb = embeddings(m7, 128)
        assert isinstance(emb, EmbeddingSet)
        with pytest.raises(AttributeError):
            emb.bits = 0

    def test_escalation_error_names_the_last_precision_tried(self, monkeypatch):
        tried = []

        def refuse(poly, intervals, workbits):
            tried.append(workbits)
            raise NeedsEscalation("refused at %d" % workbits)

        monkeypatch.setattr(embeddings_module, "_refined_real_roots", refuse)
        with pytest.raises(PrecisionError, match=r"failed up to 512 bits: refused at 544"):
            certified_poly_roots(PLASTIC, 128)
        assert tried == [b + GUARD_BITS for b in (128, 256, 512)]

    def test_one_sturm_chain_serves_every_attempt(self, monkeypatch):
        # the real roots are counted as the isolating intervals, and each
        # escalation refines those same intervals at its own precision
        chains, attempts = [], []

        class CountedChain(polynomials_module.SturmChain):
            __slots__ = ()

            def __init__(self, p):
                chains.append(p)
                super().__init__(p)

        original = embeddings_module._refined_real_roots

        def escalate_twice(poly, intervals, workbits):
            attempts.append(intervals)
            if len(attempts) < 3:
                raise NeedsEscalation("refused at %d" % workbits)
            return original(poly, intervals, workbits)

        monkeypatch.setattr(polynomials_module, "SturmChain", CountedChain)
        monkeypatch.setattr(embeddings_module, "_refined_real_roots", escalate_twice)
        real, disks, workbits = certified_poly_roots(PLASTIC, 128)
        assert chains == [PLASTIC]
        assert len(real) == 1 and len(disks) == 1 and workbits == 512 + GUARD_BITS
        assert attempts[0] is attempts[1] is attempts[2]
