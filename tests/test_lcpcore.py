"""Tests for block decompositions, similarity checks, and metric assembly.

Numeric oracles are high-precision cosine values for the eigenvalues of
the degree-3 example and closed forms for the quadratic one; structural
expectations (block shapes, exact zeros, functional coefficients) are
frozen from hand derivations.
"""

import random
from fractions import Fraction as QQ
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import iv, mp
from mpmath.libmp import libelefun, libintmath

import mpmath.ctx_mp_python
import lcpforge.lcpcore as lcpcore_module
import lcpforge.constructions as constructions_module
import lcpforge.rawmetric as rawmetric_module
from lcpforge.certio import load_certificate
from lcpforge.embeddings import GUARD_BITS, _at_prec, embeddings, tolerance
from lcpforge.constructions import (
    _match_block_embeddings,
    make_kourganoff,
    make_ot,
    make_rank_n_lcp,
    verify_certificate,
)
from lcpforge.errors import (
    CheckFailureError,
    InputError,
    NeedsEscalation,
    PrecisionError,
    StructureError,
)
from lcpforge.intlinalg import IntMatrix, char_poly, matrix_from_string
from lcpforge.lcpcore import (
    _CROSS_BISECT_STEPS,
    _CROSS_GRID,
    SAMPLES,
    AffineFunctional,
    CrossTerm,
    RatioMatrix,
    add_cross_terms,
    _grid_points,
    _sample_points,
    _to_mpf,
    build_metric_spec,
    check_J1,
    check_J2,
    conjugated_numeric,
    find_block_decomposition,
    lcp_rank,
    solve_equivariant_functional,
    verify_equivariance,
)
from lcpforge.numberfield import field_new, mult_matrix
from lcpforge.polynomials import IntPoly
from oracles import real_subfield_minpoly

M7 = real_subfield_minpoly(7)
PLASTIC = IntPoly((-1, -1, 0, 1))
QUARTIC = IntPoly((-1, -1, 0, 0, 1))
SALEM = IntPoly((1, -1, -1, -1, 1))  # x^4 - x^3 - x^2 - x + 1


def _cos_roots(prec=240):
    # ascending roots of the degree-3 polynomial: 2cos(6pi/7) < 2cos(4pi/7) < 2cos(2pi/7)
    with mp.workprec(prec):
        return [2 * mp.cos(2 * mp.pi * k / 7) for k in (3, 2, 1)]


def _gram(spec, x):
    """The metric's gram matrix at base log-coordinates x, as mpf: the
    point is rounded to the working precision and handed to
    rawmetric.metric_gram."""
    with _at_prec(spec.decomposition.workbits):
        x = [rawmetric_module.to_dyadic(t) for t in x]
    gram = rawmetric_module.metric_gram(rawmetric_module.MetricTerms(spec), x)
    return [[rawmetric_module.from_dyadic(g) for g in row] for row in gram]


@pytest.fixture(scope="module")
def rank2_matrices():
    field = field_new(M7)
    a1 = mult_matrix(field.gen())
    a2 = mult_matrix(field.from_int_poly(IntPoly((-2, 0, 1))))
    return a1, a2


@pytest.fixture(scope="module")
def rank2_setup(rank2_matrices):
    a1, a2 = rank2_matrices
    decomp = find_block_decomposition([a1, a2], 128)
    ratios = check_J1(decomp, [a1, a2])
    return decomp, ratios


@pytest.fixture(scope="module")
def rank2_tagged(rank2_setup):
    # block k of the descending order matches ascending embedding 2 - k
    _, ratios = rank2_setup
    field = field_new(M7)
    alpha = field.gen()
    sigma_alpha = field.from_coords((-2, 0, 1))
    return ratios.with_witnesses([alpha, sigma_alpha], [2 - k for k in range(3)])


@pytest.fixture(scope="module")
def rank2_metric(rank2_setup):
    decomp, ratios = rank2_setup
    with mp.workprec(decomp.workbits):
        v1 = (mp.log(ratios.entries[0][0]), mp.mpf(0))
        v2 = (mp.mpf(0), mp.log(ratios.entries[1][0]))
    return build_metric_spec(ratios, 0, [v1, v2])


@pytest.fixture(scope="module")
def squared_metric(rank2_matrices):
    # squared generators scale every block by a positive factor, which is
    # what the cross-term covariance check needs
    a1, a2 = rank2_matrices
    b1, b2 = a1 * a1, a2 * a2
    decomp = find_block_decomposition([b1, b2], 128)
    ratios = check_J1(decomp, [b1, b2])
    with mp.workprec(decomp.workbits):
        v1 = (mp.log(ratios.entries[0][0]), mp.mpf(0))
        v2 = (mp.mpf(0), mp.log(ratios.entries[1][0]))
    return build_metric_spec(ratios, 0, [v1, v2])


def _with_generator(spec, matrix, translation, ratio_row):
    """spec with one more generator after its own: a lattice map, its base
    translation and its ratio row.  The sample points span every
    translation, so they still span the lattice of spec's own."""
    ratios = spec.ratios
    extended = RatioMatrix(
        ratios.entries + (tuple(ratio_row),),
        ratios.decomposition,
        ratios.generators + (matrix,),
    )
    return spec.replace(ratios=extended, translations=spec.translations + (tuple(translation),))


class TestBlockDecomposition:
    def test_rank2_block_structure(self, rank2_setup):
        decomp, _ = rank2_setup
        assert decomp.p == 3
        assert decomp.delta == 3
        assert decomp.blocks == ((0, 1), (1, 1), (2, 1))

    def test_basis_column_matches_exact_eigenvector(self, rank2_setup):
        # first basis column spans (1, alpha + alpha^2, alpha)
        decomp, _ = rank2_setup
        with mp.workprec(220):
            alpha = _cos_roots()[2]
            exact = [mp.mpf(1), alpha + alpha ** 2, alpha]
            col = [decomp.basis[i][0] for i in range(3)]
            scaled = [c / col[0] for c in col]
            for got, want in zip(scaled, exact):
                assert abs(got - want) < mp.mpf(2) ** -120

    def test_ratios_are_conjugate_moduli(self, rank2_setup):
        _, ratios = rank2_setup
        with mp.workprec(220):
            r3, r2, r1 = _cos_roots()  # ascending
            # generator 0 has eigenvalues (r1, r2, r3) on the descending blocks
            want0 = [abs(r1), abs(r2), abs(r3)]
            want1 = [abs(r2), abs(r3), abs(r1)]
            for got, want in zip(ratios.entries[0], want0):
                assert abs(got - want) < mp.mpf(2) ** -100
            for got, want in zip(ratios.entries[1], want1):
                assert abs(got - want) < mp.mpf(2) ** -100

    def test_quadratic_matrix(self):
        b = matrix_from_string("1,1;1,2")
        decomp = find_block_decomposition([b], 128)
        assert decomp.blocks == ((0, 1), (1, 1))
        ratios = check_J1(decomp, [b])
        with mp.workprec(220):
            expanding = (3 + mp.sqrt(5)) / 2
            contracting = (3 - mp.sqrt(5)) / 2
            assert abs(ratios.entries[0][0] - expanding) < mp.mpf(2) ** -100
            assert abs(ratios.entries[0][1] - contracting) < mp.mpf(2) ** -100

    def test_complex_pair_block(self):
        m = mult_matrix(field_new(PLASTIC).gen())
        decomp = find_block_decomposition([m], 128)
        assert decomp.blocks == ((0, 1), (1, 2))
        ratios = check_J1(decomp, [m])
        with mp.workprec(220):
            # the real scaling times the squared pair modulus is the norm
            prod = ratios.entries[0][0] * ratios.entries[0][1] ** 2
            assert abs(prod - 1) < mp.mpf(2) ** -64

    def test_splitter_falls_back_to_a_seeded_combination(self):
        # diag(A, I) and diag(I, B) each repeat the eigenvalue 1, so the
        # splitter is the first seeded integer combination with distinct
        # eigenvalues, returned with its characteristic polynomial
        gens = [
            matrix_from_string("2,1,0,0;1,1,0,0;0,0,1,0;0,0,0,1"),
            matrix_from_string("1,0,0,0;0,1,0,0;0,0,3,1;0,0,2,1"),
        ]
        splitter, chi = lcpcore_module._pick_splitter(gens)
        assert splitter == matrix_from_string("-1,-2,0,0;-2,1,0,0;0,0,7,3;0,0,6,1")
        assert chi == char_poly(splitter) == IntPoly((55, 40, -16, -8, 1))
        assert find_block_decomposition(gens, 128).blocks == tuple((k, 1) for k in range(4))

    def test_identity_family_rejected(self):
        with pytest.raises(StructureError):
            find_block_decomposition([IntMatrix.identity(2)], 128)

    def test_single_rotation_block_rejected(self):
        with pytest.raises(StructureError):
            find_block_decomposition([matrix_from_string("0,-1;1,0")], 128)

    def test_non_commuting_rejected(self, rank2_matrices):
        a1, _ = rank2_matrices
        with pytest.raises(InputError):
            find_block_decomposition([a1, matrix_from_string("1,0,0;1,1,0;0,0,1")], 128)

    def test_non_commuting_family_with_a_combined_splitter_rejected(self):
        # neither member has distinct eigenvalues, so the splitter is a
        # seeded combination of both; the swap of coordinates 0 and 2 does
        # not commute with diag(A, I), and neither commutes with the splitter
        gens = [
            matrix_from_string("2,1,0,0;1,1,0,0;0,0,1,0;0,0,0,1"),
            matrix_from_string("0,0,1,0;0,1,0,0;1,0,0,0;0,0,0,1"),
        ]
        splitter, _ = lcpcore_module._pick_splitter(gens)
        assert splitter not in gens
        with pytest.raises(InputError, match="do not commute"):
            find_block_decomposition(gens, 128)

    def test_non_lattice_map_rejected(self):
        with pytest.raises(InputError):
            find_block_decomposition([matrix_from_string("2,0;0,1")], 128)

    def test_escalation_error_names_the_last_precision_tried(self, monkeypatch, rank2_matrices):
        tried = []

        def refuse(family, splitter, chi, precision, attempt):
            tried.append(attempt)
            raise NeedsEscalation("refused at %d" % attempt)

        monkeypatch.setattr(lcpcore_module, "_decompose_at", refuse)
        with pytest.raises(PrecisionError, match=r"failed up to 256 bits: refused at 256"):
            find_block_decomposition(list(rank2_matrices), 128)
        assert tried == [128, 256]

    def test_dimension_one_rejected(self):
        with pytest.raises(StructureError):
            find_block_decomposition([IntMatrix(((1,),))], 128)


class TestJ1:
    def test_off_block_leakage_fails(self, rank2_setup):
        decomp, _ = rank2_setup
        # a lattice map that does not commute with the family cannot
        # preserve the eigenblocks
        stranger = matrix_from_string("1,1,0;0,1,0;0,0,1")
        with pytest.raises(
            CheckFailureError,
            match="generator 0 does not commute with the splitter; blocks are not invariant",
        ):
            check_J1(decomp, [stranger])

    def test_ratio_rows_multiplicative(self, rank2_setup, rank2_matrices):
        decomp, ratios = rank2_setup
        a1, a2 = rank2_matrices
        tol = tolerance(decomp.precision_bits)
        with mp.workprec(decomp.workbits):
            prod = check_J1(decomp, [a1 * a2]).entries[0]
            for k in range(decomp.delta):
                assert abs(prod[k] - ratios.entries[0][k] * ratios.entries[1][k]) < 8 * tol
            cube = check_J1(decomp, [a1 * a1 * a2]).entries[0]
            for k in range(decomp.delta):
                want = ratios.entries[0][k] ** 2 * ratios.entries[1][k]
                assert abs(cube[k] - want) < 16 * tol


@pytest.mark.parametrize(
    "c, idx",
    [
        ([[iv.mpf([-0.5, 0.5])]], [0]),
        ([[iv.mpf([-0.5, 0.5]), iv.mpf(0)], [iv.mpf(0), iv.mpf(1)]], [0, 1]),
    ],
    ids=["real-block", "plane"],
)
def test_a_ratio_enclosure_touching_zero_is_a_precision_shortfall(c, idx):
    # a GL(p, Z) matrix acts on an invariant block by |nu| > 0, so J1 does
    # not seal a FAILED certificate here: it asks for more precision
    with mp.workprec(64), pytest.raises(PrecisionError, match="J1"):
        lcpcore_module._block_ratio(c, idx, 0, 0)


def _frozen_block_ratio(c, idx, tol, gen_index, block_index):
    """_block_ratio of the tolerance design, frozen: the reference for the
    ratios the exact J1 reads."""
    if len(idx) == 1:
        i = idx[0]
        enc = abs(c[i][i])
        if mp.mpf(enc.a) <= 0:
            raise CheckFailureError(
                "generator %d block %d: ratio not certified positive"
                % (gen_index, block_index)
            )
        return lcpcore_module._mid(enc)
    i, j = idx
    m = [[c[i][i], c[i][j]], [c[j][i], c[j][j]]]
    g00 = m[0][0] * m[0][0] + m[1][0] * m[1][0]
    g11 = m[0][1] * m[0][1] + m[1][1] * m[1][1]
    g01 = m[0][0] * m[0][1] + m[1][0] * m[1][1]
    if mp.mpf(abs(g01).b) > tol:
        raise CheckFailureError(
            "generator %d block %d: action is not conformal (skew residual)"
            % (gen_index, block_index)
        )
    if mp.mpf(abs(g00 - g11).b) > tol:
        raise CheckFailureError(
            "generator %d block %d: action is not a similarity (unequal "
            "column norms)" % (gen_index, block_index)
        )
    lo = min(mp.mpf(g00.a), mp.mpf(g11.a))
    hi = max(mp.mpf(g00.b), mp.mpf(g11.b))
    if lo <= 0:
        raise CheckFailureError(
            "generator %d block %d: ratio not certified positive"
            % (gen_index, block_index)
        )
    hull = iv.mpf([lo, hi])
    return lcpcore_module._mid(iv.sqrt(hull))


def _frozen_ratios_of_matrix(decomp, a, tol, gen_index):
    """_ratios_of_matrix of the tolerance design, frozen, with its
    off-block scan."""
    c = lcpcore_module.restricted_blocks(decomp, a)
    with _at_prec(decomp.workbits):
        block_of = {}
        for k in range(decomp.delta):
            for i in decomp.block_indices(k):
                block_of[i] = k
        for i in range(decomp.p):
            for j in range(decomp.p):
                if block_of[i] != block_of[j] and mp.mpf(abs(c[i][j]).b) > tol:
                    raise CheckFailureError(
                        "generator %d: off-block entry (%d, %d) exceeds "
                        "tolerance; blocks are not invariant" % (gen_index, i, j)
                    )
        return [
            _frozen_block_ratio(c, list(decomp.block_indices(k)), tol, gen_index, k)
            for k in range(decomp.delta)
        ]


class _StopAfterJ1(Exception):
    pass


def _quartic_lck(bits):
    field = field_new(QUARTIC)
    units = [field.from_coords((0, 1, 0, 0)), field.from_coords((-1, 1, 0, 0))]
    return make_ot(QUARTIC, units, bits, lck=True)


J1_PIPELINES = {
    **{"ranklcp-%d" % n: (lambda bits, n=n: make_rank_n_lcp(n, bits)) for n in range(1, 9)},
    "kourganoff-q1": lambda bits: make_kourganoff(1, matrix_from_string("2,1;1,1"), bits),
    "kourganoff-q2": lambda bits: make_kourganoff(
        2, matrix_from_string("0,0,1;1,0,1;0,1,0"), bits
    ),
    "ot-plastic": lambda bits: make_ot(PLASTIC, [field_new(PLASTIC).gen()], bits),
    "ot-lck-quartic": _quartic_lck,
}


@pytest.mark.parametrize("bits", [128, 512])
@pytest.mark.parametrize("pipeline", list(J1_PIPELINES))
def test_exact_J1_reads_the_ratios_of_the_tolerance_design(monkeypatch, pipeline, bits):
    # each pipeline stops after J1; its ratios equal, bit for bit, the
    # frozen tolerance design's on the same decomposition and generators
    def compare(decomp, gens):
        got = check_J1(decomp, gens).entries
        tol = tolerance(decomp.precision_bits)
        want = [_frozen_ratios_of_matrix(decomp, g, tol, i) for i, g in enumerate(gens)]
        assert [[x._mpf_ for x in row] for row in got] == [
            [x._mpf_ for x in row] for row in want
        ]
        raise _StopAfterJ1

    monkeypatch.setattr(constructions_module, "check_J1", compare)
    with pytest.raises(_StopAfterJ1):
        J1_PIPELINES[pipeline](bits)


def _tagged(matrices, units):
    # ratios of the family, with each block matched to the embedding that
    # witnesses it, as the pipelines do
    decomp = find_block_decomposition(matrices, 128)
    ratios = check_J1(decomp, matrices)
    emb = embeddings(units[0].field, 128)
    block_emb = _match_block_embeddings(emb, units, ratios)
    return ratios.with_witnesses(units, block_emb), decomp


def _plane_block(decomp):
    return next(k for k, (_, size) in enumerate(decomp.blocks) if size == 2)


class TestJ2:
    def test_rank2_flat_is_not_isometric(self, rank2_tagged):
        assert check_J2(rank2_tagged, 0) is True

    def test_isometric_flat_block(self):
        # diag(1, -1) acts with ratio exactly one on both eigenlines; its
        # witnesses are +-1 in the rationals, at the rationals' one place
        m = matrix_from_string("1,0;0,-1")
        decomp = find_block_decomposition([m], 128)
        ratios = check_J1(decomp, [m])
        one = field_new(IntPoly((-1, 1))).one()
        for unit in (one, -one):
            witnessed = ratios.with_witnesses([unit], [0, 0])
            assert check_J2(witnessed, 0) is False
            assert check_J2(witnessed, 1) is False

    def test_complex_place_decided_by_enclosure(self):
        # kourganoff --q 2: the contracted complement is a rotation plane
        m = matrix_from_string("0,0,1;1,0,1;0,1,0")
        ratios, decomp = _tagged([m], [field_new(char_poly(m)).gen()])
        assert check_J2(ratios, _plane_block(decomp)) is True

    def test_salem_rotation_plane_is_undecided(self):
        # a Salem unit has modulus exactly one at its complex place, which
        # no enclosure can tell apart from a non-isometry
        alpha = field_new(SALEM).gen()
        ratios, decomp = _tagged([mult_matrix(alpha)], [alpha])
        with pytest.raises(PrecisionError):
            check_J2(ratios, _plane_block(decomp))

    def test_one_non_isometric_row_decides(self):
        # alpha - 1 is a unit (its norm is SALEM(1) = -1) whose modulus at
        # the complex place is |e^(i theta) - 1| != 1
        alpha = field_new(SALEM).gen()
        ratios, decomp = _tagged(
            [mult_matrix(alpha), mult_matrix(alpha - 1)], [alpha, alpha - 1]
        )
        assert check_J2(ratios, _plane_block(decomp)) is True

    def test_witnesses_required(self, rank2_setup):
        _, ratios = rank2_setup
        with pytest.raises(InputError):
            check_J2(ratios, 0)

    def test_flat_index_validated(self, rank2_tagged):
        with pytest.raises(InputError):
            check_J2(rank2_tagged, 5)


class TestFunctionalSolver:
    def test_exact_solution(self):
        with mp.workprec(200):
            v1 = (mp.log(2), mp.mpf(0))
            v2 = (mp.mpf(0), mp.log(3))
            targets = (mp.log(2) * mp.mpf("4.5"), -mp.log(3))
        f = solve_equivariant_functional([v1, v2], targets, 128)
        with mp.workprec(200):
            assert abs(f.coeffs[0] - mp.mpf("4.5")) < mp.mpf(2) ** -60
            assert abs(f.coeffs[1] + 1) < mp.mpf(2) ** -60

    def test_inconsistent_targets_rejected(self):
        with pytest.raises(StructureError):
            solve_equivariant_functional([(1, 0), (2, 0)], (1, 3), 128)

    def test_underdetermined_system_solved(self):
        f = solve_equivariant_functional([(2, 0)], (5,), 128)
        with mp.workprec(200):
            assert abs(f.shift((2, 0)) - 5) < mp.mpf(2) ** -60
            assert f.coeffs[1] == 0

    def test_shape_validation(self):
        with pytest.raises(InputError):
            solve_equivariant_functional([(1, 0)], (1, 2), 128)
        with pytest.raises(InputError):
            solve_equivariant_functional([], (), 128)


class TestMetricAssembly:
    def test_functional_increments_match_ratios(self, rank2_metric):
        spec = rank2_metric
        tol = tolerance(spec.decomposition.precision_bits)
        with mp.workprec(spec.decomposition.workbits):
            for j, v in enumerate(spec.translations):
                lam1 = spec.ratios.entries[j][spec.flat_block]
                for k in range(spec.decomposition.delta):
                    want = mp.log(lam1 / spec.ratios.entries[j][k])
                    got = spec.functionals[k].shift(v)
                    assert abs(got - want) < tol
                got0 = spec.base_conformal.shift(v)
                assert abs(got0 - mp.log(lam1)) < tol

    def test_block_diagonal_with_exact_zeros(self, rank2_metric):
        spec = rank2_metric
        gram = _gram(spec, [QQ(1, 4), QQ(-2, 3)])
        total = spec.total_dim
        assert total == 5
        for i in range(total):
            for j in range(total):
                if i != j:
                    assert gram[i][j] == 0
                else:
                    assert gram[i][j] > 0
        # flat block carries the identity form
        assert gram[0][0] == 1

    def test_flat_block_index_validated(self, rank2_setup):
        decomp, ratios = rank2_setup
        with pytest.raises(InputError):
            build_metric_spec(ratios, 7, [(1, 0), (0, 1)])


class TestEquivariance:
    def test_rank2_residuals(self, rank2_metric, metric_evaluations):
        # one pair per generator, from SAMPLES = 100 points: h(x) once per
        # point, h(x + v) once per point and generator
        results = verify_equivariance(rank2_metric, 0)
        assert len(results) == 2
        assert len(metric_evaluations) == 100 * (2 + 1) == SAMPLES * 3
        for residual, verdict in results:
            assert verdict is True
            with mp.workprec(200):
                assert residual < mp.mpf("1e-25")
                assert residual < mp.mpf(2) ** -64

    def test_identity_generator_zero_residual(self, rank2_metric):
        spec = _with_generator(rank2_metric, IntMatrix.identity(3), (0, 0), (1, 1, 1))
        residual, verdict = verify_equivariance(spec, 0)[-1]
        assert verdict is True
        assert residual == 0

    def test_perturbation_flips_verdict(self, rank2_metric):
        spec = rank2_metric
        with mp.workprec(200):
            f1 = spec.functionals[1]
            bumped = AffineFunctional((f1.coeffs[0] + mp.mpf("0.001"), f1.coeffs[1]))
        bad = spec.replace(
            functionals=(spec.functionals[0], bumped, spec.functionals[2])
        )
        _, verdict = verify_equivariance(bad, 0)[0]
        assert verdict is False

    def test_seeded_samples_reproduce(self, rank2_metric):
        r1, _ = verify_equivariance(rank2_metric, 42)[0]
        r2, _ = verify_equivariance(rank2_metric, 42)[0]
        assert r1 == r2
        r3, _ = verify_equivariance(rank2_metric, 43)[0]
        assert r3 != r1


@pytest.fixture
def metric_evaluations(monkeypatch):
    """One entry per metric evaluation the test makes: rawmetric.metric_gram
    is the one evaluator, behind the sampled check."""
    calls = []
    original = rawmetric_module.metric_gram

    def counting(terms, x, *exps):
        calls.append(len(x))
        return original(terms, x, *exps)

    monkeypatch.setattr(rawmetric_module, "metric_gram", counting)
    return calls


class TestEquivarianceInputs:
    def test_no_sample_points_is_refused(self):
        # without the base conformal factor the metric is not equivariant,
        # which the SAMPLES = 100 points see; the check has no sample count
        # to set, so it never runs on no points at all
        (spec,) = _pipeline_equivariance_inputs(lambda: make_rank_n_lcp(2, 128, seed=0))
        bad = spec.replace(base_conformal=AffineFunctional([0] * spec.n))
        assert not all(verdict for _, verdict in verify_equivariance(bad, 0))

    @pytest.mark.parametrize("special", [mp.inf, -mp.inf, mp.nan])
    def test_special_values_are_refused(self, rank2_metric, special):
        # inf and nan have libmp mantissa 0; the kernel must not read them
        # as zero
        spec = rank2_metric
        a, row = spec.ratios.generators[0], spec.ratios.entries[0]
        with pytest.raises(InputError):
            verify_equivariance(_with_generator(spec, a, (special, 0), row), 0)
        with pytest.raises(InputError):
            _gram(spec, [special, 0])

    def test_one_metric_evaluation_per_point_and_generator(self, metric_evaluations):
        # h(x) once per sample point for all generators, h(x + v) once per
        # point and generator: 100 * (4 + 1) for the four rank-4 generators
        make_rank_n_lcp(4, 128, seed=0)
        assert len(metric_evaluations) == 100 * (4 + 1)


def _mpf_functional(f, x):
    """Reference functional evaluation: c . x, the constant being zero, as
    a loop of mp.mpf operators summed from zero."""
    acc = mp.mpf(0)
    for c, xi in zip(f.coeffs, x):
        acc += _to_mpf(c) * _to_mpf(xi)
    return acc


def _mpf_grid_points(spec):
    """Reference grid: _grid_points as a loop of mp.mpf operators at the
    current precision."""
    g = len(spec.translations)
    n = spec.n
    if g == 0 or n == 0:
        return [tuple([mp.mpf(0)] * n)]
    translations = [[_to_mpf(c) for c in v] for v in spec.translations]
    pts = []
    for flat in range(_CROSS_GRID ** g):
        rem = flat
        x = [mp.mpf(0)] * n
        for v in translations:
            cell = rem % _CROSS_GRID
            rem //= _CROSS_GRID
            t = mp.mpf(2 * cell + 1) / (2 * _CROSS_GRID)
            for i in range(n):
                x[i] += t * v[i]
        pts.append(tuple(x))
    return pts


def _mpf_sample_points(spec, samples, seed, workbits):
    """Reference sample points: _sample_points as a loop of mp.mpf
    operators, drawing the same seeded 48-bit weights."""
    rng = random.Random(seed)
    n = spec.n
    pts = []
    with _at_prec(workbits):
        translations = [[_to_mpf(c) for c in v] for v in spec.translations]
        for _ in range(samples):
            x = [mp.mpf(0)] * n
            for v in translations:
                t = mp.mpf(rng.getrandbits(48)) / mp.mpf(2 ** 48)
                for i in range(n):
                    x[i] += t * v[i]
            pts.append(tuple(x))
    return pts


def _mpf_gram(spec, point):
    """Reference metric: the gram matrix as a loop of mp.mpf
    operators, converting every coefficient on each use; a cross term adds
    its scale times the all-ones table."""
    decomp = spec.decomposition
    p, n, total = decomp.p, spec.n, spec.total_dim
    with _at_prec(decomp.workbits):
        x = [_to_mpf(t) for t in point[p:p + n]]
        gram = [[mp.mpf(0) for _ in range(total)] for _ in range(total)]
        for k in range(decomp.delta):
            if k == spec.flat_block:
                scale = mp.mpf(1)
            else:
                scale = mp.exp(2 * _mpf_functional(spec.functionals[k], x))
            for i in decomp.block_indices(k):
                gram[i][i] = scale
        base_scale = mp.exp(2 * _mpf_functional(spec.base_conformal, x))
        for i in range(n):
            gram[p + i][p + i] = base_scale
        for term in spec.cross_terms:
            scale = _to_mpf(term.epsilon) * mp.exp(2 * _mpf_functional(term.functional, x))
            for i in decomp.block_indices(term.k):
                for j in decomp.block_indices(term.k2):
                    gram[i][j] += scale
                    gram[j][i] += scale
        return gram


def _dense_max_residual(spec, j, seed):
    """Reference pullback of generator j of spec: J^T H J entry by entry
    over the full Jacobian J = diag(C, I), as an O(dim^4) loop of mp.mpf
    operators on the reference metric; same samples and scaling as
    verify_equivariance."""
    decomp = spec.decomposition
    p, total = decomp.p, spec.total_dim
    workbits = decomp.workbits
    c = conjugated_numeric(decomp, spec.ratios.generators[j])
    pts = _mpf_sample_points(spec, SAMPLES, seed, workbits)

    def jac(a, i):
        return c[a][i] if (a < p and i < p) else mp.mpf(1 if a == i else 0)

    with _at_prec(workbits):
        lam1 = mp.mpf(spec.ratios.entries[j][spec.flat_block])
        lam1_sq = lam1 * lam1
        v = [_to_mpf(t) for t in spec.translations[j]]
        max_residual = mp.mpf(0)
        for x in pts:
            h_here = _mpf_gram(spec, [mp.mpf(0)] * p + list(x))
            h_there = _mpf_gram(
                spec, [mp.mpf(0)] * p + [xi + vi for xi, vi in zip(x, v)]
            )
            pulled = [[mp.mpf(0)] * total for _ in range(total)]
            for i in range(total):
                for j in range(total):
                    acc = mp.mpf(0)
                    for a in range(total):
                        ja = jac(a, i)
                        if not ja:
                            continue
                        inner = mp.mpf(0)
                        for b in range(total):
                            jb = jac(b, j)
                            if jb:
                                inner += h_there[a][b] * jb
                        acc += ja * inner
                    pulled[i][j] = acc
            scale = max(
                (abs(lam1_sq * h_here[i][j]) for i in range(total) for j in range(total)),
                default=mp.mpf(0),
            )
            if scale == 0:
                scale = mp.mpf(1)
            for i in range(total):
                for j in range(total):
                    rel = abs(pulled[i][j] - lam1_sq * h_here[i][j]) / scale
                    if rel > max_residual:
                        max_residual = rel
    return max_residual


def _pipeline_equivariance_inputs(build):
    """Every spec a pipeline hands to verify_equivariance."""
    calls = []

    def record(spec, seed):
        calls.append(spec)
        return verify_equivariance(spec, seed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constructions_module, "verify_equivariance", record)
        build()
    return calls


@pytest.fixture(scope="module")
def kourganoff_q2_inputs():
    return _pipeline_equivariance_inputs(
        lambda: make_kourganoff(2, mult_matrix(field_new(PLASTIC).gen()), 128, seed=0)
    )


@pytest.fixture(scope="module")
def ot_lck_inputs():
    def build():
        field = field_new(QUARTIC)
        a = field.gen()
        make_ot(QUARTIC, [a, a - field.one()], 128, seed=0, lck=True)

    return _pipeline_equivariance_inputs(build)


def test_verify_at_another_precision_checks_the_spec_it_rebuilds():
    # verify --precision 256 of a 128-bit certificate rebuilds it at 256
    # bits, so the sampled check never runs above its spec's precision
    path = Path(__file__).parent / "data" / "ot_lck_x4-x-1_128.json"
    specs = _pipeline_equivariance_inputs(
        lambda: verify_certificate(load_certificate(str(path)), precision=256)
    )
    assert specs
    assert all(spec.decomposition.precision_bits == 256 for spec in specs)


class TestPullbackAgainstDenseReference:
    """The fiber-block pullback on raw libmp values gives the dense mp.mpf
    loop's residual exactly."""

    def _check(self, specs, seed=3):
        for spec in specs:
            results = verify_equivariance(spec, seed)
            assert len(results) == len(spec.ratios.generators)
            for j, (residual, verdict) in enumerate(results):
                dense = _dense_max_residual(spec, j, seed)
                assert isinstance(residual, mp.mpf)
                assert residual._mpf_ == dense._mpf_
        return residual, verdict

    def test_rank2(self, rank2_metric):
        self._check([rank2_metric])

    def test_kourganoff_q2_complex_block(self, kourganoff_q2_inputs):
        assert any(size == 2 for _, size in kourganoff_q2_inputs[0].decomposition.blocks)
        self._check(kourganoff_q2_inputs)

    def test_ot_lck_cross_terms(self, ot_lck_inputs):
        assert ot_lck_inputs[0].cross_terms
        self._check(ot_lck_inputs)

    def test_identity_generator(self, rank2_metric):
        spec = _with_generator(rank2_metric, IntMatrix.identity(3), (0, 0), (1, 1, 1))
        residual, _ = self._check([spec])
        assert residual == 0

    def test_generator_mixing_the_blocks(self, rank2_metric):
        # this lattice map preserves no block: its largest residual sits at
        # an off-block entry of C^T H_F C, where the target is an exact zero
        mixing = matrix_from_string("-1,-1,0;-1,0,-1;0,-1,0")
        spec = _with_generator(rank2_metric, mixing, (0, 0), (1, 1, 1))
        _, verdict = self._check([spec])
        assert verdict is False

    def test_summation_order(self, ot_lck_inputs):
        # H_F C and C^T (H_F C) sum in index order, as the mpf expressions
        # do.  Coupling a one-dimensional block to the two-dimensional one
        # (the flat block here: add_cross_terms would refuse it, the kernel
        # evaluates it like any coupling) gives rows of H_F with three
        # nonzero entries, and the shear mixes fiber coordinates, so both
        # products add three or more terms whose rounding depends on the
        # order.  The coupling carries the flat block's zero functional at
        # scale 1/3, so its entries are 1/3 rounded: summed in reverse,
        # H_F C moves a residual at seeds 0 and 2, C^T (H_F C) at seed 1
        spec = ot_lck_inputs[0]
        decomp = spec.decomposition
        small = next(k for k, (_, size) in enumerate(decomp.blocks) if size == 1)
        large = next(k for k, (_, size) in enumerate(decomp.blocks) if size == 2)
        assert large == spec.flat_block
        coupling = CrossTerm(small, large, spec.functionals[large], QQ(1, 3))
        coupled = spec.replace(cross_terms=spec.cross_terms + (coupling,))
        shear = [[int(i == j) for j in range(decomp.p)] for i in range(decomp.p)]
        shear[0][3] = 1
        sheared = _with_generator(
            coupled, IntMatrix(shear), spec.translations[0], (1,) * decomp.delta
        )
        for seed in (0, 1, 2):
            self._check([sheared], seed=seed)


class TestPointsAgainstMpfReference:
    """The grid and sample points, built as pairs, are the mp.mpf loops'
    points bit for bit; a grid weight (2c + 1)/20 is rounded once, like
    mp.mpf(2c + 1) / 20."""

    def _same(self, pairs, want):
        assert len(pairs) == len(want)
        for x, w in zip(pairs, want):
            assert [rawmetric_module.from_dyadic(t)._mpf_ for t in x] == [t._mpf_ for t in w]

    def test_grid_points(self, ot_lck_uncoupled, squared_metric, kourganoff_q2_inputs):
        for spec in (ot_lck_uncoupled[0], squared_metric, kourganoff_q2_inputs[0]):
            with _at_prec(spec.decomposition.workbits):
                want = _mpf_grid_points(spec)
            self._same(_grid_points(spec), want)

    def test_sample_points(self, ot_lck_inputs, rank2_metric, kourganoff_q2_inputs):
        for spec in (ot_lck_inputs[0], rank2_metric, kourganoff_q2_inputs[0]):
            for seed in (0, 7):
                self._same(
                    _sample_points(spec, seed),
                    _mpf_sample_points(spec, SAMPLES, seed, spec.decomposition.workbits),
                )


class TestMetricAgainstMpfReference:
    """rawmetric.metric_gram returns the mp.mpf loop's gram, entry for
    entry."""

    def _check(self, spec, points):
        p, n = spec.decomposition.p, spec.n
        for point in points:
            gram = _gram(spec, point[p:p + n])
            want = _mpf_gram(spec, point)
            assert len(gram) == len(want) == spec.total_dim
            for row, want_row in zip(gram, want):
                assert all(isinstance(g, mp.mpf) for g in row)
                assert [g._mpf_ for g in row] == [w._mpf_ for w in want_row]

    def test_cross_terms(self, ot_lck_inputs):
        spec = ot_lck_inputs[0]
        assert spec.cross_terms
        pts = _mpf_sample_points(spec, 5, 7, spec.decomposition.workbits + 64)
        self._check(spec, [[0] * spec.decomposition.p + list(x) for x in pts])

    def test_cross_terms_at_rational_points(self, squared_metric):
        spec = squared_metric
        coupled = add_cross_terms(spec, [(1, 2)])
        points = [[0, 0, 0, QQ(1, 3), QQ(-2, 7)], [1, 2, 3, 5, QQ(1, 10)]]
        self._check(coupled, points)
        gram = _gram(coupled, points[0][3:5])
        exact_zero = mp.mpf(0)._mpf_
        assert gram[0][1]._mpf_ == gram[0][3]._mpf_ == gram[3][4]._mpf_ == exact_zero
        assert gram[1][2] != 0


def test_raw_kernel_calls_the_mpf_operators_libmp_functions():
    # the kernel's own add and mul are checked against the operators'
    # mpf_add and mpf_mul in test_rawmetric; division still runs in libmp,
    # and exp runs mpf_exp's steps around the exp_basecase and ln2_fixed
    # that mpf_exp itself calls.  A backend or mpmath release that rebinds
    # any of them must fail here, not drift the sealed residuals
    operators = vars(mpmath.ctx_mp_python)
    assert rawmetric_module.mpf_div is operators["mpf_div"]
    for op in (mp.mpf.__add__, mp.mpf.__sub__, mp.mpf.__mul__, mp.mpf.__truediv__):
        assert op.__globals__ is operators
    exp_bindings = [cell.cell_contents for cell in mp.exp.__closure__]
    assert any(f is rawmetric_module.mpf_exp for f in exp_bindings)
    assert rawmetric_module.mpf_exp is libelefun.mpf_exp
    exp_globals = libelefun.mpf_exp.__globals__
    assert rawmetric_module.exp_basecase is exp_globals["exp_basecase"]
    assert rawmetric_module.ln2_fixed is exp_globals["ln2_fixed"]
    # exp_basecase's algorithms and the precisions between them, which
    # rawmetric's proven bound depends on: the Taylor loop, then
    # exponential_series with two cosh series and with more, whose square
    # root is isqrt_fast_python's Newton chain over giant_steps
    basecase_globals = libelefun.exp_basecase.__globals__
    assert basecase_globals["exponential_series"] is libelefun.exponential_series
    assert basecase_globals["EXP_COSH_CUTOFF"] == rawmetric_module.EXP_COSH_CUTOFF == 600
    series_globals = libelefun.exponential_series.__globals__
    assert series_globals["EXP_SERIES_U_CUTOFF"] == rawmetric_module.EXP_SERIES_U_CUTOFF == 1500
    assert series_globals["isqrt_fast"] is libintmath.isqrt_fast_python
    assert libintmath.isqrt_fast_python.__globals__["giant_steps"] is libintmath.giant_steps


class TestCrossTerms:
    def test_coupling_added_and_equivariant(self, squared_metric):
        spec = squared_metric
        coupled = add_cross_terms(spec, [(1, 2)])
        assert len(coupled.cross_terms) == 1
        term = coupled.cross_terms[0]
        with mp.workprec(200):
            assert 0 < term.epsilon <= 1
        gram = _gram(coupled, [QQ(1, 3), QQ(2, 5)])
        assert gram[1][2] != 0
        assert gram[1][2] == gram[2][1]
        assert gram[0][1] == 0
        for _, verdict in verify_equivariance(coupled, 5):
            assert verdict is True

    def test_sign_indefinite_action_rejected(self, rank2_metric):
        # the unsquared generators flip orientation on some blocks, so the
        # all-ones coupling table is not covariant
        spec = rank2_metric
        with pytest.raises(CheckFailureError):
            add_cross_terms(spec, [(1, 2)])

    def test_pair_validation(self, squared_metric):
        spec = squared_metric
        with pytest.raises(InputError):
            add_cross_terms(spec, [(1, 1)])
        with pytest.raises(InputError):
            add_cross_terms(spec, [(0, 1)])  # touches the flat block
        with pytest.raises(InputError):
            add_cross_terms(spec, [(1, 9)])

    def test_empty_pairs_is_identity(self, squared_metric):
        spec = squared_metric
        assert add_cross_terms(spec, []) is spec


def _dense_sylvester(rows, tol):
    """Reference leading-principal-minor test: the elimination without the
    exact-zero skip, converting every entry with mp.mpf.  Returns the
    verdict and the matrix as the elimination left it."""
    n = len(rows)
    a = [[mp.mpf(x) for x in row] for row in rows]
    for k in range(n):
        piv = a[k][k]
        if not piv > tol:
            return False, a
        for i in range(k + 1, n):
            f = a[i][k] / piv
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return True, a


@st.composite
def sparse_symmetric(draw):
    """A symmetric int matrix of size 1..6 with mostly zero off-diagonal
    entries and diagonals that may be small, zero or negative."""
    n = draw(st.integers(1, 6))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.integers(-2, 12))
        for j in range(i + 1, n):
            if draw(st.integers(0, 2)) == 0:
                rows[i][j] = rows[j][i] = draw(st.integers(-6, 6))
    return rows


class TestSylvesterAgainstDenseReference:
    """Skipping exact zeros in the dyadic elimination gives the dense
    verdict."""

    def _check(self, rows):
        workbits = 128 + GUARD_BITS
        with _at_prec(workbits):
            tol = tolerance(128)
            pairs = [[rawmetric_module.to_dyadic(x) for x in row] for row in rows]
            tol_pair = rawmetric_module.to_dyadic(tol)
            assert rawmetric_module.positive_definite(pairs, tol_pair, workbits) == (
                _dense_sylvester(rows, tol)[0]
            )

    @given(sparse_symmetric())
    def test_int_entries(self, rows):
        # small exact entries converted at the working precision
        self._check(rows)

    @given(sparse_symmetric(), st.integers(3, 97))
    def test_mpf_entries_at_workbits(self, rows, divisor):
        # the scale-search path: full-length entries at the working
        # precision, with the exact zeros left as they are
        with _at_prec(128 + GUARD_BITS):
            self._check([[mp.mpf(x) / divisor for x in row] for row in rows])


def _reference_epsilon(spec, coupled, tested=None):
    """The scale search as a dense loop of mp.mpf operators: every bisection
    step couples spec with the new terms of coupled at the trial scale,
    evaluates the whole metric at every grid point with _mpf_gram
    and tests it with _dense_sylvester.  tested, when given, receives
    (gram, eliminated matrix, verdict) for every matrix tested, in order."""
    decomp = spec.decomposition
    tol = tolerance(spec.decomposition.precision_bits)
    new_terms = coupled.cross_terms[len(spec.cross_terms):]
    with _at_prec(decomp.workbits):
        grid = _mpf_grid_points(spec)

        def scaled_ok(eps):
            terms = tuple(
                CrossTerm(t.k, t.k2, t.functional, eps) for t in new_terms
            )
            candidate = spec.replace(cross_terms=spec.cross_terms + terms)
            for x in grid:
                gram = _mpf_gram(candidate, [mp.mpf(0)] * decomp.p + list(x))
                verdict, eliminated = _dense_sylvester(gram, tol)
                if tested is not None:
                    tested.append((gram, eliminated, verdict))
                if not verdict:
                    return False
            return True

        one = mp.mpf(1)
        if scaled_ok(one):
            return one
        lo, hi = mp.mpf(0), one
        for _ in range(_CROSS_BISECT_STEPS):
            midpoint = (lo + hi) / 2
            if scaled_ok(midpoint):
                lo = midpoint
            else:
                hi = midpoint
        return lo / 2


@pytest.fixture(scope="module")
def ot_lck_uncoupled(ot_lck_inputs):
    """The ot --lck spec before its cross terms, and the coupled pairs."""
    spec = ot_lck_inputs[0]
    pairs = [(term.k, term.k2) for term in spec.cross_terms]
    return spec.replace(cross_terms=()), pairs


class TestScaleSearchAgainstDenseReference:
    """The scale search on cached grid data finds the dense loop's scale."""

    def _check(self, spec, pairs):
        coupled = add_cross_terms(spec, pairs)
        want = _reference_epsilon(spec, coupled)
        for term in coupled.cross_terms[len(spec.cross_terms):]:
            assert term.epsilon == want
        return want

    def test_squared_metric(self, squared_metric):
        spec = squared_metric
        assert self._check(spec, [(1, 2)]) < 1

    def test_ot_lck(self, ot_lck_uncoupled, ot_lck_inputs):
        spec, pairs = ot_lck_uncoupled
        epsilon = self._check(spec, pairs)
        assert epsilon == ot_lck_inputs[0].cross_terms[0].epsilon

    def test_second_term_on_the_same_pair(self, squared_metric):
        spec = squared_metric
        once = add_cross_terms(spec, [(1, 2)])
        assert self._check(once, [(1, 2)]) < once.cross_terms[0].epsilon

    @staticmethod
    def _recorded_eliminations(monkeypatch):
        """(matrix as passed, matrix as left, verdict) for every
        positive_definite call, in order."""
        tested = []
        original = rawmetric_module.positive_definite

        def recording(a, tol, prec):
            gram = [list(row) for row in a]
            verdict = original(a, tol, prec)
            tested.append((gram, a, verdict))
            return verdict

        monkeypatch.setattr(rawmetric_module, "positive_definite", recording)
        return tested

    @pytest.mark.parametrize("which", ["squared", "ot_lck"])
    def test_tested_matrices_match_the_mpf_loop(
        self, which, squared_metric, ot_lck_uncoupled, monkeypatch
    ):
        # every grid gram the search tests, and the matrix its elimination
        # leaves, equal the dense mpf loop's rows and columns that a cross
        # term touches, bit for bit; each verdict is the whole matrix's
        if which == "squared":
            spec, pairs = squared_metric, [(1, 2)]
        else:
            spec, pairs = ot_lck_uncoupled
        tested = self._recorded_eliminations(monkeypatch)
        coupled = add_cross_terms(spec, pairs)
        want = []
        _reference_epsilon(spec, coupled, want)
        assert len(tested) == len(want) > len(_grid_points(spec))
        assert any(not verdict for _, _, verdict in want)
        decomp = coupled.decomposition
        touched = sorted({
            i for t in coupled.cross_terms
            for i in (*decomp.block_indices(t.k), *decomp.block_indices(t.k2))
        })
        assert len(touched) < coupled.total_dim
        as_mpf = rawmetric_module.from_dyadic
        for got, ref in zip(tested, want):
            assert got[2] == ref[2]
            for got_matrix, ref_matrix in zip(got[:2], ref[:2]):
                assert [[as_mpf(x)._mpf_ for x in row] for row in got_matrix] == [
                    [ref_matrix[i][j]._mpf_ for j in touched] for i in touched
                ]

    def test_only_coupled_rows_are_eliminated(self, ot_lck_uncoupled, monkeypatch):
        # ot --lck couples two one-dimensional blocks: of its 6 x 6 grams
        # the search eliminates the 2 x 2 part the cross term touches
        spec, pairs = ot_lck_uncoupled
        assert spec.total_dim == 6 and len(pairs) == 1
        tested = self._recorded_eliminations(monkeypatch)
        add_cross_terms(spec, pairs)
        assert len(tested) > len(_grid_points(spec))
        assert all(len(gram) == 2 and len(gram[0]) == 2 for gram, _, _ in tested)

    def test_uncoupled_diagonal_below_the_tolerance(self, squared_metric):
        # a base conformal functional with c . v = -400 along both
        # translations is at most -40 at every grid point, whose weights
        # are at least 1/20, so exp(2 f) puts the base diagonal, which no
        # cross term touches, below 2**-64 at every grid point: no scale
        # passes, as in the dense loop, and the search refuses the
        # coupling with the same error
        spec = squared_metric
        with _at_prec(spec.decomposition.workbits):
            coeffs = [-400 / spec.translations[j][j] for j in range(spec.n)]
        low = spec.replace(base_conformal=AffineFunctional(coeffs))
        tol = tolerance(low.decomposition.precision_bits)
        p = low.decomposition.p
        with _at_prec(low.decomposition.workbits):
            for x in _mpf_grid_points(low):
                gram = _mpf_gram(low, [mp.mpf(0)] * p + list(x))
                assert gram[p][p] < tol
                assert not _dense_sylvester(gram, tol)[0]
        with pytest.raises(CheckFailureError, match="no positive cross-term scale"):
            add_cross_terms(low, [(1, 2)])

    def test_one_metric_evaluation_per_grid_point(self, ot_lck_uncoupled, metric_evaluations):
        spec, pairs = ot_lck_uncoupled
        add_cross_terms(spec, pairs)
        assert len(metric_evaluations) == len(_grid_points(spec)) == 100


class TestRankAndWitnesses:
    def test_lcp_rank_two(self, rank2_tagged):
        assert lcp_rank(rank2_tagged, 0) == 2
        assert lcp_rank(rank2_tagged, 1) == 2

    def test_witnesses_match_embeddings(self, rank2_setup):
        from lcpforge.embeddings import verify_ratio_witness

        decomp, ratios = rank2_setup
        field = field_new(M7)
        emb = embeddings(field, 128)
        alpha = field.gen()
        sigma_alpha = field.from_coords((-2, 0, 1))
        for k in range(3):
            assert verify_ratio_witness(emb, alpha, 2 - k, ratios.entries[0][k])
            assert verify_ratio_witness(emb, sigma_alpha, 2 - k, ratios.entries[1][k])

    def test_rank_requires_witnesses(self, rank2_setup):
        _, ratios = rank2_setup
        with pytest.raises(InputError):
            lcp_rank(ratios, 0)

    def test_witness_shape_validated(self, rank2_setup):
        _, ratios = rank2_setup
        field = field_new(M7)
        with pytest.raises(InputError):
            ratios.with_witnesses([field.gen()], [0, 1, 2])
        with pytest.raises(InputError):
            ratios.with_witnesses([field.gen()] * 2, [0, 1])
