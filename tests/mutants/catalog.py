"""Catalogued mutants: defects the named tests must catch.

Each entry names a source file, a snippet that occurs exactly once in it,
the replacement that plants the defect, the check it attacks and the
tests that must fail with it in place.  tests/test_mutant_catalog.py
checks, in tier-1, that every snippet still occurs exactly once and that
every named test exists; `python tests/mutants/run.py` applies each mutant
alone in a temporary copy of the tree and runs its tests.  A change that
moves a catalogued line updates its entry in the same change.
"""

from collections import namedtuple

Mutant = namedtuple("Mutant", "name check path snippet replacement tests")

MUTANTS = (
    Mutant(
        "J1 without the commute test",
        "J1",
        "src/lcpforge/lcpcore.py",
        "if g not in decomp.family and not commute(g, decomp.splitter):",
        "if False:",
        ("tests/test_lcpcore.py::TestJ1::test_off_block_leakage_fails",),
    ),
    Mutant(
        "_pick_splitter accepts a non-squarefree characteristic polynomial",
        "block decomposition",
        "src/lcpforge/lcpcore.py",
        "if sturm_chain(chi).squarefree:",
        "if True:",
        ("tests/test_constructions.py::test_kourganoff_rejects_shear",),
    ),
    Mutant(
        "_dot rounds product ties up",
        "equivariance",
        "src/lcpforge/schema1.py",
        "if t & 1 and (t & 2 or pm & ((1 << (n - 1)) - 1)):",
        "if t & 1:",
        ("tests/test_rawmetric.py::test_dot_matches_the_two_step_reference",),
    ),
    Mutant(
        "the pullback reads C where it needs C^T",
        "equivariance",
        "src/lcpforge/schema1.py",
        "c_t = [[to_dyadic(e) for e in col] for col in zip(*c)]",
        "c_t = [[to_dyadic(e) for e in row] for row in c]",
        ("tests/test_lcpcore.py::TestPullbackAgainstDenseReference",),
    ),
    Mutant(
        "_stable_rank proves no lower bound on the rank",
        "rank",
        "src/lcpforge/embeddings.py",
        "_iv_inverse([[logs[i][j] for j in cols[:k]] for i in rows[:k]])",
        "_iv_inverse([[logs[i][j].mid for j in cols[:k]] for i in rows[:k]])",
        ("tests/test_embeddings.py::TestRankProof"
         "::test_minor_with_a_pivot_touching_zero_is_refused",),
    ),
    Mutant(
        "_exp_near keeps a derived exponential with no error bound (U = 0)",
        "equivariance",
        "src/lcpforge/schema1.py",
        "lo, hi = w - u, w + u + 1",
        "lo, hi = w, w + 1",
        ("tests/test_rawmetric.py::test_derivation_near_a_rounding_boundary_falls_back",),
    ),
    Mutant(
        "a block functional's target flipped from ln(L1/Lk) to ln(Lk/L1)",
        "metric",
        "src/lcpforge/schema1.py",
        "targets = [mp.log(l1 / row[k]) for l1, row in zip(lam1, ratios.entries)]",
        "targets = [mp.log(row[k] / l1) for l1, row in zip(lam1, ratios.entries)]",
        ("tests/test_lcpcore.py::TestMetricAssembly::test_functional_increments_match_ratios",),
    ),
    Mutant(
        "matrix_family seals det A where the constant of det(X I - A) is (-1)^p det A",
        "matrix_family",
        "src/lcpforge/constructions.py",
        "constants = [(-1) ** m.n * det(m) for m in matrices]",
        "constants = [det(m) for m in matrices]",
        ("tests/test_corpus.py::test_stored_certificate_verifies_bit_identically",),
    ),
    Mutant(
        "unit_ratios takes every derived witness for a unit",
        "unit_ratios",
        "src/lcpforge/constructions.py",
        "witnessed = is_unit(u)",
        "witnessed = True",
        ("tests/test_constructions.py::test_unit_ratio_check_records_a_non_unit_witness",),
    ),
    Mutant(
        "dirichlet refuses a rank that attains the bound",
        "dirichlet",
        "src/lcpforge/constructions.py",
        '"verdict": tested_rank <= bound,',
        '"verdict": tested_rank < bound,',
        ("tests/test_acceptance.py::test_criterion_3_dirichlet_bound_holds_and_is_attained",),
    ),
    Mutant(
        "spectral counts the real roots but not those in [-1, 1]",
        "spectral",
        "src/lcpforge/constructions.py",
        "if (real, chain.count_in(-1, 1)) != ((2, 1) if q == 1 else (1, 0)):",
        "if real != (2 if q == 1 else 1):",
        ("tests/test_constructions.py"
         "::test_kourganoff_spectral_hypothesis_is_the_exact_predicate",),
    ),
    Mutant(
        "ot reads a real sign at the isolating interval's end without bisecting",
        "positivity",
        "src/lcpforge/constructions.py",
        "while chain.count_in(lo, hi):",
        "while False:",
        ("tests/test_constructions.py::test_real_sign_is_decided_exactly",),
    ),
    Mutant(
        "J2 takes a complex-place modulus enclosing 1 for a non-isometry",
        "J2",
        "src/lcpforge/lcpcore.py",
        "if 1 not in emb.abs_enclosure(u, i):",
        "if True:",
        ("tests/test_lcpcore.py::TestJ2::test_salem_rotation_plane_is_undecided",),
    ),
    Mutant(
        "the echelon form drops the parity of its row swaps",
        "matrix_family",
        "src/lcpforge/intlinalg.py",
        "swapped = not swapped",
        "swapped = False",
        ("tests/test_elimination.py::test_determinant_signs_follow_the_row_swaps",
         "tests/test_intlinalg.py::TestCharPoly::test_runs_on_integers"),
    ),
    Mutant(
        "the kernel back-substitution flips the sign of each pivot coordinate",
        "exact kernels",
        "src/lcpforge/intlinalg.py",
        "vec[c] = -tail / row[c]",
        "vec[c] = tail / row[c]",
        ("tests/test_elimination.py::test_kernel_matches_sympy_nullspace",),
    ),
    Mutant(
        "_stable_rank proves no upper bound on the rank",
        "rank",
        "src/lcpforge/embeddings.py",
        "if not _is_torsion(w):",
        "if False:",
        ("tests/test_embeddings.py::TestRankProof"
         "::test_a_midpoint_rank_below_the_true_rank_is_refused",),
    ),
    Mutant(
        "equivariance is sealed as passing whatever the residual",
        "equivariance",
        "src/lcpforge/lcpcore.py",
        "return [(r, r < tol) for r in schema1.sampled_residuals(spec, seed)]",
        "return [(r, True) for r in schema1.sampled_residuals(spec, seed)]",
        ("tests/test_acceptance.py"
         "::test_criterion_5_equivariance_residuals_and_negative_control",),
    ),
    Mutant(
        "the cross-term covariance bound loosened from 8 tol to 2^32 tol",
        "cross terms",
        "src/lcpforge/schema1.py",
        "if mp.mpf(abs(acc - want).b) > 8 * tol:",
        "if mp.mpf(abs(acc - want).b) > 2 ** 32 * tol:",
        ("tests/test_lcpcore.py::TestCrossTerms"
         "::test_a_ratio_off_by_a_relative_two_to_the_minus_40_is_not_covariant",),
    ),
    Mutant(
        "norm_product passes every unit whatever its residual",
        "norm_product",
        "src/lcpforge/schema1.py",
        '"verdict": bool(residual < tol)})',
        '"verdict": True})',
        ("tests/test_constructions.py::test_norm_product_refuses_a_log_sum_off_zero",),
    ),
    Mutant(
        "full_lattice passes a projected rank below the real place count",
        "full_lattice",
        "src/lcpforge/constructions.py",
        "if projected_rank < s:",
        "if False:",
        ("tests/test_constructions.py::test_ot_rejects_trivial_unit_lattice",
         "tests/test_constructions.py::test_ot_rejects_dependent_units"),
    ),
    Mutant(
        "full_lattice lets independent units beyond the real place count through",
        "full_lattice",
        "src/lcpforge/constructions.py",
        "        if rank > s:",
        "        if False:",
        ("tests/test_cli.py::test_ot_with_more_independent_units_than_real_places_exits_1",),
    ),
    Mutant(
        "warp seals the flat block's functional coefficient for the expanding one's",
        "warp",
        "src/lcpforge/constructions.py",
        'builder.check("warp", schema1.warp_check(spec, q, up))',
        'builder.check("warp", schema1.warp_check(spec, q, flat))',
        ("tests/test_constructions.py::test_kourganoff_q2_passes",),
    ),
)
