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
        "pass",
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
)
