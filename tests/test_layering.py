"""The package's import layering, read from its source with ast.

schema1 owns every stage whose output is pinned to schema-1 certificate
bytes.  Only lcpcore and constructions call it, it imports none of its
callers or the CLI, and lcpcore does no interval arithmetic of its own.
Every float a certificate seals is made in schema1, embeddings or
polynomials.refine_root and written by certio's encoder: lcpcore,
constructions and the CLI import no mpmath, no float encoder and no
precision context.  The CLI builds through constructions.run_pipeline and
imports no builder, one base class holds the immutability rule of
every value class, and lcpcore alone reads a ratio witness against its
ratio.
"""

import ast
from pathlib import Path

import pytest

from lcpforge.constructions import make_rank_n_lcp
from lcpforge.embeddings import embeddings
from lcpforge.errors import Immutable
from lcpforge.intlinalg import IntMatrix
from lcpforge.numberfield import field_new
from lcpforge.polynomials import IntPoly, sturm_chain

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lcpforge"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _tree(module):
    return ast.parse((PACKAGE / (module + ".py")).read_text())


def _imports(module):
    """Every module and imported name module imports, dotted; modules of
    the package by their names within it ("schema1", "mpmath.iv")."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(["lcpforge"] * bool(node.level) + [node.module] * bool(node.module))
            if node.module:
                found.add(base)
            found.update(base + "." + alias.name for alias in node.names)
    return {name[len("lcpforge."):] if name.startswith("lcpforge.") else name
            for name in found}


def _imports_module(module, target):
    return any(name == target or name.startswith(target + ".") for name in _imports(module))


def test_the_import_reader_sees_relative_and_absolute_imports():
    assert {"schema1", "schema1._freeze", "embeddings.tolerance"} <= _imports("lcpcore")
    assert {"schema1", "certio.canonical_json"} <= _imports("constructions")
    assert {"mpmath.iv", "certio.enc_float", "embeddings._at_prec"} <= _imports("schema1")
    assert {"mpmath", "mpmath.mp", "mpmath.libmp.repr_dps"} <= _imports("certio")


def test_only_lcpcore_and_constructions_import_schema1():
    importers = [m for m in MODULES if m != "schema1" and _imports_module(m, "schema1")]
    assert importers == ["constructions", "lcpcore"]


def test_schema1_imports_none_of_its_callers():
    for caller in ("lcpcore", "constructions", "cli"):
        assert not _imports_module("schema1", caller)


def test_lcpcore_does_no_interval_arithmetic():
    assert not _imports_module("lcpcore", "mpmath.iv")
    names = {node.id for node in ast.walk(_tree("lcpcore")) if isinstance(node, ast.Name)}
    attributes = {node.attr for node in ast.walk(_tree("lcpcore"))
                  if isinstance(node, ast.Attribute)}
    assert "iv" not in names | attributes


def test_lcpcore_constructions_and_cli_make_no_sealed_float():
    for module in ("lcpcore", "constructions", "cli"):
        made = sorted(name for name in _imports(module)
                      if name == "mpmath" or name.startswith("mpmath.")
                      or name.startswith("certio.enc_float") or name == "embeddings._at_prec")
        assert made == [], module


def test_only_schema1_embeddings_and_certio_import_mpmath():
    importers = [m for m in MODULES if _imports_module(m, "mpmath")]
    assert importers == ["certio", "embeddings", "schema1"]


def test_lcpcore_alone_decides_the_ratio_witnesses():
    # check_J1 matches each block to its place; no other module reads a
    # witness against a ratio, and ratios carry their witnesses from birth
    readers = [m for m in MODULES
               if "embeddings.verify_ratio_witness" in _imports(m)
               or any(isinstance(node, ast.Attribute) and node.attr == "verify_ratio_witness"
                      for node in ast.walk(_tree(m)))]
    assert readers == ["lcpcore"]
    assert [m for m in MODULES for node in ast.walk(_tree(m))
            if isinstance(node, ast.FunctionDef) and node.name == "with_witnesses"] == []


def test_the_cli_imports_no_builder():
    assert "constructions.run_pipeline" in _imports("cli")
    assert [name for name in _imports("cli") if name.split(".")[-1].startswith("make_")] == []


def _setattr_owners():
    return sorted(
        "%s.%s" % (module, node.name)
        for module in MODULES
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "__setattr__" for f in node.body)
    )


def test_one_class_defines_the_immutability_rule():
    assert _setattr_owners() == ["errors.Immutable"]


@pytest.mark.parametrize("build", [
    lambda: IntPoly((1, 1)),
    lambda: sturm_chain(IntPoly((-2, 0, 1))),
    lambda: IntMatrix(((1, 0), (0, 1))),
    lambda: field_new(IntPoly((-1, -1, 0, 1))),
    lambda: field_new(IntPoly((-1, -1, 0, 1))).gen(),
    lambda: embeddings(field_new(IntPoly((-1, -1, 0, 1))), 64),
    lambda: make_rank_n_lcp(1, 64),
], ids=["IntPoly", "SturmChain", "IntMatrix", "NumberField", "FieldElem", "EmbeddingSet",
        "LcpCertificate"])
def test_every_value_class_refuses_assignment_by_name(build):
    value = build()
    name = type(value).__name__
    assert isinstance(value, Immutable) and not hasattr(value, "__dict__")
    with pytest.raises(AttributeError, match="^%s is immutable$" % name):
        value.anything = 1
