"""The mutation catalog stays runnable: every snippet occurs exactly once
in its file, the file still compiles with the mutant planted, and every
test that must kill it exists.  The mutants themselves run outside
tier-1, by `python tests/mutants/run.py`.  Likewise every name on the
reachability sweep's allow-list still names a function; the sweep runs
by `python tests/mutants/reach.py`."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "mutant_" + name, ROOT / "tests" / "mutants" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = _load("catalog").MUTANTS
_reach = _load("reach")


def _defined(path, names):
    """Whether the test module at path defines the class and function
    path names[0]::names[1]..., nested in that order."""
    scope = ast.parse(path.read_text()).body
    for name in names:
        node = next((n for n in scope if getattr(n, "name", None) == name), None)
        if node is None:
            return False
        scope = getattr(node, "body", [])
    return True


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_catalogued_mutant_applies_once(mutant):
    assert mutant.snippet != mutant.replacement
    assert (ROOT / mutant.path).read_text().count(mutant.snippet) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_catalogued_mutant_compiles(mutant):
    # a mutant that does not parse would fail its tests for the wrong
    # reason, and run.py reports it as not run
    path = ROOT / mutant.path
    compile(path.read_text().replace(mutant.snippet, mutant.replacement), str(path), "exec")


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_catalogued_tests_exist(mutant):
    assert mutant.tests
    for test in mutant.tests:
        path, *names = test.split("::")
        assert names and _defined(ROOT / path, names), test


def test_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


def test_every_allow_listed_function_exists():
    defined = set(_reach.defined_functions().values())
    assert sorted(_reach.ALLOWED - defined) == []
