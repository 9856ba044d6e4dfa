import importlib
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

import lcpforge
import lcpforge.embeddings as embeddings_module
import lcpforge.intlinalg as intlinalg_module
import lcpforge.numberfield as numberfield_module


def _package_caches():
    """Every functools cache that a module of lcpforge defines and binds,
    found by scanning the modules for cache_clear."""
    caches = {}
    for info in pkgutil.iter_modules(lcpforge.__path__):
        module = importlib.import_module("lcpforge." + info.name)
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and getattr(
                value, "__module__", ""
            ).startswith("lcpforge"):
                caches[id(value)] = value
    return tuple(caches.values())


PACKAGE_CACHES = _package_caches()

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _fresh_caches():
    # the certified values (Sturm chains, root enclosures, embedding sets
    # and their enclosures, minimal polynomials, unit decisions, rank
    # decisions, determinants) are cached for the whole process; each test
    # starts empty, so a test that patches a computation or counts it
    # reaches its patch instead of an earlier test's result
    for cache in PACKAGE_CACHES:
        cache.cache_clear()


@pytest.fixture
def package_caches():
    """The caches the autouse fixture clears before every test."""
    return PACKAGE_CACHES


@pytest.fixture
def refined_bits(monkeypatch):
    """Working bits of every real-root refinement the test makes, in order."""
    refined = []
    original = embeddings_module._refined_real_roots

    def recording(poly, intervals, workbits):
        refined.append(workbits)
        return original(poly, intervals, workbits)

    monkeypatch.setattr(embeddings_module, "_refined_real_roots", recording)
    return refined


@pytest.fixture
def minpoly_derivations(monkeypatch):
    """One entry per minimal polynomial the test derives, cache hits aside:
    minimal_polynomial's kernel computation is the derivation."""
    derived = []
    original = numberfield_module.field_kernel_basis

    def recording(rows):
        derived.append(len(rows))
        return original(rows)

    monkeypatch.setattr(numberfield_module, "field_kernel_basis", recording)
    return derived


@pytest.fixture
def det_derivations(monkeypatch):
    """One entry per integer determinant the test derives, cache hits aside:
    the Bareiss elimination over Z is the derivation."""
    derived = []
    original = intlinalg_module._bareiss

    def recording(m, one, exact_div):
        if type(one) is int:
            derived.append(len(m))
        return original(m, one, exact_div)

    monkeypatch.setattr(intlinalg_module, "_bareiss", recording)
    return derived


@pytest.fixture
def forbid_fractions(monkeypatch):
    """For the rest of the test, constructing a Fraction raises."""

    def forbidden(cls, *args, **kwargs):
        raise AssertionError("Fraction constructed")

    monkeypatch.setattr(Fraction, "__new__", forbidden)
