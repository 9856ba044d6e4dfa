import importlib
import pkgutil

import pytest
from hypothesis import HealthCheck, settings

import lcpforge
import lcpforge.embeddings as embeddings_module
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
    # the certified values (root enclosures, embedding sets and their
    # enclosures, minimal polynomials, unit decisions, rank decisions) are
    # cached for the whole process; each test starts empty, so a test that
    # patches a computation or counts it reaches its patch instead of an
    # earlier test's result
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

    def recording(poly, workbits):
        refined.append(workbits)
        return original(poly, workbits)

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
