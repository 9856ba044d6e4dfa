import pytest
from hypothesis import HealthCheck, settings

import lcpforge.embeddings as embeddings_module
import lcpforge.numberfield as numberfield_module
from lcpforge.embeddings import certified_poly_roots

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _fresh_root_certification():
    # certified_poly_roots caches per (polynomial, bits) and
    # minimal_polynomial per element for the whole process; each test
    # starts empty, so a test that patches the refinement or counts
    # derivations reaches its patch instead of an earlier test's result
    certified_poly_roots.cache_clear()
    numberfield_module.minimal_polynomial.cache_clear()


@pytest.fixture
def refined_bits(monkeypatch):
    """Working bits of every real-root refinement the test makes, in order."""
    refined = []
    original = embeddings_module._refined_real_roots

    def recording(poly, workbits):
        refined.append(workbits)
        return original(poly, workbits)

    monkeypatch.setattr(embeddings_module, "_refined_real_roots", recording)
    embeddings_module._embeddings_cached.cache_clear()
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
