import pytest
from hypothesis import HealthCheck, settings

import lcpforge.embeddings as embeddings_module
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
    # certified_poly_roots caches per (polynomial, bits) for the whole
    # process; each test starts empty, so a test that patches the
    # refinement reaches its patch instead of an earlier test's result
    certified_poly_roots.cache_clear()


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
