"""The benchmark's tracer wraps lcpforge functions by name.

perfbench/layers.py lists, per layer, the functions `--trace 1` replaces
in every loaded lcpforge module.  A rename or deletion of one of them
would only show as a crash of a traced benchmark run, so these tests read
that list (the file is imported, never changed) and require every name to
resolve, together with the embedding cache whose counters the trace reads,
the arguments and results it reads by position, and the backend name that
perfbench/op.py's facts() records.
"""

import importlib
import inspect
import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_FILE)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:  # leave no bytecode cache next to the benchmark's files
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


LAYERS = _load_layers().LAYERS


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer, names in LAYERS.items() for name in names],
    ids=lambda value: value,
)
def test_traced_function_exists(layer, name):
    module = importlib.import_module("lcpforge." + layer)
    assert callable(getattr(module, name, None))


def test_backend_name_exists():
    from lcpforge import _backend

    assert _backend.BACKEND == "python"


def test_embedding_cache_counters_exist():
    from lcpforge import embeddings

    info = embeddings._embeddings_cached.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_traced_arguments_and_results_keep_their_places():
    # Tracer._note reads refine_root's bits as argument 3,
    # certified_poly_roots' bits as argument 1 and its working bits as
    # result[2], and the encoded length of canonical_json's result
    from lcpforge.certio import canonical_json
    from lcpforge.embeddings import GUARD_BITS, certified_poly_roots
    from lcpforge.polynomials import IntPoly, refine_root

    assert list(inspect.signature(refine_root).parameters)[3] == "bits"
    assert list(inspect.signature(certified_poly_roots).parameters)[1] == "bits"
    result = certified_poly_roots(IntPoly((-2, 0, 1)), 64)
    assert len(result) == 3 and result[2] == 64 + GUARD_BITS
    assert isinstance(canonical_json({"bits": 64}), str)
