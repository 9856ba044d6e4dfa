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


# Run in a fresh interpreter: the tracer replaces functions in every loaded
# lcpforge module, so it must not leak into the other tests, and -B keeps
# bytecode out of perfbench/.
_REACH_SCRIPT = r"""
import contextlib, importlib.util, io, json, sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("perfbench_layers", sys.argv[1])
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)

import lcpforge.cli
from lcpforge.embeddings import GUARD_BITS

tracer = layers.Tracer(GUARD_BITS)
layers.install(tracer)

from lcpforge import certio, cli, constructions
from lcpforge.intlinalg import IntMatrix
from lcpforge.numberfield import field_new
from lcpforge.polynomials import IntPoly

cert = constructions.make_rank_n_lcp(2, 64, seed=0)
constructions.worked_rank2_example(64)
constructions.make_kourganoff(1, IntMatrix(((2, 1), (1, 1))), 64)
quartic = IntPoly((-1, -1, 0, 0, 1))
a = field_new(quartic).gen()
constructions.make_ot(quartic, [a, a - 1], 64, lck=True)
constructions.make_exfield(2)
constructions.make_dmatrix(2)
constructions.verify_certificate(cert)
certio.load_certificate(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["exfield", "--n", "2"]) == 0

calls = {}
for span in tracer.spans:
    calls[span[0]] = calls.get(span[0], 0) + 1
print(json.dumps({name: calls.get(name, 0) for name in layers.CALLS + layers.SECONDS}))
"""


def test_every_traced_metric_is_reached():
    # a per-layer metric whose function no pipeline calls reads 0 on
    # working code and shows nothing; small builds of every pipeline, a
    # verify, a certificate load and the CLI reach each one
    import json
    import os
    import subprocess

    cert = Path(__file__).resolve().parent / "data" / "ranklcp_n1_128.json"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-B", "-c", _REACH_SCRIPT, str(LAYERS_FILE), str(cert)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    calls = json.loads(out)
    assert [name for name, count in calls.items() if count == 0] == []
