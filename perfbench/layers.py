"""Layer spans recorded from outside lcpforge.

`install()` wraps the public functions of each layer.  Because lcpforge
modules bind each other's functions with `from .x import f`, a wrapper
replaces the name in every loaded `lcpforge` module that binds the
original, not just in the defining module.  Spans (name, start, end,
parent) stay in memory; `Tracer.layer_metrics()` folds them into call
counts, inclusive seconds and self seconds.
"""

import sys
import time

# Wrapped functions per layer: the module that defines each name.
LAYERS = {
    "polynomials": ("refine_root", "isolate_real_roots"),
    "embeddings": ("certified_poly_roots", "multiplicative_rank"),
    "lcpcore": (
        "find_block_decomposition",
        "check_J1",
        "check_J2",
        "build_metric_spec",
        "add_cross_terms",
        "verify_equivariance",
        "lcp_rank",
    ),
    "numberfield": ("galois_generator", "minimal_polynomial", "is_unit", "field_new"),
    "intlinalg": ("char_poly",),
    "certio": ("canonical_json", "load_certificate"),
    "constructions": (
        "make_rank_n_lcp",
        "worked_rank2_example",
        "make_kourganoff",
        "make_ot",
        "make_exfield",
        "make_dmatrix",
        "verify_certificate",
    ),
    "cli": ("main",),
}

# (layer.function, metric) pairs reported as calls / inclusive seconds.
CALLS = (
    "polynomials.refine_root",
    "embeddings.certified_poly_roots",
    "embeddings.multiplicative_rank",
    "lcpcore.find_block_decomposition",
    "lcpcore.verify_equivariance",
    "lcpcore.lcp_rank",
    "numberfield.minimal_polynomial",
    "numberfield.is_unit",
    "intlinalg.char_poly",
    "certio.canonical_json",
)
SECONDS = (
    "polynomials.refine_root",
    "polynomials.isolate_real_roots",
    "embeddings.certified_poly_roots",
    "embeddings.multiplicative_rank",
    "lcpcore.find_block_decomposition",
    "lcpcore.check_J1",
    "lcpcore.check_J2",
    "lcpcore.build_metric_spec",
    "lcpcore.add_cross_terms",
    "lcpcore.verify_equivariance",
    "lcpcore.lcp_rank",
    "numberfield.galois_generator",
    "numberfield.minimal_polynomial",
    "numberfield.field_new",
    "intlinalg.char_poly",
    "certio.canonical_json",
    "certio.load_certificate",
)
SELF_SECONDS = ("polynomials.refine_root",)


class Tracer:
    """Span recorder for one process.  `precision` is the working
    precision the current operation asked for; it scales max_bits_ratio."""

    def __init__(self, guard_bits):
        self.guard_bits = guard_bits
        self.precision = None
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.refine_bits_sum = 0
        self.max_bits_ratio = 0.0
        self.escalations = 0
        self.cert_bytes = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self._note(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _note(self, name, args, kwargs, result):
        if name == "polynomials.refine_root":
            bits = kwargs["bits"] if "bits" in kwargs else args[3]
            self.refine_bits_sum += bits
            if self.precision:
                self.max_bits_ratio = max(self.max_bits_ratio, bits / self.precision)
        elif name == "embeddings.certified_poly_roots":
            bits = kwargs["bits"] if "bits" in kwargs else args[1]
            if result[2] > bits + self.guard_bits:
                self.escalations += 1
        elif name == "certio.canonical_json":
            self.cert_bytes += len(result.encode())

    def layer_metrics(self, cache_hits, cache_misses):
        """Counts and seconds per wrapped function, plus per-layer self
        seconds (a span's duration minus the time its child spans cover)."""
        calls, inclusive, self_s = {}, {}, {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[index]
            if not self._nested_in_same(index):
                inclusive[name] = inclusive.get(name, 0.0) + end - start
        out = {}
        for name in CALLS:
            out[name + ".calls"] = calls.get(name, 0)
        for name in SECONDS:
            out[name + ".s"] = inclusive.get(name, 0.0)
        for name in SELF_SECONDS:
            out[name + ".self_s"] = self_s.get(name, 0.0)
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                v for k, v in self_s.items() if k.split(".")[0] == layer
            )
        out["polynomials.refine_root.bits_sum"] = self.refine_bits_sum
        out["embeddings.escalations"] = self.escalations
        out["embeddings.max_bits_ratio"] = self.max_bits_ratio
        out["embeddings.cache.hits"] = cache_hits
        out["embeddings.cache.misses"] = cache_misses
        out["certio.cert_bytes"] = self.cert_bytes
        out["trace.spans"] = len(self.spans)
        out["trace.overhead_s"] = len(self.spans) * span_cost()
        return out

    def _nested_in_same(self, index):
        # a recursive call's time is already inside its outer call's span
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def span_cost(calls=5000):
    """Seconds one wrapped call adds over a direct call, measured here.

    Tracing adds only this bookkeeping, so spans x span_cost() is the
    overhead of a traced run; a paired untraced pass would cost a whole
    pass and, on a shared machine, differ from it mostly by noise."""
    probe = Tracer(0)
    direct, wrapped = abs, probe.wrap("probe", abs)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        wrapped(-1)
    middle = clock()
    for _ in range(calls):
        direct(-1)
    end = clock()
    return max(0.0, ((middle - start) - (end - middle)) / calls)


def install(tracer):
    """Replace every layer function in every loaded lcpforge module."""
    modules = [m for k, m in sys.modules.items() if k.startswith("lcpforge") and m]
    for layer, names in LAYERS.items():
        home = sys.modules["lcpforge." + layer]
        for fname in names:
            original = getattr(home, fname)
            wrapped = tracer.wrap(layer + "." + fname, original)
            for module in modules:
                if getattr(module, fname, None) is original:
                    setattr(module, fname, wrapped)
