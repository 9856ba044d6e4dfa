"""One benchmark process: a cold CLI operation or a warm API session.

Run by run.py, never by hand:

    python3 perfbench/op.py facts
    python3 perfbench/op.py run '<json spec>'

`facts` imports the CLI (and with it every lcpforge module), times the
speed probe (probe.py) SETUP_PROBES times and prints the machine facts
and the probe times; run.py times the process as the set-up cost.  `run`
executes the spec with stdout and stderr captured, then prints one JSON
line: each operation's time, the probe times taken around it, exit code,
verdict and SHA-256 of its output, the peak resident memory and, when the
spec asks for tracing, the per-layer metrics.  A traced run probes only
before each operation, so the spans hold no probe time.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys

import lcpforge.cli
from probe import Sampler, timed

SETUP_PROBES = 20


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest() if text else None


def _outcome(label, seconds, probes, rc, text, error=""):
    doc = json.loads(text) if text else {}
    report = doc.get("report", {})
    return {
        "label": label,
        "seconds": seconds,
        "probe_s": probes,
        "rc": rc,
        "verdict": doc.get("verdict"),
        "bit_identical": report.get("bit_identical"),
        "sha256": _digest(text),
        "error": error.strip().splitlines()[-1] if error.strip() else "",
    }


def run_cli(step, probe):
    """`lcpforge <argv>` as a user runs it; output checked after timing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc, seconds, probes = probe.measure(lambda: lcpforge.cli.main(step["argv"]))
    text = out.getvalue()
    if step.get("out") and rc == 0:
        with open(step["out"]) as handle:
            text = handle.read()
    return _outcome(step["label"], seconds, probes, rc, text, err.getvalue())


def run_api(step, certs, probe):
    """The README's Python-API pattern: build, then verify the result."""
    from lcpforge.constructions import make_ot, make_rank_n_lcp, verify_certificate
    from lcpforge.numberfield import field_new
    from lcpforge.polynomials import IntPoly

    def build():
        if step["pipeline"] == "ranklcp":
            return make_rank_n_lcp(step["n"], precision=step["precision"], seed=step["seed"])
        minpoly = IntPoly(tuple(step["minpoly"]))
        field = field_new(minpoly)
        return make_ot(minpoly, [field.gen()], precision=step["precision"], seed=step["seed"])[1]

    if step["action"] == "build":
        cert, seconds, probes = probe.measure(build)
        certs[step["cert"]] = cert
        return _outcome(step["label"], seconds, probes, 0 if cert.passed else 1, cert.to_json())
    report, seconds, probes = probe.measure(
        lambda: verify_certificate(certs[step["cert"]], precision=step["precision"]))
    # the same document `lcpforge verify` would print
    text = json.dumps({"verdict": "PASS" if report["reproduced"] else "FAILED",
                       "report": {"bit_identical": report["bit_identical"],
                                  "rerun_verdict": report["verdict"]}})
    return _outcome(step["label"], seconds, probes, 0 if report["reproduced"] else 1, text)


def facts():
    import mpmath
    import mpmath.libmp
    from lcpforge import _backend

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "lcpforge_backend": _backend.BACKEND,
        "lcpforge_file": lcpforge.cli.__file__,
    }


def main(argv):
    if argv[1] == "facts":
        result = facts()
        result["probe_s"] = [timed() for _ in range(SETUP_PROBES)]
        print(json.dumps(result))
        return 0
    spec = json.loads(argv[2])
    tracer, probe = None, Sampler()
    if spec["trace"]:
        import layers
        from lcpforge.embeddings import GUARD_BITS

        tracer = layers.Tracer(GUARD_BITS)
        layers.install(tracer)
    else:
        probe.start()
    ops, certs = [], {}
    for step in spec["steps"]:
        if tracer:
            tracer.precision = step["bits"]
        ops.append(run_cli(step, probe) if step["kind"] == "cli"
                   else run_api(step, certs, probe))
    probe.stop()
    result = {"ops": ops, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        from lcpforge.embeddings import _embeddings_cached

        info = _embeddings_cached.cache_info()
        result["layers"] = tracer.layer_metrics(info.hits, info.misses)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
