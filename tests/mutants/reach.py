"""Reachability sweep: every function in src/lcpforge is called by the
benchmark's operations or the corpus verifies, or is on the allow-list.

    python tests/mutants/reach.py

Runs, in this one interpreter under sys.setprofile, every operation of
the benchmark's workloads at operation seed 0 (perfbench/run.py's
WORKLOADS: the cold CLI commands through lcpforge.cli.main and the warm
API session through perfbench/op.py's run_api), then `lcpforge verify`
of every certificate in tests/data.  It lists every function, method and
nested function that src/lcpforge defines and that no call reached, and
exits 1 if one of them is not on ALLOWED: code no operation reaches is
deleted together with its tests, or named here with the reason it stays.
It also exits 1, naming it, when a function on ALLOWED was reached, so
the list names only what the sweep does not run.
"""

import ast
import contextlib
import io
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "lcpforge"

# Reachable by some input, unreached by the benchmark and the corpus:
# module.qualified_name, or a rule below
ALLOWED = {
    # a field with no real place; every pipeline's field has one
    "embeddings._is_torsion",
    # irreducibility_heuristic's factor-degree test, used when the
    # modular patterns alone do not decide
    "numberfield._subset_sums",
    # refine_root's exclusion test near a root of the Sturm chain
    "polynomials._exclusion_radius",
    # the default precision, read only when no precision is given; every
    # benchmark operation and stored certificate names its precision
    "embeddings.default_precision",
    # the text form of a polynomial, which the reprs print
    "polynomials.poly_to_string",
    # the CLI's text output and usage paths
    "cli._render_text",
    "cli._render_verify_text",
    "cli._usage",
    "cli._help",
    "cli._fail",
    # the float decoder of the public API; the pipelines only encode
    "certio.dec_float",
    # the LcpCertificate accessors
    "certio.LcpCertificate.pipeline",
    "certio.LcpCertificate.parameters",
    "certio.LcpCertificate.precision_bits",
    "certio.LcpCertificate.failed_check",
    "certio.LcpCertificate.save",
}


def allowed(name):
    """Whether an unreached function may stay: it is on ALLOWED, or it is
    a public operator or repr (a dunder method)."""
    last = name.rsplit(".", 1)[-1]
    return name in ALLOWED or (last.startswith("__") and last.endswith("__"))


def defined_functions():
    """{(file, first line of the code object): module.qualified_name} for
    every def in the package; a decorated def's code starts at its first
    decorator."""
    found = {}

    def visit(node, module, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = "%s.%s" % (module, name)
                visit(child, module, name + ".", path)
            else:
                visit(child, module, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "", path)
    return found


def _operations(workdir):
    """The steps of every benchmark workload at operation seed 0, in order."""
    import run as bench  # perfbench/run.py

    steps = []
    for make in bench.WORKLOADS.values():
        for unit in make(0, workdir, random.Random(0)):
            steps += unit
    return steps


class _Direct:
    """run_api's probe, without timing."""

    def measure(self, fn):
        return fn(), 0.0, []


def sweep():
    """The names of the package's functions that no call reached."""
    # ahead of this directory, whose run.py is the mutant runner
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import lcpforge.cli
    import op  # perfbench/op.py

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with tempfile.TemporaryDirectory(prefix="lcpforge-reach-") as workdir:
        steps = _operations(workdir)
        corpus = sorted((ROOT / "tests" / "data").glob("*.json"))
        certs = {}
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                for step in steps:
                    if step["kind"] == "cli":
                        lcpforge.cli.main(step["argv"])
                    else:
                        op.run_api(step, certs, _Direct())
                for path in corpus:
                    lcpforge.cli.main(["verify", str(path)])
        finally:
            sys.setprofile(None)
    return sorted(name for key, name in defined_functions().items() if key not in called)


def main():
    unreached = sweep()
    for name in unreached:
        print("%s: %s" % ("allowed" if allowed(name) else "UNREACHED", name))
    bad = [name for name in unreached if not allowed(name)]
    stale = sorted(ALLOWED.difference(unreached))
    for name in stale:
        print("REACHED, still on ALLOWED: %s" % name)
    print("%d functions unreached, %d of them not allowed; %d stale allow-list entries"
          % (len(unreached), len(bad), len(stale)))
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
