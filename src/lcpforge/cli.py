"""Command-line front end.

Parses a command line into the parameter mapping its certificate or report
stores, builds it through constructions.run_pipeline or field_report,
verifies stored certificates, and emits either canonical JSON or a short
text report.  Exit codes: 0 when the certificate (or re-verification)
passes, 1 when verification fails, 2 on usage errors.
"""

import os
import sys
from types import SimpleNamespace

from .certio import SCHEMA_VERSION, canonical_json, load_certificate, write_atomic
from .constructions import field_report, run_pipeline, verify_certificate
from .embeddings import validate_precision
from .errors import CheckFailureError, LcpError, PrecisionError
from .intlinalg import matrix_from_string, matrix_to_json
from .numberfield import field_new
from .polynomials import poly_from_string, poly_to_json, rat_from_json
from . import __version__


def parse_units(text: str):
    """Unit grammar: one power-basis coordinate row per unit,
    "0,1,0;-1,1,0" with rational entries."""
    return [
        [rat_from_json(entry) for entry in row.split(",")]
        for row in text.split(";")
    ]


# --------------------------------------------------------------------------
# rendering


def _render_text(doc):
    lines = []
    params = doc.get("parameters", {})
    shown = " ".join("%s=%s" % (k, params[k]) for k in sorted(params))
    lines.append("pipeline: %s%s" % (doc["pipeline"], " (%s)" % shown if shown else ""))
    if "precision_bits" in doc:
        lines.append("precision: %d bits" % doc["precision_bits"])
    lines.append("seed: %d" % doc["seed"])
    for name, payload in doc.get("checks", {}).items():
        verdict = payload.get("verdict") if isinstance(payload, dict) else payload
        lines.append("  %-16s %s" % (name, "pass" if verdict else "FAIL"))
    lines.append("verdict: %s" % doc["verdict"])
    if doc.get("failed_check"):
        lines.append("failed check: %s" % doc["failed_check"])
    return "\n".join(lines) + "\n"


def _render_verify_text(doc):
    report = doc["report"]
    lines = [
        "precision: %d bits" % doc["precision_bits"],
        "re-run verdict: %s" % report["rerun_verdict"],
    ]
    if report["bit_identical"] is not None:
        lines.append(
            "byte comparison: %s"
            % ("identical" if report["bit_identical"] else "DIFFERS")
        )
    for path in report["mismatches"]:
        lines.append("  mismatch: %s" % path)
    lines.append("reproduced: %s" % ("yes" if doc["verdict"] == "PASS" else "NO"))
    return "\n".join(lines) + "\n"


def _emit(doc, args, render_text=_render_text):
    payload = canonical_json(doc)
    if args.out:
        write_atomic(args.out, payload)
    if args.format == "text":
        sys.stdout.write(render_text(doc))
    elif not args.out:
        sys.stdout.write(payload)
    return 0 if doc["verdict"] == "PASS" else 1


# --------------------------------------------------------------------------
# argument parsing: one table, read by parse_args and by the help text

REQUIRED = object()  # the default of a flag that must be given
# flag -> (type, default, help): a tuple type lists the allowed values, a
# bool flag takes no value, and a name without dashes is positional
COMMON_FLAGS = {
    "--precision": (int, None, "working precision in bits, 64..4096"),
    "--seed": (int, 0, "seed for equivariance sample points"),
    "--out": (str, None, "write canonical JSON here"),
    "--format": (("json", "text"), "json", "json (the default) or text"),
}
_RANK = {"--n": (int, REQUIRED, "rank, a positive integer")}
# command -> (help, its own flags); a flag set to None withdraws a common one
COMMANDS = {
    "exfield": ("cyclic totally real field of rank n", _RANK),
    "dmatrix": ("commuting unit matrices of rank n", _RANK),
    "ranklcp": ("rank-n structure certificate", _RANK),
    "kourganoff": ("warped product over one expanding eigenline", {
        "--q": (int, REQUIRED, "base power, 1 or 2"),
        "--matrix": (str, REQUIRED, 'row-major "a,b;c,d"')}),
    "ot": ("unit lattice quotient of a mixed-signature field", {
        "--minpoly": (str, REQUIRED, 'e.g. "x^3-x-1"'),
        "--units": (str, REQUIRED, 'power-basis coordinate rows, e.g. "0,1,0;-1,1,0"'),
        "--lck": (bool, False, "flat rotation plane with coupled real blocks")}),
    "worked-example": ("frozen rank-2 certificate", {}),
    # verify re-runs the certificate with its stored seed
    "verify": ("re-run a stored certificate", {
        "certificate": (str, REQUIRED, "path to a certificate JSON file"), "--seed": None}),
}


def _flags(command):
    own = COMMANDS[command][1]  # listed first, and overriding a common flag
    return {f: s for f, s in {**own, **COMMON_FLAGS, **own}.items() if s}


def _usage(command):
    if command is None:
        return "usage: lcpforge [-h] [--version] {%s} ..." % ",".join(COMMANDS)
    words = [command, "[-h]"]
    for flag, (kind, default, _) in _flags(command).items():
        word = flag if kind is bool or flag[0] != "-" else "%s %s" % (flag, flag[2:].upper())
        words.append(word if default is REQUIRED else "[%s]" % word)
    return "usage: lcpforge " + " ".join(words)


def _help(command):
    names = [command] if command else list(COMMANDS)
    lines = ["%s\n    %s" % (_usage(name), COMMANDS[name][0]) for name in names]
    flags = {f: s for name in names for f, s in _flags(name).items()}
    lines += [""] + ["  %-12s %s" % (f, s[2]) for f, s in flags.items()]
    return "\n".join(([] if command else [_usage(None), ""]) + lines) + "\n"


def _fail(command, reason):
    sys.stderr.write("%s\nlcpforge: error: %s\n" % (_usage(command), reason))
    raise SystemExit(2)


def parse_args(argv):
    """Parse a command line by the COMMANDS table; exit 2 on a usage error."""
    head = argv[0] if argv else None
    if head == "--version" or {"-h", "--help"} & set(argv):
        sys.stdout.write("lcpforge %s\n" % __version__ if head == "--version"
                         else _help(head if head in COMMANDS else None))
        raise SystemExit(0)
    if head not in COMMANDS:
        _fail(None, "invalid command %r" % head if argv else "a command is required")
    flags = _flags(head)
    args = SimpleNamespace(command=head, **{f.lstrip("-"): s[1] for f, s in flags.items()})
    positionals = [f for f in flags if f[0] != "-"]
    # "--flag=value" reads as "--flag value", so "--lck=1" leaves "1" unrecognized
    tokens = [part for t in argv[1:] for part in (t.split("=", 1) if t[:2] == "--" else [t])]
    while tokens:
        token = tokens.pop(0)
        if token[:2] != "--" and positionals:
            setattr(args, positionals.pop(0), token)
        elif token[:2] != "--" or token not in flags:
            _fail(head, "unrecognized arguments: %s" % token)
        elif flags[token][0] is not bool and (not tokens or tokens[0][:2] == "--"):
            _fail(head, "argument %s: expected one argument" % token)
        else:
            kind = flags[token][0]
            value = True if kind is bool else tokens.pop(0)
            if kind is int and not value.lstrip("-").isdecimal() or (
                    isinstance(kind, tuple) and value not in kind):
                _fail(head, "argument %s: invalid value: %r" % (token, value))
            setattr(args, token[2:], int(value) if kind is int else value)
    missing = [f for f in flags if getattr(args, f.lstrip("-")) is REQUIRED]
    if missing:
        _fail(head, "the following arguments are required: %s" % ", ".join(missing))
    return args


def _parameters(args) -> dict:
    """The parameter mapping args.command's certificate or report stores,
    read off the command line by the text parsers."""
    if args.command == "kourganoff":
        return {"q": args.q, "matrix": matrix_to_json(matrix_from_string(args.matrix))}
    if args.command == "ot":
        minpoly = poly_from_string(args.minpoly)
        field = field_new(minpoly)
        units = [field.from_coords(row).to_json() for row in parse_units(args.units)]
        return {"minpoly": poly_to_json(minpoly), "units": units, "lck": args.lck}
    return {"n": args.n} if COMMANDS[args.command][1] is _RANK else {}


def _dispatch(args) -> int:
    # an explicit --precision is refused before any work; without one the
    # builders and verify_certificate apply the default, so a command that
    # needs no precision never reads LCPFORGE_PRECISION
    bits = args.precision
    if bits is not None:
        validate_precision(bits)
    if args.command in ("exfield", "dmatrix"):
        return _emit(field_report(args.command, _parameters(args), args.seed), args)
    if args.command != "verify":
        cert = run_pipeline(args.command, _parameters(args), bits, args.seed)
        return _emit(cert.document, args)
    cert = load_certificate(args.certificate)
    report = verify_certificate(cert, bits)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "pipeline": "verify",
        "parameters": {"certificate": os.path.basename(args.certificate)},
        "seed": cert.seed,
        "precision_bits": report["precision_bits"],
        "report": {
            "bit_identical": report["bit_identical"],
            "mismatches": report["mismatches"],
            "rerun_verdict": report["verdict"],
        },
        "verdict": "PASS" if report["reproduced"] else "FAILED",
    }
    return _emit(doc, args, _render_verify_text)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _dispatch(args)
    except (CheckFailureError, PrecisionError) as exc:
        sys.stderr.write("verification failed: %s\n" % exc)
        return 1
    except (LcpError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
