"""Command-line front end.

Runs the construction pipelines, verifies stored certificates, and emits
either canonical JSON or a short text report.  Exit codes: 0 when the
certificate (or re-verification) passes, 1 when verification fails, 2 on
usage errors.
"""

import argparse
import os
import sys

from .certio import SCHEMA_VERSION, canonical_json, load_certificate, write_atomic
from .constructions import (
    _field_section,
    make_dmatrix,
    make_exfield,
    make_kourganoff,
    make_ot,
    make_rank_n_lcp,
    verify_certificate,
    worked_rank2_example,
)
from .embeddings import default_precision, validate_precision
from .errors import (
    CheckFailureError,
    InputError,
    LcpError,
    NonIntegralError,
    PrecisionError,
    StructureError,
)
from .intlinalg import matrix_from_string, matrix_to_json
from .numberfield import field_new
from .polynomials import poly_from_string, rat_from_json
from . import __version__


def parse_units(text: str):
    """Unit grammar: one power-basis coordinate row per unit,
    "0,1,0;-1,1,0" with rational entries."""
    return [
        [rat_from_json(entry) for entry in row.split(",")]
        for row in text.split(";")
    ]


def _resolve_precision(value):
    if value is None:
        return default_precision()
    return validate_precision(value)


# --------------------------------------------------------------------------
# reports for the exact-only commands


def _exfield_report(n, seed):
    ex = make_exfield(n)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "lcpforge", "version": __version__},
        "pipeline": "exfield",
        "parameters": {"n": int(n)},
        "seed": int(seed),
        "field": _field_section(ex.field, ex.modulus),
        "verdict": "PASS",
    }


def _dmatrix_report(n, seed):
    dm = make_dmatrix(n)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "lcpforge", "version": __version__},
        "pipeline": "dmatrix",
        "parameters": {"n": int(n)},
        "seed": int(seed),
        "field": _field_section(dm.field, dm.exfield.modulus),
        "units": [u.to_json() for u in dm.units],
        "matrices": [matrix_to_json(m) for m in dm.matrices],
        "multiplicative_rank": len(dm.units),
        "verdict": "PASS",
    }


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
# argument parsing


def _common_flags(sub):
    sub.add_argument("--precision", type=int, default=None,
                     help="working precision in bits, 64..4096")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for equivariance sample points")
    sub.add_argument("--out", default=None, help="write canonical JSON here")
    sub.add_argument("--format", choices=("json", "text"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcpforge",
        description="construct and verify certified locally conformally "
        "product structures",
    )
    parser.add_argument("--version", action="version",
                        version="lcpforge %s" % __version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("exfield", help="cyclic totally real field of rank n")
    sub.add_argument("--n", type=int, required=True)
    _common_flags(sub)

    sub = subs.add_parser("dmatrix", help="commuting unit matrices of rank n")
    sub.add_argument("--n", type=int, required=True)
    _common_flags(sub)

    sub = subs.add_parser("ranklcp", help="rank-n structure certificate")
    sub.add_argument("--n", type=int, required=True)
    _common_flags(sub)

    sub = subs.add_parser(
        "kourganoff", help="warped product over one expanding eigenline"
    )
    sub.add_argument("--q", type=int, required=True, help="base power, 1 or 2")
    sub.add_argument("--matrix", required=True, help='row-major "a,b;c,d"')
    _common_flags(sub)

    sub = subs.add_parser(
        "ot", help="unit lattice quotient of a mixed-signature field"
    )
    sub.add_argument("--minpoly", required=True, help='e.g. "x^3-x-1"')
    sub.add_argument(
        "--units",
        required=True,
        help='power-basis coordinate rows, e.g. "0,1,0;-1,1,0"',
    )
    sub.add_argument("--lck", action="store_true",
                     help="flat rotation plane with coupled real blocks")
    _common_flags(sub)

    sub = subs.add_parser("worked-example", help="frozen rank-2 certificate")
    _common_flags(sub)

    sub = subs.add_parser("verify", help="re-run a stored certificate")
    sub.add_argument("certificate", help="path to a certificate JSON file")
    _common_flags(sub)

    return parser


def _dispatch(args) -> int:
    bits = _resolve_precision(args.precision)
    if args.command == "exfield":
        return _emit(_exfield_report(args.n, args.seed), args)
    if args.command == "dmatrix":
        return _emit(_dmatrix_report(args.n, args.seed), args)
    if args.command == "ranklcp":
        cert = make_rank_n_lcp(args.n, bits, args.seed)
        return _emit(cert.document, args)
    if args.command == "kourganoff":
        cert = make_kourganoff(args.q, matrix_from_string(args.matrix), bits, args.seed)
        return _emit(cert.document, args)
    if args.command == "ot":
        minpoly = poly_from_string(args.minpoly)
        field = field_new(minpoly)
        units = [field.from_coords(row) for row in parse_units(args.units)]
        _, cert = make_ot(minpoly, units, bits, args.seed, lck=args.lck)
        return _emit(cert.document, args)
    if args.command == "worked-example":
        cert = worked_rank2_example(bits, args.seed)
        return _emit(cert.document, args)
    if args.command == "verify":
        cert = load_certificate(args.certificate)
        report = verify_certificate(
            cert, None if args.precision is None else bits
        )
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
    raise InputError("unknown command %r" % args.command)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (InputError, NonIntegralError, StructureError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (CheckFailureError, PrecisionError) as exc:
        sys.stderr.write("verification failed: %s\n" % exc)
        return 1
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except LcpError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
