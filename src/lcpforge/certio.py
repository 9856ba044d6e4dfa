"""Certificate serialization: canonical JSON documents for pipeline runs.

A certificate is a plain JSON-ready tree (dicts, lists, strings, ints,
bools).  Exact numbers are stored as integer or "n/d" strings; floats as
[decimal_string, precision_bits] pairs with enough digits to reparse to
the identical binary value.  Canonical rendering sorts keys, so byte
equality is meaningful for determinism and tamper checks.
"""

import json
import os
import tempfile

from mpmath import mp
from mpmath.libmp import repr_dps

from .errors import InputError

SCHEMA_VERSION = 1

_JSON_SCALARS = (str, int, bool, type(None))


def enc_float(x, bits: int):
    """Encode an mpf as a [decimal string, precision bits] pair."""
    bits = int(bits)
    with mp.workprec(bits):
        value = mp.mpf(x)
        text = mp.nstr(value, repr_dps(bits))
        if mp.mpf(text) != value:  # repr_dps guarantees this never trips
            text = mp.nstr(value, repr_dps(bits) + 4)
    return [text, bits]


def dec_float(pair):
    """Reparse a [decimal string, precision bits] pair at its precision."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise InputError("float payload must be a [string, bits] pair")
    text, bits = pair
    try:
        with mp.workprec(int(bits)):
            return mp.mpf(text)
    except (ValueError, TypeError) as exc:
        raise InputError("bad float payload %r: %s" % (pair, exc)) from None


def enc_float_vector(xs, bits: int):
    return [enc_float(x, bits) for x in xs]


def enc_float_matrix(rows, bits: int):
    return [[enc_float(x, bits) for x in row] for row in rows]


def canonical_json(document) -> str:
    """Deterministic rendering: sorted keys, two-space indent, newline."""
    _validate_tree(document, "$")
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _validate_tree(node, path):
    if isinstance(node, dict):
        for key, value in node.items():
            if not isinstance(key, str):
                raise InputError("non-string key at %s" % path)
            _validate_tree(value, path + "." + key)
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            _validate_tree(value, "%s[%d]" % (path, i))
    elif not isinstance(node, _JSON_SCALARS):
        raise InputError(
            "certificate trees hold only JSON scalars, found %r at %s"
            % (type(node).__name__, path)
        )


class LcpCertificate:
    """Sealed record of one pipeline run with all verification verdicts."""

    __slots__ = ("document",)

    def __init__(self, document: dict):
        if not isinstance(document, dict):
            raise InputError("certificate document must be a mapping")
        for key in ("schema_version", "pipeline", "parameters", "precision_bits",
                    "seed", "checks", "verdict"):
            if key not in document:
                raise InputError("certificate document lacks %r" % key)
        object.__setattr__(self, "document", document)

    def __setattr__(self, name, value):
        raise AttributeError("LcpCertificate is immutable")

    @property
    def pipeline(self) -> str:
        return self.document["pipeline"]

    @property
    def parameters(self) -> dict:
        return self.document["parameters"]

    @property
    def precision_bits(self) -> int:
        return self.document["precision_bits"]

    @property
    def seed(self) -> int:
        return self.document["seed"]

    @property
    def checks(self) -> dict:
        return self.document["checks"]

    @property
    def verdict(self) -> str:
        return self.document["verdict"]

    @property
    def passed(self) -> bool:
        return self.document["verdict"] == "PASS"

    @property
    def failed_check(self):
        return self.document.get("failed_check")

    def to_json(self) -> str:
        return canonical_json(self.document)

    def save(self, path: str) -> None:
        write_atomic(path, self.to_json())


def write_atomic(path: str, text: str) -> None:
    """Write text atomically: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lcpforge-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def certificate_from_json(text: str) -> LcpCertificate:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("certificate is not valid JSON: %s" % exc) from exc
    if not isinstance(document, dict):
        raise InputError("certificate JSON must be an object")
    if document.get("schema_version") != SCHEMA_VERSION:
        raise InputError(
            "unsupported schema_version %r (expected %d)"
            % (document.get("schema_version"), SCHEMA_VERSION)
        )
    return LcpCertificate(document)


def load_certificate(path: str) -> LcpCertificate:
    try:
        with open(path, "r") as handle:
            return certificate_from_json(handle.read())
    except OSError as exc:
        raise InputError("cannot read certificate %r: %s" % (path, exc)) from None


def collect_verdicts(node, prefix="checks"):
    """All boolean verdict entries in a check tree, keyed by path."""
    found = {}
    if isinstance(node, dict):
        for key in sorted(node):
            if key == "verdict":
                found[prefix] = node[key]
            else:
                found.update(collect_verdicts(node[key], prefix + "." + key))
    elif isinstance(node, (list, tuple)):
        for i, item in enumerate(node):
            found.update(collect_verdicts(item, "%s[%d]" % (prefix, i)))
    return found
