"""Certificate serialization: canonical JSON documents for pipeline runs.

A certificate is a plain JSON-ready tree (dicts, lists, strings, ints,
bools).  Exact numbers are stored as integer or "n/d" strings; floats as
[decimal_string, precision_bits] pairs with enough digits to reparse to
the identical binary value.  Canonical rendering sorts keys, so byte
equality is meaningful for determinism and tamper checks.
"""

import json
import os
from json.encoder import encode_basestring_ascii as _encode_str

from mpmath import mp
from mpmath.libmp import repr_dps

from .errors import InputError

SCHEMA_VERSION = 1


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
    """Deterministic rendering: sorted keys, two-space indent, newline.

    One pass writes and validates: the bytes equal
    json.dumps(document, sort_keys=True, indent=2) + "\n", with ASCII
    escapes, and a key that is not a str or a leaf that is not a str, int,
    bool or None raises InputError naming its path ($.a.b[3]).
    """
    out = []
    try:
        _write(document, out, "\n")
    except _Fault as fault:
        path = "$" + "".join(reversed(fault.where))
        raise InputError(fault.template % path) from None
    out.append("\n")
    return "".join(out)


class _Fault(Exception):
    """A non-JSON node; each enclosing container adds its step to where."""

    def __init__(self, template):
        super().__init__(template)
        self.template = template
        self.where = []


def _write(node, out, indent):
    """Append node's rendering to out; indent is a newline and the spaces
    of node's depth, which open the line of its closing bracket."""
    if isinstance(node, str):
        out.append(_encode_str(node))
    elif node is None:
        out.append("null")
    elif node is True:
        out.append("true")
    elif node is False:
        out.append("false")
    elif isinstance(node, int):
        out.append(int.__repr__(node))
    elif isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        for key in node:
            if not isinstance(key, str):
                raise _Fault("non-string key at %s")
        inner = indent + "  "
        lead = "{" + inner
        for key in sorted(node):
            out.append(lead + _encode_str(key) + ": ")
            try:
                _write(node[key], out, inner)
            except _Fault as fault:
                fault.where.append("." + key)
                raise
            lead = "," + inner
        out.append(indent + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "," + inner
        # A list ending in a str (a row of "n/d" entries) is tried as one
        # join; [text, bits] float pairs and int rows skip the attempt.
        if isinstance(node[-1], str):
            try:  # the string encoder raises TypeError at a non-str item
                out.append("[" + inner + sep.join(map(_encode_str, node)) + indent + "]")
                return
            except TypeError:
                pass
        lead = "[" + inner
        for i, item in enumerate(node):
            out.append(lead)
            try:
                _write(item, out, inner)
            except _Fault as fault:
                fault.where.append("[%d]" % i)
                raise
            lead = sep
        out.append(indent + "]")
    else:
        raise _Fault(
            "certificate trees hold only JSON scalars, found %r at %%s"
            % type(node).__name__
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
    """Write text atomically: temp file in the target directory, then rename.

    The temp file is created as open(path, "w") creates a file, with mode
    0o666 less the umask, and an OSError names path, not the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, ".lcpforge-%s.tmp" % os.urandom(8).hex())
    created = False
    try:
        with open(tmp, "x") as handle:
            created = True
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if created:
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
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
