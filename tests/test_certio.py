"""Tests for certificate serialization: float encoding round-trips,
canonical JSON determinism, document validation, and atomic save/load."""

import enum
import errno
import json
import os
import stat
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from lcpforge.certio import (
    LcpCertificate,
    SCHEMA_VERSION,
    canonical_json,
    certificate_from_json,
    collect_verdicts,
    dec_float,
    enc_float,
    enc_float_matrix,
    enc_float_vector,
    load_certificate,
    write_atomic,
)
from lcpforge.errors import InputError

DATA = Path(__file__).parent / "data"


def _minimal_doc(**overrides):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "pipeline": "ranklcp",
        "parameters": {"n": 1},
        "precision_bits": 128,
        "seed": 0,
        "checks": {"rank": {"verdict": True}},
        "verdict": "PASS",
        "failed_check": None,
    }
    doc.update(overrides)
    return doc


# --------------------------------------------------------------------------
# float encoding


@pytest.mark.parametrize("bits", [64, 128, 256, 1024])
def test_enc_float_roundtrip_exact(bits):
    with mp.workprec(bits):
        x = mp.log(mp.mpf(7)) / 3
    pair = enc_float(x, bits)
    assert isinstance(pair[0], str) and pair[1] == bits
    with mp.workprec(bits):
        assert dec_float(pair) == x


@given(st.integers(min_value=-(2**60), max_value=2**60),
       st.integers(min_value=-40, max_value=40))
def test_enc_float_roundtrip_dyadic(mantissa, exponent):
    bits = 128
    with mp.workprec(bits):
        x = mp.mpf(mantissa) * mp.mpf(2) ** exponent
    pair = enc_float(x, bits)
    with mp.workprec(bits):
        assert dec_float(pair) == x


def test_enc_float_vector_and_matrix():
    with mp.workprec(96):
        vec = [mp.mpf(1) / 3, mp.sqrt(2)]
    enc = enc_float_vector(vec, 96)
    assert len(enc) == 2 and all(pair[1] == 96 for pair in enc)
    mat = enc_float_matrix([vec, vec], 96)
    assert mat[0] == mat[1] == enc


def test_dec_float_rejects_garbage():
    with pytest.raises(InputError):
        dec_float(["not a number", 128])
    with pytest.raises(InputError):
        dec_float(["1.0"])


# --------------------------------------------------------------------------
# canonical JSON


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"b": 1, "a": [True, None, "x"]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": [True, None, "x"]}


def test_canonical_json_deterministic():
    doc = _minimal_doc()
    assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))


def _reference_json(document) -> str:
    """The rendering canonical_json reproduces, frozen here."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


_SCALAR_FAULT = "certificate trees hold only JSON scalars, found %r at %s"
_KEY_FAULT = "non-string key at %s"

# each fault, and the message template it raises with its path
_FAULTS = [
    pytest.param(1.5, _SCALAR_FAULT % ("float", "%s"), id="float"),
    pytest.param(mp.mpf(1), _SCALAR_FAULT % ("mpf", "%s"), id="mpf"),
    pytest.param({1, 2}, _SCALAR_FAULT % ("set", "%s"), id="set"),
    pytest.param(b"bytes", _SCALAR_FAULT % ("bytes", "%s"), id="bytes"),
    pytest.param({"a": 0, 1: "x"}, _KEY_FAULT, id="int-key"),
    pytest.param({(1, 2): "x"}, _KEY_FAULT, id="tuple-key"),
]

# each place a fault can sit: a function that puts it there, and its path
_PLACES = [
    pytest.param(lambda f: f, "$", id="root"),
    pytest.param(lambda f: {"x": f}, "$.x", id="dict"),
    pytest.param(lambda f: [0, "a", f], "$[2]", id="list"),
    pytest.param(lambda f: ("a", f), "$[1]", id="tuple"),
    pytest.param(lambda f: [f, "a"], "$[0]", id="list-ending-in-str"),
    pytest.param(
        lambda f: {"checks": {"rank": {"value": [0, 1, f], "verdict": True}},
                   "pipeline": "ranklcp"},
        "$.checks.rank.value[2]",
        id="nested",
    ),
    pytest.param(
        lambda f: {"generators": [{"witness": ["1", "2"]}, {"witness": [f]}]},
        "$.generators[1].witness[0]",
        id="list-of-dicts",
    ),
]


def test_canonical_json_rejects_floats_and_objects():
    for document, message in [
        ({"x": 1.5}, _SCALAR_FAULT % ("float", "$.x")),
        ({"x": mp.mpf(1)}, _SCALAR_FAULT % ("mpf", "$.x")),
        ({1: "non-string key"}, _KEY_FAULT % "$"),
    ]:
        with pytest.raises(InputError) as info:
            canonical_json(document)
        assert str(info.value) == message


@pytest.mark.parametrize("place, path", _PLACES)
@pytest.mark.parametrize("fault, template", _FAULTS)
def test_canonical_json_names_the_fault_and_its_path(fault, template, place, path):
    with pytest.raises(InputError) as info:
        canonical_json(place(fault))
    assert str(info.value) == template % path


def test_canonical_json_names_the_first_fault_in_sorted_key_order():
    # "b" is inserted first, but "a" sorts first and is written first
    document = {"b": {1: "x"}, "a": [1.5]}
    with pytest.raises(InputError) as info:
        canonical_json(document)
    assert str(info.value) == _SCALAR_FAULT % ("float", "$.a[0]")
    # within one dict a non-string key is named before any faulty value
    with pytest.raises(InputError) as info:
        canonical_json({"a": 1.5, 2: "x"})
    assert str(info.value) == _KEY_FAULT % "$"


def test_canonical_json_renders_int_and_str_subclasses_as_their_values():
    class Level(enum.IntEnum):
        HIGH = 7

    class Name(str):
        pass

    document = {Name("k"): [Level.HIGH, Name('q"\\'), True, 1]}
    assert canonical_json(document) == _reference_json(document)
    assert json.loads(canonical_json(document)) == {"k": [7, 'q"\\', True, 1]}


def test_canonical_json_writes_lists_of_mixed_items():
    for document in (["a", 1], [1, "a"], ["a", None, "b"], ("a", True, "b"),
                     [["x"], "y"], [{"k": "v"}, "w"], ["1/2", "-3"], ("a",)):
        assert canonical_json(document) == _reference_json(document)


_TRICKY = st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\ud800",
     "\udfff", "\U0001f600", "/", "\n", "\t"]
)
_STRINGS = st.text(st.characters(exclude_categories=()) | _TRICKY, max_size=12)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | _STRINGS
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.lists(_STRINGS, max_size=5)
    | st.dictionaries(_STRINGS, children, max_size=5),
    max_leaves=40,
)


@given(_TREES)
def test_canonical_json_matches_the_reference_rendering(document):
    assert canonical_json(document) == _reference_json(document)


_STORED = sorted(DATA.glob("*.json")) + sorted((DATA / "reports").glob("*.json"))


@pytest.mark.parametrize("path", _STORED, ids=lambda p: p.parent.name + "/" + p.stem)
def test_canonical_json_reproduces_every_stored_file(path):
    text = path.read_text()
    document = json.loads(text)
    assert canonical_json(document) == _reference_json(document) == text


def test_canonical_json_never_calls_json_dumps(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", forbidden)
    monkeypatch.setattr(json.JSONEncoder, "encode", forbidden)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", forbidden)
    document = json.loads((DATA / "reports" / "dmatrix_n8.json").read_text())
    assert canonical_json(document).startswith('{\n  "field": {\n')


# --------------------------------------------------------------------------
# certificate container


def test_certificate_requires_core_keys():
    for key in ("schema_version", "pipeline", "precision_bits", "seed",
                "checks", "verdict"):
        doc = _minimal_doc()
        del doc[key]
        with pytest.raises(InputError):
            LcpCertificate(doc)


def test_certificate_properties():
    cert = LcpCertificate(_minimal_doc())
    assert cert.pipeline == "ranklcp"
    assert cert.parameters == {"n": 1}
    assert cert.precision_bits == 128
    assert cert.seed == 0
    assert cert.passed and cert.failed_check is None
    failed = LcpCertificate(
        _minimal_doc(verdict="FAILED", failed_check="rank",
                     checks={"rank": {"verdict": False}})
    )
    assert not failed.passed and failed.failed_check == "rank"


def test_certificate_json_roundtrip_byte_identical():
    cert = LcpCertificate(_minimal_doc())
    text = cert.to_json()
    again = certificate_from_json(text)
    assert again.to_json() == text


def test_certificate_from_json_rejects_malformed():
    with pytest.raises(InputError):
        certificate_from_json("{broken")
    with pytest.raises(InputError):
        certificate_from_json(json.dumps(_minimal_doc(schema_version=99)))
    with pytest.raises(InputError):
        certificate_from_json(json.dumps([1, 2, 3]))


def test_save_and_load_roundtrip(tmp_path):
    cert = LcpCertificate(_minimal_doc())
    path = tmp_path / "cert.json"
    cert.save(str(path))
    loaded = load_certificate(str(path))
    assert loaded.to_json() == cert.to_json()
    # the write is atomic: no stray temp files remain
    assert os.listdir(str(tmp_path)) == ["cert.json"]


@pytest.mark.parametrize(
    "umask", [0o022, 0o077, 0o002, 0o000], ids=["022", "077", "002", "000"]
)
def test_save_gives_the_file_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_atomic(str(tmp_path / "cert.json"), "{}\n")
        with open(str(tmp_path / "plain.json"), "w") as handle:
            handle.write("{}\n")
    finally:
        os.umask(old)
    mode = stat.S_IMODE(os.stat(str(tmp_path / "cert.json")).st_mode)
    assert mode == 0o666 & ~umask
    assert mode == stat.S_IMODE(os.stat(str(tmp_path / "plain.json")).st_mode)


def test_save_error_names_the_target_and_leaves_no_temp_file(tmp_path):
    missing = str(tmp_path / "missing" / "cert.json")
    with pytest.raises(FileNotFoundError) as raised:
        write_atomic(missing, "{}\n")
    assert raised.value.filename == missing
    assert str(raised.value) == "[Errno %d] %s: %r" % (
        errno.ENOENT, os.strerror(errno.ENOENT), missing
    )
    # the rename onto a directory fails after the temp file was written
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as raised:
        write_atomic(str(target), "{}\n")
    assert raised.value.filename == str(target)
    assert raised.value.filename2 is None
    assert sorted(os.listdir(str(tmp_path))) == ["taken"]
    assert os.listdir(str(target)) == []


def test_load_certificate_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_certificate(str(tmp_path / "nope.json"))


# --------------------------------------------------------------------------
# verdict collection


def test_collect_verdicts_nested():
    tree = {
        "a": {"verdict": True, "inner": [{"verdict": False}]},
        "b": {"deep": {"verdict": True}},
    }
    got = collect_verdicts(tree)
    assert got == {
        "checks.a": True,
        "checks.a.inner[0]": False,
        "checks.b.deep": True,
    }


def test_collect_verdicts_empty():
    assert collect_verdicts({}) == {}
    assert collect_verdicts({"x": {"value": 3}}) == {}
