"""Cross-version regression guard: stored certificates re-verify bit-identically.

Each file under tests/data was written by an earlier version of lcpforge
and must never be regenerated to absorb a change.  Re-running its pipeline
at the stored precision has to reproduce it byte for byte; a change that
alters certificate bytes must bump the schema version instead.

The corpus covers the real and complex eigenvector paths, cross terms and
the rank check at 128, 512 and 1024 bits:

- ranklcp_n1_128, ranklcp_n2_128, ranklcp_n1_512, ranklcp_n2_1024:
  ``ranklcp --n N``; at 1024 bits the sampled check derives the translated
  points' exps from libmp's exponential_series, with two generators
- worked_example_128: ``worked-example``
- kourganoff_q1_128, kourganoff_q1_1024: ``kourganoff --q 1 --matrix "2,1;1,1"``;
  at 1024 bits with one generator
- kourganoff_q2_128: ``kourganoff --q 2 --matrix "0,0,1;1,0,1;0,1,0"``
- ot_x3-x-1_128, ot_x3-x-1_512: ``ot --minpoly "x^3-x-1" --units "0,1,0"``
- ot_lck_x4-x-1_128, ot_lck_x4-x-1_512: ``ot --minpoly "x^4-x-1" --units
  "0,1,0,0;-1,1,0,0" --lck``; at 512 bits the cross-term functionals are
  above 128 bits

The field reports under data/reports (``dmatrix --n 7``, ``--n 8`` and
``exfield --n 16``, ``--n 20``, ``--n 40``) are kept apart from the certificates; they
have no verify path, so each is reproduced by re-running its command and
comparing bytes.
"""

from pathlib import Path

import mpmath
import mpmath.libmp
import pytest

from lcpforge.certio import load_certificate
from lcpforge.cli import main
from lcpforge.constructions import verify_certificate

CORPUS = sorted((Path(__file__).parent / "data").glob("*.json"))


def test_corpus_is_present():
    assert len(CORPUS) == 12


# the mpmath that wrote the corpus: sealed residuals and floats pass
# through its mpf_div, exp_basecase and nstr, whose results no
# specification fixes, and rawmetric's error bound for exp is proven for
# its exp_basecase
MPMATH_VERSION = "1.3.0"
MPMATH_BACKEND = "python"


def test_mpmath_is_the_one_the_corpus_was_written_with():
    found = (mpmath.__version__, mpmath.libmp.BACKEND)
    assert found == (MPMATH_VERSION, MPMATH_BACKEND), (
        "mpmath %s with the %s backend is installed, but certificate bytes are "
        "pinned to mpmath %s with the %s backend; another mpmath may change "
        "sealed bytes" % (found + (MPMATH_VERSION, MPMATH_BACKEND))
    )


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_stored_certificate_verifies_bit_identically(path):
    report = verify_certificate(load_certificate(str(path)))
    assert report["mismatches"] == []
    assert report["bit_identical"] is True
    assert report["reproduced"] is True


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_stored_certificate_traffic_has_the_shapes_the_builders_assume(path):
    # the builders carry a ratio's witness as (units[j], places[k]), seal
    # every fiber translation as zero, every cross-term table as all ones,
    # every functional constant as zero at the metric's working bits, and
    # every equivariance report at 100 samples with its residual at the
    # precision plus 32 bits; a schema change that breaks one of these
    # shapes fails here
    doc = load_certificate(str(path)).document
    places = doc["decomposition"]["block_embeddings"]
    for gen, unit_row in zip(doc["generators"], doc["checks"]["unit_ratios"]["entries"]):
        assert [w["embedding"] for w in gen["witnesses"]] == places
        assert all(w["element"] == gen["witnesses"][0]["element"] for w in gen["witnesses"])
        assert all(w["exponent"] == 1 for w in gen["witnesses"])
        assert all(entry == unit_row[0] for entry in unit_row)
        assert gen["translation"] == ["0"] * doc["decomposition"]["p"]
    metric = doc["metric"]
    for term in metric["cross_terms"]:
        assert all(x == "1" for row in term["table"] for x in row)
    assert len(doc["generators"]) == len(doc["checks"]["unit_ratios"]["entries"])
    workbits = metric["translations"][0][0][1]
    functionals = metric["functionals"] + [metric["base_conformal"]]
    functionals += [term["functional"] for term in metric["cross_terms"]]
    for f in functionals:
        assert f["constant"] == ["0.0", workbits]
        assert all(bits == workbits for _, bits in f["coeffs"])
    reports = doc["checks"]["equivariance"]["reports"]
    assert [r["generator"] for r in reports] == [g["label"] for g in doc["generators"]]
    for report in reports:
        assert report["samples"] == 100
        assert report["max_residual"][1] == doc["precision_bits"] + 32


REPORTS = Path(__file__).parent / "data" / "reports"


def test_stored_dmatrix_report_is_reproduced(tmp_path):
    # m = 19, d = 9: the units are a prefix of the orbit of the Galois
    # generator, so these bytes pin the generator chosen for this field.
    out = tmp_path / "dmatrix_n8.json"
    assert main(["dmatrix", "--n", "8", "--out", str(out)]) == 0
    assert out.read_bytes() == (REPORTS / "dmatrix_n8.json").read_bytes()


def test_stored_dmatrix_n7_report_is_reproduced(tmp_path):
    # n = 7 is the first n whose conductor is not the least prime m with
    # (m - 1)/2 >= n: the orbit at m = 17 has rank 4 < 7, so m = 19.
    out = tmp_path / "dmatrix_n7.json"
    assert main(["dmatrix", "--n", "7", "--out", str(out)]) == 0
    assert out.read_bytes() == (REPORTS / "dmatrix_n7.json").read_bytes()


@pytest.mark.parametrize("n", [16, 20, 40])
def test_stored_exfield_report_is_reproduced(tmp_path, n):
    # m = 37, 43, 83: the field's minimal polynomial and its signature,
    # counted by a Sturm chain, are in these bytes
    name = "exfield_n%d.json" % n
    out = tmp_path / name
    assert main(["exfield", "--n", str(n), "--out", str(out)]) == 0
    assert out.read_bytes() == (REPORTS / name).read_bytes()
