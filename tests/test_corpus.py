"""Cross-version regression guard: stored certificates re-verify bit-identically.

Each file under tests/data was written by an earlier version of lcpforge
and must never be regenerated to absorb a change.  Re-running its pipeline
at the stored precision has to reproduce it byte for byte; a change that
alters certificate bytes must bump the schema version instead.

The corpus covers the real and complex eigenvector paths, cross terms and
the rank check at 128, 512 and 1024 bits:

- ranklcp_n1_128, ranklcp_n2_128, ranklcp_n1_512: ``ranklcp --n N``
- worked_example_128: ``worked-example``
- kourganoff_q1_128, kourganoff_q1_1024: ``kourganoff --q 1 --matrix "2,1;1,1"``
- kourganoff_q2_128: ``kourganoff --q 2 --matrix "0,0,1;1,0,1;0,1,0"``
- ot_x3-x-1_128, ot_x3-x-1_512: ``ot --minpoly "x^3-x-1" --units "0,1,0"``
- ot_lck_x4-x-1_128: ``ot --minpoly "x^4-x-1" --units "0,1,0,0;-1,1,0,0" --lck``

The field reports under data/reports (``dmatrix --n 8`` and ``exfield --n
16``, ``--n 20``, ``--n 40``) are kept apart from the certificates; they
have no verify path, so each is reproduced by re-running its command and
comparing bytes.
"""

from pathlib import Path

import pytest

from lcpforge.certio import load_certificate
from lcpforge.cli import main
from lcpforge.constructions import verify_certificate

CORPUS = sorted((Path(__file__).parent / "data").glob("*.json"))


def test_corpus_is_present():
    assert len(CORPUS) == 10


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_stored_certificate_verifies_bit_identically(path):
    report = verify_certificate(load_certificate(str(path)))
    assert report["mismatches"] == []
    assert report["bit_identical"] is True
    assert report["reproduced"] is True


REPORTS = Path(__file__).parent / "data" / "reports"


def test_stored_dmatrix_report_is_reproduced(tmp_path):
    # m = 19, d = 9: the units are a prefix of the orbit of the Galois
    # generator, so these bytes pin the generator chosen for this field.
    out = tmp_path / "dmatrix_n8.json"
    assert main(["dmatrix", "--n", "8", "--out", str(out)]) == 0
    assert out.read_bytes() == (REPORTS / "dmatrix_n8.json").read_bytes()


@pytest.mark.parametrize("n", [16, 20, 40])
def test_stored_exfield_report_is_reproduced(tmp_path, n):
    # m = 37, 43, 83: the field's minimal polynomial and its signature,
    # counted by a Sturm chain, are in these bytes
    name = "exfield_n%d.json" % n
    out = tmp_path / name
    assert main(["exfield", "--n", str(n), "--out", str(out)]) == 0
    assert out.read_bytes() == (REPORTS / name).read_bytes()
