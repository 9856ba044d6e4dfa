"""Tests for the command-line front end: exit codes, text grammars,
deterministic output, and the environment precision override."""

import json

import pytest

from fractions import Fraction as QQ

from lcpforge.cli import main, parse_units
from lcpforge.errors import InputError
from lcpforge.intlinalg import IntMatrix, matrix_from_string as parse_matrix
from lcpforge.polynomials import IntPoly, poly_from_string as parse_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# text grammars


def test_parse_poly_examples():
    assert parse_poly("x^3+x^2-2x-1") == IntPoly((-1, -2, 1, 1))
    assert parse_poly("x^3 - x - 1") == IntPoly((-1, -1, 0, 1))
    assert parse_poly("X^2+X-1") == IntPoly((-1, 1, 1))
    assert parse_poly("-x+2") == IntPoly((2, -1))
    assert parse_poly("5") == IntPoly((5,))
    assert parse_poly("2x^2+x^2") == IntPoly((0, 0, 3))


def test_parse_poly_rejections():
    for bad in ("", "x^", "x**2", "x^2+?", "y^2"):
        with pytest.raises(InputError):
            parse_poly(bad)


def test_parse_matrix_examples():
    assert parse_matrix("2,1;1,1") == IntMatrix(((2, 1), (1, 1)))
    assert parse_matrix(" 0 , -1 ; 1 , 0 ") == IntMatrix(((0, -1), (1, 0)))


def test_parse_matrix_rejections():
    for bad in ("1,2;3", "a,b;c,d", "", "1.5,2;3,4"):
        with pytest.raises(InputError):
            parse_matrix(bad)


def test_parse_units_rational_rows():
    assert parse_units("0,1,0;-1/2,1,0") == [
        [QQ(0), QQ(1), QQ(0)],
        [QQ(-1, 2), QQ(1), QQ(0)],
    ]
    with pytest.raises(InputError):
        parse_units("1,x")
    with pytest.raises(InputError):
        parse_units("1/0")


# --------------------------------------------------------------------------
# passing runs


def test_ranklcp_json_stdout(capsys):
    code, out, err = run_cli(capsys, "ranklcp", "--n", "1", "--precision", "128")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "PASS"
    assert doc["precision_bits"] == 128
    assert doc["seed"] == 0


def test_worked_example_text_format(capsys):
    code, out, err = run_cli(capsys, "worked-example", "--format", "text")
    assert code == 0
    assert "verdict: PASS" in out
    assert "golden" in out


def test_exfield_and_dmatrix_reports(capsys):
    code, out, _ = run_cli(capsys, "exfield", "--n", "2")
    assert code == 0
    assert json.loads(out)["field"]["modulus"] == 7
    code, out, _ = run_cli(capsys, "dmatrix", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["multiplicative_rank"] == 2
    assert len(doc["matrices"]) == 2


@pytest.mark.parametrize("n,modulus", [(7, 19), (14, 37), (19, 47), (20, 47)])
def test_dmatrix_takes_a_larger_conductor_where_the_first_falls_short(
    capsys, n, modulus
):
    # the first prime m >= 2n + 3 gives an orbit of too small a rank
    code, out, _ = run_cli(capsys, "dmatrix", "--n", str(n))
    assert code == 0
    doc = json.loads(out)
    assert doc["field"]["modulus"] == modulus
    assert doc["multiplicative_rank"] == n


def test_ranklcp_rank7_passes_and_reverifies(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "ranklcp", "--n", "7", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["verdict"] == "PASS"
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["report"]["bit_identical"] is True


def test_kourganoff_and_ot_commands(capsys):
    code, out, _ = run_cli(
        capsys, "kourganoff", "--q", "1", "--matrix", "2,1;1,1"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"
    code, out, _ = run_cli(
        capsys, "ot", "--minpoly", "x^3-x-1", "--units", "0,1,0"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_minpoly_star_between_coefficient_and_x(capsys):
    code, plain, _ = run_cli(capsys, "ot", "--minpoly", "x^3-x-1", "--units", "0,1,0")
    assert code == 0
    code, starred, _ = run_cli(capsys, "ot", "--minpoly", "x^3-1*x-1", "--units", "0,1,0")
    assert code == 0
    assert starred == plain


def test_out_writes_canonical_json(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "ranklcp", "--n", "1", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["verdict"] == "PASS"


def test_byte_identical_reruns(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "ranklcp", "--n", "1", "--seed", "3", "--out", str(p1))
    run_cli(capsys, "ranklcp", "--n", "1", "--seed", "3", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_env_var_sets_default_precision(capsys, monkeypatch):
    monkeypatch.setenv("LCPFORGE_PRECISION", "96")
    code, out, _ = run_cli(capsys, "ranklcp", "--n", "1")
    assert code == 0
    assert json.loads(out)["precision_bits"] == 96


def test_flag_overrides_env_var(capsys, monkeypatch):
    monkeypatch.setenv("LCPFORGE_PRECISION", "96")
    code, out, _ = run_cli(capsys, "ranklcp", "--n", "1", "--precision", "128")
    assert json.loads(out)["precision_bits"] == 128


# --------------------------------------------------------------------------
# verify command


def test_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run_cli(capsys, "ranklcp", "--n", "1", "--out", str(path))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "PASS"
    assert doc["report"]["bit_identical"] is True


def test_verify_higher_precision(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run_cli(capsys, "ranklcp", "--n", "1", "--out", str(path))
    code, out, _ = run_cli(
        capsys, "verify", str(path), "--precision", "256", "--format", "text"
    )
    assert code == 0
    assert "reproduced: yes" in out


def test_verify_flags_tampering(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run_cli(capsys, "ranklcp", "--n", "1", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["checks"]["rank"]["verdict"] = False
    doc["verdict"] = "FAILED"
    doc["failed_check"] = "rank"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert json.loads(out)["verdict"] == "FAILED"


# --------------------------------------------------------------------------
# usage errors


def test_inadmissible_power_exits_2(capsys):
    code, _, err = run_cli(capsys, "kourganoff", "--q", "3", "--matrix", "2,1;1,1")
    assert code == 2
    assert "q = 1 and q = 2" in err


def test_bad_grammar_exits_2(capsys):
    code, _, err = run_cli(capsys, "kourganoff", "--q", "1", "--matrix", "a;b")
    assert code == 2
    code, _, err = run_cli(capsys, "ot", "--minpoly", "x**3", "--units", "0,1")
    assert code == 2
    for minpoly in ("y^3-y-1", "1 2x^3-x-1"):
        code, _, err = run_cli(capsys, "ot", "--minpoly", minpoly, "--units", "0,1,0")
        assert code == 2


def test_bad_precision_exits_2(capsys):
    code, _, err = run_cli(capsys, "ranklcp", "--n", "1", "--precision", "17")
    assert code == 2
    assert "precision" in err


def test_missing_certificate_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2


def test_malformed_certificate_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_totally_real_ot_field_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "ot", "--minpoly", "x^3+x^2-2x-1", "--units", "0,1,0"
    )
    assert code == 2
    assert "every embedding is real" in err
