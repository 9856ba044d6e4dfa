"""Tests for the command-line front end: exit codes, text grammars,
deterministic output, the environment precision override, and the
command-line parser against the argparse parser it replaced."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fractions import Fraction as QQ

import lcpforge
import lcpforge.cli as cli_module
from lcpforge import __version__, constructions
from lcpforge.cli import COMMANDS, main, parse_args, parse_units
from lcpforge.constructions import run_pipeline
from lcpforge.embeddings import multiplicative_rank
from lcpforge.errors import InputError
from lcpforge.intlinalg import IntMatrix, matrix_from_string as parse_matrix
from lcpforge.numberfield import elem_from_json, field_new
from lcpforge.polynomials import IntPoly, poly_from_json, poly_from_string as parse_poly


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
    # the first prime m >= 2n + 3 gives an orbit of too small a rank; the
    # report states the rank without proving it, so the certified log
    # minor proves it here from the reported units
    code, out, _ = run_cli(capsys, "dmatrix", "--n", str(n))
    assert code == 0
    doc = json.loads(out)
    assert doc["field"]["modulus"] == modulus
    assert doc["multiplicative_rank"] == n
    field = field_new(poly_from_json(doc["field"]["minpoly"]))
    units = [elem_from_json(field, c) for c in doc["units"]]
    assert multiplicative_rank(field, units, 128) == n


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


@pytest.mark.parametrize("argv", [
    ("ranklcp", "--n", "1"),
    ("worked-example",),
    ("kourganoff", "--q", "1", "--matrix", "2,1;1,1"),
    ("ot", "--minpoly", "x^3-x-1", "--units", "0,1,0"),
], ids=lambda argv: argv[0])
def test_a_build_and_its_verify_each_run_the_pipeline_once(argv, tmp_path, monkeypatch, capsys):
    # the CLI hands run_pipeline the parameter mapping the certificate
    # stores, and verify_certificate rebuilds through the same function
    calls = []

    def counted(name, parameters, *rest):
        calls.append((name, parameters))
        return run_pipeline(name, parameters, *rest)

    monkeypatch.setattr(cli_module, "run_pipeline", counted)
    monkeypatch.setattr(constructions, "run_pipeline", counted)
    path = tmp_path / "cert.json"
    assert run_cli(capsys, *argv, "--out", str(path))[0] == 0
    stored = json.loads(path.read_text())["parameters"]
    assert calls == [(argv[0], stored)]
    assert run_cli(capsys, "verify", str(path))[0] == 0
    assert calls == [(argv[0], stored)] * 2


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


def test_out_that_cannot_be_written_is_named_in_the_error(tmp_path, capsys):
    target = str(tmp_path / "missing" / "x.json")
    code, out, err = run_cli(capsys, "exfield", "--n", "2", "--out", target)
    assert code == 2
    assert out == ""
    assert err == "error: [Errno 2] No such file or directory: %r\n" % target
    assert os.listdir(str(tmp_path)) == []


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", str(Path(__file__).parent / "data" / "ranklcp_n1_128.json")],
        ["exfield", "--n", "3"],
        ["dmatrix", "--n", "2"],
    ],
    ids=["verify", "exfield", "dmatrix"],
)
def test_a_command_that_uses_no_default_precision_ignores_the_env_var(capsys, monkeypatch, argv):
    # verify reruns at the stored precision, and the field reports take
    # none, so a malformed LCPFORGE_PRECISION is never read
    monkeypatch.setenv("LCPFORGE_PRECISION", "abc")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_a_malformed_env_var_or_flag_still_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("LCPFORGE_PRECISION", "abc")
    code, _, err = run_cli(capsys, "ranklcp", "--n", "1")
    assert code == 2
    assert "LCPFORGE_PRECISION must be an integer" in err
    monkeypatch.delenv("LCPFORGE_PRECISION")
    code, _, err = run_cli(capsys, "exfield", "--n", "3", "--precision", "9999")
    assert code == 2
    assert "precision must be an integer in [64, 4096]" in err


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


def test_a_single_block_exits_2_before_any_root_is_certified(capsys, monkeypatch):
    # chi = x^2 + 1 has no real root, so the splitter has one plane: the
    # count decides it, with no root certification or kernel computation
    import lcpforge.embeddings as embeddings_module
    import lcpforge.schema1 as schema1_module

    calls = []
    for module in (embeddings_module, schema1_module):
        monkeypatch.setattr(module, "certified_poly_roots", lambda *args: calls.append(args))
    code, _, err = run_cli(capsys, "kourganoff", "--q", "1", "--matrix", "0,-1;1,0")
    assert code == 2
    assert "decomposition has 1 block(s)" in err
    assert calls == []


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


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "stored, edit, field",
    [
        ("ranklcp_n1_128", lambda d: d.update(parameters={}), "parameters.n"),
        ("ranklcp_n1_128", lambda d: d.update(parameters=[1]), "parameters"),
        ("ranklcp_n1_128", lambda d: d["parameters"].update(n="x"), "parameters.n"),
        ("ranklcp_n1_128", lambda d: d.update(seed="abc"), "seed"),
        ("ranklcp_n1_128", lambda d: d.update(precision_bits="abc"), "precision_bits"),
        ("kourganoff_q1_128", lambda d: d["parameters"].pop("matrix"), "parameters.matrix"),
        ("ranklcp_n1_128", lambda d: d["parameters"].update(n=1.7), "parameters.n"),
        ("ranklcp_n1_128", lambda d: d["parameters"].update(n="1"), "parameters.n"),
        ("ranklcp_n1_128", lambda d: d.update(seed=0.5), "seed"),
        ("ranklcp_n1_128", lambda d: d.update(precision_bits=128.0), "precision_bits"),
        ("kourganoff_q1_128", lambda d: d["parameters"].update(q=True), "parameters.q"),
        ("ot_x3-x-1_128", lambda d: d["parameters"].update(lck=0), "parameters.lck"),
        ("ot_x3-x-1_128", lambda d: d["parameters"].pop("lck"), "parameters.lck"),
    ],
    ids=["parameters-empty", "parameters-list", "n-text", "seed-text",
         "precision-text", "kourganoff-without-matrix", "n-float", "n-numeral",
         "seed-float", "precision-float", "q-bool", "lck-int", "ot-without-lck"],
)
def test_malformed_stored_field_exits_2(tmp_path, capsys, stored, edit, field):
    # a certificate whose stored fields cannot be read is a malformed file,
    # refused before any pipeline runs and named in the message; at another
    # precision no byte is compared, so a value read loosely (1.7 as 1)
    # would pass unnoticed there
    doc = json.loads((DATA / (stored + ".json")).read_text())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for precision in ([], ["--precision", "256"]):
        code, _, err = run_cli(capsys, "verify", str(path), *precision)
        assert code == 2
        assert err.startswith("error: certificate field %s " % field)


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_ot_with_dependent_units_exits_1(capsys):
    # alpha^4 = alpha + 1, so the units span a rank-1 lattice; the
    # deficiency is proven by that exact relation
    code, out, err = run_cli(
        capsys, "ot", "--minpoly", "x^4-x-1", "--units", "0,1,0,0;1,1,0,0"
    )
    assert code == 1
    assert out == ""
    assert "not a full lattice" in err


def test_ot_with_more_independent_units_than_real_places_exits_1(capsys):
    # x^5 - x - 1 has s = 1, and alpha and alpha - 1 are independent units:
    # their logs project to a subgroup of R of rank 2, which is no lattice
    code, out, err = run_cli(
        capsys, "ot", "--minpoly", "x^5-x-1", "--units", "0,1,0,0,0;-1,1,0,0,0"
    )
    assert (code, out) == (1, "")
    assert err.startswith("verification failed: full_lattice: the units have "
                          "multiplicative rank 2 > 1")


def test_ot_with_more_dependent_units_than_real_places_passes(capsys):
    # alpha and alpha^2 have rank 1 = s, so their projected logs are a lattice
    code, out, _ = run_cli(
        capsys, "ot", "--minpoly", "x^5-x-1", "--units", "0,1,0,0,0;0,0,1,0,0"
    )
    assert code == 0
    assert json.loads(out)["checks"]["full_lattice"]["rank"] == 1


def test_ot_log_embedding_shortfall_exits_1_naming_the_stage(capsys):
    # alpha^90 for alpha^3 = alpha + 1: at 64 bits its log enclosures are
    # too wide for the norm check, where alpha^80's are narrow enough
    alpha_80 = "1042002567,1828587033,1380359512"
    alpha_90 = "17342153393,30433357674,22973462017"
    argv = ("ot", "--minpoly", "x^3-x-1", "--precision", "64", "--units")
    assert run_cli(capsys, *argv, alpha_80)[0] == 0
    code, out, err = run_cli(capsys, *argv, alpha_90)
    assert code == 1
    assert out == ""
    assert err.startswith("verification failed: norm_product: log embedding not "
                          "certified at 64 bits: log enclosure too wide")


def test_totally_real_ot_field_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "ot", "--minpoly", "x^3+x^2-2x-1", "--units", "0,1,0"
    )
    assert code == 2
    assert "every embedding is real" in err


# --------------------------------------------------------------------------
# the command-line parser against the argparse parser it replaced


def _common_flags(sub):
    sub.add_argument("--precision", type=int, default=None,
                     help="working precision in bits, 64..4096")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for equivariance sample points")
    sub.add_argument("--out", default=None, help="write canonical JSON here")
    sub.add_argument("--format", choices=("json", "text"), default="json")


# the argparse parser the CLI had before its table, verbatim, as the reference
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


README_ARGV = [
    ["ranklcp", "--n", "2", "--precision", "128"],
    ["worked-example", "--format", "text"],
    ["kourganoff", "--q", "1", "--matrix", "2,1;1,1"],
    ["ot", "--minpoly", "x^3-x-1", "--units", "0,1,0"],
    ["ot", "--minpoly", "x^4-x-1", "--units", "0,1,0,0;-1,1,0,0", "--lck"],
    ["exfield", "--n", "3"],
    ["dmatrix", "--n", "3"],
    ["verify", "cert.json", "--precision", "256"],
]
# the CLI operations of perfbench/run.py, built the way it builds them
_SUITE = [
    ["ranklcp", "--n", "1"],
    ["ranklcp", "--n", "2"],
    ["ranklcp", "--n", "3"],
    ["ranklcp", "--n", "4"],
    ["worked-example"],
    ["kourganoff", "--q", "1", "--matrix", "2,1;1,1"],
    ["kourganoff", "--q", "2", "--matrix", "0,0,1;1,0,1;0,1,0"],
    ["ot", "--minpoly", "x^3-x-1", "--units", "0,1,0"],
    ["ot", "--minpoly", "x^4-x-1", "--units", "0,1,0,0;-1,1,0,0", "--lck"],
]
_CONTROLS = [
    ["kourganoff", "--q", "3", "--matrix", "2,1;1,1"],
    ["ot", "--minpoly", "x^3+x^2-2x-1", "--units", "0,1,0"],
]
_LADDER = [
    (["ranklcp", "--n", "1"], 512),
    (["ranklcp", "--n", "2"], 512),
    (["ot", "--minpoly", "x^3-x-1", "--units", "0,1,0"], 512),
    (["kourganoff", "--q", "1", "--matrix", "2,1;1,1"], 1024),
]
_REPORTS = [["exfield", "--n", "16"], ["exfield", "--n", "20"], ["dmatrix", "--n", "8"]]
PERFBENCH_ARGV = (
    [a + ["--precision", "128", "--seed", "3", "--out", "work/c.json"] for a in _SUITE]
    + [["verify", "work/c.json"]]
    + [a + ["--precision", "128", "--seed", "1"] for a in _CONTROLS]
    + [a + ["--precision", str(bits), "--seed", "2"] for a, bits in _LADDER]
    + [a + ["--seed", "0"] for a in _REPORTS]
)


def _equals_form(argv):
    """Every "--flag value" pair of argv written as "--flag=value"."""
    out, rest = [], list(argv)
    while rest:
        token = rest.pop(0)
        takes_value = token.startswith("--") and token != "--lck"
        out.append(token + "=" + rest.pop(0) if takes_value else token)
    return out


VALID_ARGV = (
    README_ARGV
    + PERFBENCH_ARGV
    + [_equals_form(a) for a in README_ARGV + PERFBENCH_ARGV]
    + [
        ["verify", "--precision", "256", "--format", "text", "cert.json"],
        ["verify", "--out", "report.json", "cert.json"],
        ["ranklcp", "--seed", "-1", "--n", "2", "--format", "json"],
        ["kourganoff", "--matrix", "2,1;1,1", "--q", "1", "--seed", "7"],
        ["ranklcp", "--n", "1", "--n", "2"],
        ["ot", "--lck", "--units", "0,1,0", "--minpoly", "x^3-x-1", "--out="],
        ["kourganoff", "--q", "1", "--matrix=-1,0;0,-1"],
    ]
)


@pytest.mark.parametrize("argv", VALID_ARGV, ids="_".join)
def test_parse_args_matches_argparse(argv):
    expected = vars(build_parser().parse_args(argv))
    if argv[0] == "verify":
        del expected["seed"]  # verify takes no --seed: it re-runs the stored seed
    assert vars(parse_args(argv)) == expected


BAD_ARGV = [
    [],
    ["frobnicate"],
    ["ranklcp"],
    ["kourganoff", "--q", "1"],
    ["verify"],
    ["ranklcp", "--n", "1", "--bogus", "2"],
    ["ranklcp", "--n"],
    ["ranklcp", "--n", "--precision", "128"],
    ["kourganoff", "--q", "1", "--matrix"],
    ["ranklcp", "--n", "x"],
    ["ranklcp", "--n", "1.5"],
    ["ranklcp", "--n=", "--precision", "128"],
    ["ranklcp", "--n", "1", "--precision", "x"],
    ["ranklcp", "--n", "1", "--seed", "1e3"],
    ["exfield", "--n", "3", "--format", "xml"],
    ["ranklcp", "--n", "1", "extra"],
    ["verify", "a.json", "b.json"],
    ["ot", "--minpoly", "x^3-x-1", "--units", "0,1,0", "--lck=1"],
    ["worked-example", "-p", "128"],
    ["--bogus", "ranklcp", "--n", "1"],
    ["ranklcp", "--version"],
]


@pytest.mark.parametrize("argv", BAD_ARGV, ids=lambda a: "_".join(a) or "empty")
def test_bad_argv_exits_2_as_argparse_does(argv, capsys):
    with pytest.raises(SystemExit) as reference:
        build_parser().parse_args(argv)
    assert reference.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lcpforge ")
    assert "\nlcpforge: error: " in err


def test_value_may_begin_with_one_dash():
    # argparse read "-1,0;0,-1" as an unknown flag and wanted "--matrix=-1,0;0,-1"
    argv = ["kourganoff", "--q", "1", "--matrix", "-1,0;0,-1", "--seed", "-2"]
    args = parse_args(argv)
    assert (args.matrix, args.seed) == ("-1,0;0,-1", -2)
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def test_abbreviated_flag_exits_2(capsys):
    # argparse took a unique prefix of a flag; flags are now spelled out in full
    argv = ["ranklcp", "--n", "1", "--prec", "128"]
    assert build_parser().parse_args(argv).precision == 128
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments: --prec" in capsys.readouterr().err


def test_verify_refuses_seed(capsys):
    # verify re-runs the certificate with its stored seed, so a --seed was
    # silently ignored; it is now a usage error
    for argv in (["verify", "cert.json", "--seed", "5"], ["verify", "--seed=5", "cert.json"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


def _exit_output(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 0
    return capsys.readouterr().out


def test_help_names_every_command_and_flag(capsys):
    for flag in ("--help", "-h"):
        out = _exit_output(capsys, flag)
        for command, (help_line, own) in COMMANDS.items():
            assert "lcpforge %s " % command in out
            assert help_line in out
            assert all(name in out for name in own)
        for name in ("--precision", "--seed", "--out", "--format"):
            assert name in out


def test_command_help_names_its_flags(capsys):
    out = _exit_output(capsys, "ranklcp", "-h")
    assert out.startswith("usage: lcpforge ranklcp ")
    for name in ("--n", "--precision", "--seed", "--out", "--format"):
        assert name in out
    out = _exit_output(capsys, "verify", "cert.json", "--help")
    assert "certificate" in out and "--seed" not in out


def test_version(capsys):
    assert _exit_output(capsys, "--version") == "lcpforge 0.1.0\n"


def test_import_loads_no_argparse():
    # argparse and the gettext it imports are most of a short cold call
    src = str(Path(lcpforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, lcpforge.cli; "
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
