"""End-to-end command line checks, run in process through cli.main."""

import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from liecheck import algebras as al
from liecheck import centralizers as cz
from liecheck import cli
from liecheck import verify as vf


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_info_so44(capsys):
    rc, out, _ = run(capsys, "info", "so(4,4)")
    assert rc == 0
    assert "out = S4" in out
    assert "dim g = 28, dim K = 12, dim S = 16" in out
    assert "so(8,C)" in out  # complexification


def test_info_reductive_sum(capsys):
    rc, out, _ = run(capsys, "info", "sl(5,R)+R")
    assert rc == 0
    assert "dim S = 15" in out
    assert "split abelian part: dim 1" in out


def test_info_parse_error(capsys):
    rc, _, err = run(capsys, "info", "zl(3)")
    assert rc == 2 and "error:" in err


def test_info_so4c_not_simple(capsys):
    rc, _, err = run(capsys, "info", "so(4,C)")
    assert rc == 2 and "sl(2,C)+sl(2,C)" in err


def test_involutions_sl6r(capsys):
    rc, out, _ = run(capsys, "involutions", "sl(6,R)")
    assert rc == 0
    assert "target dim S - rk = 15" in out
    assert "s(gl(k,R)+gl(l,R))" in out
    assert "equality_case" in out


def test_involutions_triality_so44(capsys):
    rc, out, _ = run(capsys, "involutions", "so(4,4)")
    assert rc == 0
    assert "order-3" in out and "triality" in out


def test_involutions_rejects_sums(capsys):
    rc, _, err = run(capsys, "involutions", "sl(3,R)+R")
    assert rc == 2 and "single simple" in err


def test_oracle_su_pq(capsys):
    rc, out, _ = run(capsys, "oracle", "--family", "su", "--p", "2", "--q", "3")
    assert rc == 0
    assert "bound = 8, oracle max = 8" in out
    assert "agreement: exact" in out


def test_oracle_so_star(capsys):
    rc, out, _ = run(capsys, "oracle", "--family", "so_star", "--n", "5")
    assert rc == 0
    assert "bound = 12, oracle max = 12" in out


def test_oracle_parameter_shapes(capsys):
    rc, _, err = run(capsys, "oracle", "--family", "su", "--n", "3", "--p", "1", "--q", "2")
    assert rc == 2
    rc, _, err = run(capsys, "oracle", "--family", "so_star", "--p", "1", "--q", "2")
    assert rc == 2 and "--n" in err
    rc, _, err = run(capsys, "oracle", "--family", "su", "--p", "2")
    assert rc == 2


@pytest.mark.parametrize(
    "argv, label",
    [(["--family", "so", "--p", "2", "--q", "3"], "so_pq"), (["--family", "sp", "--n", "3"], "sp_n_compact")],
)
def test_oracle_without_closed_form_names_matrix(capsys, monkeypatch, argv, label):
    # refused when the arguments are read, before the bound or the
    # enumeration runs
    def never(*_):
        raise AssertionError("reached the oracle")

    monkeypatch.setattr(cz, "bound", never)
    monkeypatch.setattr(cz, "oracle_max", never)
    rc, out, err = run(capsys, "oracle", *argv)
    assert rc == 2 and out == ""
    assert "no closed-form bound for %s" % label in err and "--matrix" in err


def test_bounded_families_are_the_closed_forms():
    F = cz.SigFamily
    sample = {
        F.SO_N: (4,), F.SU_N: (3,), F.SP_N_COMPACT: (3,), F.SOSTAR_2N: (5,),
        F.SO_PQ: (3, 3), F.SU_PQ: (3, 3), F.SP_PQ: (3, 3),
    }
    assert set(sample) == set(F)
    for family, params in sample.items():
        if family in cz.BOUNDED_FAMILIES:
            assert isinstance(cz.bound(family, params), int)
        else:
            with pytest.raises(al.OutOfDomain, match="no closed-form bound"):
                cz.bound(family, params)


def test_oracle_refuses_unbounded_enumeration():
    # su(70) has about 4 million eigenvalue signatures; counting them first
    # turns an unbounded run into a prompt exit 2
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "liecheck.cli", "oracle", "--family", "su", "--n", "70"],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 2, proc.stderr
    assert "budget" in proc.stderr and str(cz.ENUMERATION_BUDGET) in proc.stderr
    assert proc.stdout == ""
    assert elapsed < 2.0, elapsed


def test_oracle_matrix_q_split(capsys):
    rc, out, _ = run(
        capsys, "oracle", "--family", "so", "--p", "4", "--q", "5", "--matrix"
    )
    assert rc == 0
    assert "element q_split (order 2)" in out
    assert "dim S^A = 16" in out


def test_oracle_matrix_bad_element(capsys):
    rc, _, err = run(
        capsys,
        "oracle", "--family", "so", "--p", "2", "--q", "3", "--matrix",
        "--element", "bogus",
    )
    assert rc == 2 and "unknown element" in err


def test_verify_text_pass(capsys):
    rc, out, _ = run(capsys, "verify", "--scope", "complex", "--max-param", "8")
    assert rc == 0
    assert "result: PASS" in out
    assert "maximal_rank_pair" in out
    assert "0 failed" in out


def test_verify_json(capsys):
    rc, out, _ = run(capsys, "verify", "--scope", "all", "--max-param", "6", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["cases"]
    for case in payload["cases"]:
        assert set(case) == {"algebra", "route", "margin", "witness", "passed"}
        if case["route"] == "equality_case":
            assert case["margin"] == 0 and case["passed"]
    assert payload["worst_strict_margin"] >= 1
    assert payload["products"]


@pytest.mark.parametrize("size", ["-3", "0", "1"])
def test_verify_size_below_two_exits_2(capsys, size):
    # below 2 no classical family is reached; a PASS would rest on the
    # exceptional rows alone
    rc, out, err = run(capsys, "verify", "--max-param", size)
    assert rc == 2 and "error:" in err
    assert "PASS" not in out


def test_verify_smallest_size_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--max-param", "2")
    assert rc == 0 and "result: PASS" in out


def test_verify_bad_scope_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--scope", "everything"])
    assert exc.value.code == 2


def test_vcd_exact_output(capsys):
    rc, out, _ = run(capsys, "vcd", "sl(3,R)", "--rkq", "2")
    assert rc == 0
    assert out.splitlines()[0] == "vcd = 3, gd = 3"
    assert "cocompact = no" in out


def test_vcd_cocompact(capsys):
    rc, out, _ = run(capsys, "vcd", "sl(3,R)", "--rkq", "0")
    assert rc == 0 and "cocompact = yes" in out


def test_vcd_isotypy_exit(capsys):
    rc, _, err = run(
        capsys, "vcd", "sl(3,R)+so(1,4)", "--irreducible", "--rkq", "1"
    )
    assert rc == 2 and "isotypic" in err


def test_vcd_rank_exit(capsys):
    rc, _, err = run(capsys, "vcd", "sl(3,R)", "--rkq", "9")
    assert rc == 2 and "rational rank" in err


def test_vcd_rejects_abelian_parts(capsys):
    rc, _, err = run(capsys, "vcd", "sl(3,R)+R", "--rkq", "1")
    assert rc == 2 and "simple factors" in err


def test_export_unwritable_path(tmp_path, capsys):
    rc, _, err = run(capsys, "export", "--out", str(tmp_path / "missing" / "atlas.json"))
    assert rc == 2
    assert "error: cannot write" in err


def test_export_schema_and_tables(tmp_path, capsys):
    out_path = tmp_path / "atlas.json"
    rc, out, _ = run(capsys, "export", "--out", str(out_path))
    assert rc == 0 and "wrote" in out
    payload = json.loads(out_path.read_text())
    schema = json.loads(
        resources.files("liecheck").joinpath("data/atlas.schema.json").read_text()
    )
    jsonschema.validate(payload, schema)
    assert payload["schema_version"] == 1
    assert payload["maximal_rank_pairs"] == vf.maximal_rank_rows()
    assert payload["restricted_forms"] == vf.restricted_rows()
    ambients = {e["ambient"] for e in payload["entries"]}
    expected = {al.render(a) for a in al.iter_noncompact_simple(16)}
    assert ambients == expected


def test_parse_render_roundtrip():
    for a in al.iter_noncompact_simple(10):
        assert al.parse_algebra(al.render(a)) == al.algebra(a.family, *a.params)
