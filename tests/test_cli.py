"""End-to-end command line checks, run in process through cli.main."""

import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import weakref
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from liecheck import algebras as al
from liecheck import centralizers as cz
from liecheck import cli
from liecheck import matrixoracle as mo
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


@pytest.mark.parametrize(
    "name", ["sl(1_0,R)", "so(1_0,C)", "sl(٣,R)", "su(1_0)", "su(٣)", "sp(1_0,R)", "so*(１０)"]
)
def test_info_sizes_are_ascii_decimal(capsys, name):
    # int() alone would read these as 10 or 3
    rc, out, err = run(capsys, "info", name)
    assert rc == 2 and out == ""
    assert err == "error: cannot parse algebra token %r (at position 0)\n" % name


def test_info_negative_sizes_are_out_of_domain(capsys):
    rc, out, err = run(capsys, "info", "sl(-3,R)")
    assert rc == 2 and out == ""
    assert err == "error: sl_r(-3): size must be >= 1\n"


def test_info_so4c_not_simple(capsys):
    rc, _, err = run(capsys, "info", "so(4,C)")
    assert rc == 2 and "sl(2,C)+sl(2,C)" in err


@pytest.mark.parametrize("name", ["su(7)", "so(5)", "sp(3)", "g2(-14)"])
def test_info_compact_prints_nothing(capsys, name):
    # a compact algebra has no max compact to report: the error must come
    # before any line of the report
    rc, out, err = run(capsys, "info", name)
    assert rc == 2
    assert out == ""
    assert err == "error: %s is already compact\n" % name


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


def test_oracle_matrix_refuses_models_past_the_size_limit(capsys, monkeypatch):
    # so*(34) is realified on R^68: refused before any basis is built
    def never(*_):
        raise AssertionError("built an element")

    monkeypatch.setattr(mo, "element", never)
    rc, out, err = run(capsys, "oracle", "--family", "so_star", "--n", "17", "--matrix", "--element", "identity")
    assert rc == 2 and out == ""
    assert "68" in err and "64" in err


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


def _dumped_payload(rep):
    """The dict `verify --json` used to build whole and hand to json.dump."""
    route_counts = {}
    for c in rep.cases:
        route_counts[c.route] = route_counts.get(c.route, 0) + 1
    strict = [c.margin for c in rep.cases if c.route not in (vf.ROUTE_EQUALITY, vf.ROUTE_RANK1)]
    return {
        "scope": rep.scope,
        "max_param": rep.max_param,
        "passed": rep.passed,
        "route_counts": route_counts,
        "worst_strict_margin": min(strict, default=None),
        "cases": [vf.case_payload(c) for c in rep.cases],
        "products": [
            {
                "factors": [al.render(a) for a in p.factors],
                "dim_s": p.dim_s,
                "product_bound": p.product_bound,
                "product_margin": p.product_margin,
                "naive_fixed_dim": p.naive_fixed_dim,
                "naive_bound": p.naive_bound,
                "naive_exceeds": p.naive_exceeds,
                "swap_fixed_dim": p.swap_fixed_dim,
                "swap_margin": p.swap_margin,
                "passed": p.passed,
            }
            for p in rep.products
        ],
    }


def _nested_dump(obj, depth):
    return "  " * depth + json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth)


@pytest.mark.parametrize("scope", ["all", "semisimple"])
def test_verify_json_is_the_dumped_payload(capsys, scope):
    rc, out, _ = run(capsys, "verify", "--json", "--scope", scope, "--max-param", "8")
    assert rc == 0
    payload = _dumped_payload(vf.sweep(scope, 8))
    assert json.loads(out) == payload
    assert out == json.dumps(payload, indent=2) + "\n"


def test_case_blocks_match_case_payload():
    rep = vf.sweep("all", 8)
    hand_made = vf.CaseResult(
        al.algebra(al.Family.SL_R, 3),
        "berger_involution",
        7,
        'so(3) \u2192 "u(1)"\\ caf\u00e9\t\U0001d524 (fixed dim 0)',
        False,
    )
    for c in (*rep.cases, hand_made):
        block = cli._case_block(c)
        assert json.loads(block) == vf.case_payload(c)
        assert block == _nested_dump(vf.case_payload(c), 2)


class _CountingWriter(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_verify_json_writes_in_batches(monkeypatch):
    # json.dump made about 24 writes per case, each a write(2) on an
    # unbuffered stdout; the streamed document makes one per batch
    out = _CountingWriter()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["verify", "--json", "--max-param", "16"]) == 0
    cases = len(json.loads(out.getvalue())["cases"])
    assert cases > 4000
    assert out.writes <= cases // 1000 + 5, out.writes


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_verify_json_into_a_closed_pipe_exits_141(unbuffered):
    # `liecheck verify --json | head -c ...`: a reader that stops early is
    # not a failed sweep (exit 1) and gets no traceback
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "liecheck.cli", "verify", "--json", "--max-param", "16"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(64 * 1024)
    proc.stdout.close()
    _, err = proc.communicate(timeout=30)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert head.startswith(b'{\n  "scope": "all"')
    assert err == b""


class _CaseList(list):
    """A list of cases that a weakref can follow."""


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_verify_holds_one_algebra_at_a_time(monkeypatch, json_flag):
    # when an algebra is verified, no earlier algebra's cases are alive
    lists = []
    alive_at_call = []
    original = vf.verify_case

    def tracked(a):
        if any(ref() is not None for ref in lists):
            gc.collect()  # a list kept only by a reference cycle is not held
        alive_at_call.append(sum(1 for ref in lists if ref() is not None))
        cases = _CaseList(original(a))
        lists.append(weakref.ref(cases))
        return cases

    monkeypatch.setattr(vf, "verify_case", tracked)
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert cli.main(["verify", "--max-param", "12", *json_flag]) == 0
    assert len(alive_at_call) > 100
    assert alive_at_call == [0] * len(alive_at_call)


def test_verify_json_without_a_spool_exits_2(tmp_path, capsys, monkeypatch):
    # the cases wait in a temporary file behind the head; with nowhere to
    # put it, nothing is printed, and the text report needs no such file
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    rc, out, err = run(capsys, "verify", "--json", "--max-param", "8")
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot create a spool file in ") and "missing" in err
    rc, out, _ = run(capsys, "verify", "--max-param", "8")
    assert rc == 0 and out.endswith("result: PASS\n")


@pytest.mark.parametrize("size", ["-3", "0", "1"])
def test_verify_size_below_two_exits_2(capsys, size):
    # below 2 no classical family is reached; a PASS would rest on the
    # exceptional rows alone
    rc, out, err = run(capsys, "verify", "--max-param", size)
    assert rc == 2 and "error:" in err
    assert "PASS" not in out


@pytest.mark.parametrize("size", ["-3", "1"])
def test_export_size_below_two_exits_2(tmp_path, capsys, size):
    # below 2 the atlas would hold the exceptional rows alone
    out_path = tmp_path / "atlas.json"
    rc, out, err = run(capsys, "export", "--max-param", size, "--out", str(out_path))
    assert rc == 2 and out == ""
    assert "error: max-param must be at least 2, got %s" % size in err
    assert not out_path.exists()


def test_sizes_past_the_limit_exit_2(tmp_path, capsys, monkeypatch):
    # refused before any case is checked or any row is built
    def never(*_):
        raise AssertionError("started the work")

    monkeypatch.setattr(vf, "verify_case", never)
    monkeypatch.setattr(cli.inv, "isotropy_entries", never)
    out_path = tmp_path / "atlas.json"
    for argv in (
        ["verify", "--max-param", "65"],
        ["verify", "--json", "--max-param", "65"],
        ["export", "--max-param", "65", "--out", str(out_path)],
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert "error:" in err and "64" in err and "65" in err
    assert not out_path.exists()


def test_involutions_past_the_size_limit_exit_2(capsys):
    # the split rows of su(p,q) grow as p*q; no partial report is printed
    rc, out, err = run(capsys, "involutions", "su(33,32)")
    assert rc == 2 and out == ""
    assert "error:" in err and "size limit 64" in err
    rc, out, _ = run(capsys, "involutions", "su(32,32)")
    assert rc == 0 and out.startswith("su(32,32): ")


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
