"""End-to-end command line checks, run in process through cli.main."""

import gc
import importlib
import io
import json
import os
import pkgutil
import resource
import stat
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from collections import Counter
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import liecheck
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
    rc, out, _ = run(capsys, "info", "sl(2,R)+u(1)")
    assert rc == 0
    assert "dim g = 4, dim K = 2, dim S = 2" in out
    assert "compact abelian part: dim 1" in out


# exception classes that report a bug, not bad input: cli.main lets them
# through as a traceback rather than an exit 2
_INTERNAL_ERRORS = {"liecheck.centralizers.OracleInvariantError"}


def test_every_library_error_is_an_input_error_or_internal():
    found = set()
    for info in pkgutil.iter_modules(liecheck.__path__, "liecheck."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                name = "%s.%s" % (obj.__module__, obj.__qualname__)
                found.add(name)
                assert issubclass(obj, al.InputError) or name in _INTERNAL_ERRORS, name
    assert _INTERNAL_ERRORS <= found
    assert "liecheck.verify.MissingTableRow" in found and issubclass(vf.MissingTableRow, LookupError)
    assert not issubclass(cz.OracleInvariantError, al.InputError)


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
    assert err == "error: sl(-3,R): size must be >= 1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["info", "so(-1,3)"], "so(-1,3): sizes must be nonnegative, not both zero"),
        (["info", "so*(-2)"], "so*(-2): size must be >= 1"),
        (["oracle", "--family", "su", "--n", "0", "--matrix"], "su(0): size must be >= 1"),
    ],
)
def test_catalog_refusals_name_the_algebra_as_info_renders_it(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


_PAST_THE_CAP = "sl(1%s,R)" % ("0" * 2199)


@pytest.mark.parametrize(
    "argv, family",
    [
        (["info", _PAST_THE_CAP], "sl_r"),
        (["vcd", "--rkq", "1", _PAST_THE_CAP], "sl_r"),
        (["info", "su(1,%d)" % 10**2000], "su"),
    ],
)
def test_sizes_past_the_cap_exit_2(capsys, argv, family):
    # dim g of sl(10^2199,R) has more digits than int-to-str converts
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == "error: %s: sizes must total at most 10**2000\n" % family


def test_info_at_the_cap(capsys):
    rc, out, _ = run(capsys, "info", "sl(%d,R)" % 10**al.SIZE_CAP_DIGITS)
    assert rc == 0
    assert out.splitlines()[1].startswith("dim g = %d, " % (10 ** (2 * al.SIZE_CAP_DIGITS) - 1))


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
    rc, out, err = run(capsys, "oracle", "--family", "so_star", "--p", "1", "--q", "2")
    assert (rc, out, err) == (2, "", "error: family so_star takes --n, not a signature\n")
    rc, _, err = run(capsys, "oracle", "--family", "su", "--p", "2")
    assert rc == 2


def test_oracle_help_lists_the_family_names(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["oracle", "--help"])
    assert exit_info.value.code == 0
    assert "--family {so,so_star,sp,su}" in capsys.readouterr().out


# each --family name with its size flags, the SigFamily value it reaches,
# and whether that family has no closed form, so that the oracle refuses it
_FAMILY_FLAGS = [
    (["so", "--n", "4"], "so_n", False),
    (["su", "--n", "3"], "su_n", False),
    (["sp", "--n", "3"], "sp_n_compact", True),
    (["so_star", "--n", "5"], "so_star_2n", False),
    (["so", "--p", "2", "--q", "3"], "so_pq", True),
    (["su", "--p", "2", "--q", "3"], "su_pq", False),
    (["sp", "--p", "2", "--q", "3"], "sp_pq", False),
]


@pytest.mark.parametrize(
    "flags, value, refused", _FAMILY_FLAGS, ids=[value for _, value, _ in _FAMILY_FLAGS]
)
def test_oracle_family_flags_reach_their_signature_family(
    capsys, monkeypatch, flags, value, refused
):
    # the oracle names the family it reached on its first line; one without
    # a closed form is refused by name when the arguments are read, before
    # the bound or the enumeration runs
    def never(*_):
        raise AssertionError("reached the oracle")

    if refused:
        monkeypatch.setattr(cz, "bound", never)
        monkeypatch.setattr(cz, "oracle_max", never)
    rc, out, err = run(capsys, "oracle", "--family", *flags)
    if refused:
        assert rc == 2 and out == ""
        assert "no closed-form bound for %s;" % value in err and "--matrix" in err
    else:
        assert rc == 0 and err == ""
        params = [int(x) for x in flags[2::2]]
        assert out.splitlines()[0] == "family %s, params %s" % (value, params)


def test_oracle_matrix_refuses_models_past_the_size_limit(capsys, monkeypatch):
    # so*(34) is realified on R^68: refused before any basis is built
    def never(*_):
        raise AssertionError("built an element")

    monkeypatch.setattr(mo, "element", never)
    rc, out, err = run(capsys, "oracle", "--family", "so_star", "--n", "17", "--matrix", "--element", "identity")
    assert rc == 2 and out == ""
    assert "68" in err and "64" in err


@pytest.mark.parametrize(
    "flags, model",
    [
        (("so", "--n", "100", "--matrix"), (al.Family.SO_CPT, (100,))),
        (("su", "--p", "0", "--q", "3", "--matrix"), (al.Family.SU, (0, 3))),
        (("su", "--p", "10", "--q", "12"), (al.Family.SU, (10, 12))),
    ],
)
def test_oracle_refusals_name_the_algebra(capsys, flags, model):
    # the matrix model's size refusals and the enumeration budget name the
    # model as `info` renders an algebra (so(100), su(0,3), su(10,12)), not
    # by its family's enum value and a Python tuple
    name = al.render(al.SimpleAlgebra(*model))
    rc, out, err = run(capsys, "oracle", "--family", *flags)
    assert rc == 2 and out == ""
    assert err.split()[1].rstrip(":") == name, err


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


# runs the CLI and reports the peak RSS of its own address space, in kB, on
# stderr.  ru_maxrss would not do: across exec it keeps the peak of the
# process that spawned it, here the whole pytest run.
_CLI_WITH_PEAK_RSS = """
import sys
from liecheck.cli import main
rc = main(sys.argv[1:])
with open("/proc/self/status") as f:
    print(f.read().split("VmHWM:")[1].split()[0], file=sys.stderr)
sys.exit(rc)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_oracle_matrix_at_the_size_limit_stays_small():
    # so(64) acts on R^64 with 2016 basis matrices: dense operator rows took
    # 2016 x 64^2 cells and peaked at 145 MB; q_split keeps a basis map of
    # 2016 pairs
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_WITH_PEAK_RSS]
        + ["oracle", "--family", "so", "--n", "64", "--matrix", "--element", "q_split"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1:] == [
        "dim centralizer in g = 1953",
        "dim centralizer in k = 1953",
        "dim S^A = 0",
    ]
    peak_mb = int(proc.stderr.split()[-1]) / 1024
    assert peak_mb < 48, peak_mb


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


@pytest.mark.parametrize("scope", ["all", "complex", "real", "semisimple"])
def test_verify_json_is_the_dumped_payload(capsys, scope):
    rc, out, _ = run(capsys, "verify", "--json", "--scope", scope, "--max-param", "8")
    assert rc == 0
    payload = _dumped_payload(vf.sweep(scope, 8))
    assert json.loads(out) == payload
    assert out == json.dumps(payload, indent=2) + "\n"


def test_verify_json_products_write_every_report_field(capsys):
    # a report field no document writes has no reader: each product object
    # holds exactly the fields of `SemisimpleReport`, in order
    rc, out, _ = run(capsys, "verify", "--json", "--scope", "all", "--max-param", "8")
    assert rc == 0
    products = json.loads(out)["products"]
    reports = vf.sweep("all", 8).products
    assert len(products) == len(reports) > 0
    for obj, rep in zip(products, reports):
        assert list(obj) == list(vf.SemisimpleReport._fields)
        assert obj["factors"] == [al.render(a) for a in rep.factors]


def _recounted_tally(rep):
    """`SweepReport`'s tally fields, counted again from ``rep.cases``."""
    strict = {}  # algebra -> its smallest strict margin, in case order
    for c in rep.cases:
        if c.route not in (vf.ROUTE_EQUALITY, vf.ROUTE_RANK1):
            strict[c.algebra] = min(strict.get(c.algebra, c.margin), c.margin)
    worst = min(strict.values(), default=None)
    return (
        tuple(c for c in rep.cases if c.route == vf.ROUTE_EQUALITY),
        tuple(c for c in rep.cases if not c.passed),
        all(c.passed for c in rep.cases) and all(p.passed for p in rep.products),
        tuple(Counter(c.route for c in rep.cases).items()),
        worst,
        tuple([a for a, m in strict.items() if m == worst][:4]),
    )


@pytest.mark.parametrize("scope", ["all", "complex", "real", "semisimple"])
def test_verify_text_reports_the_sweep(capsys, scope):
    rep = vf.sweep(scope, 16)
    assert rep[4:] == _recounted_tally(rep)
    routes = dict(rep.route_counts)
    expected = ["verify scope=%s max-param=16" % scope]
    expected.append(
        "cases: %d total, %d equality-flagged, %d failed"
        % (len(rep.cases), len(rep.flagged), len(rep.failures))
    )
    expected += ["  %-18s %d" % (route, routes[route]) for route in sorted(routes)]
    if rep.worst_strict_margin is not None:
        names = ", ".join(al.render(a) for a in rep.worst_at)
        expected.append("worst strict margin: %d at %s" % (rep.worst_strict_margin, names))
    if rep.products:
        bad = sum(1 for p in rep.products if not p.passed)
        expected.append("products: %d checked, %d failed" % (len(rep.products), bad))
    expected.append("result: %s" % ("PASS" if rep.passed else "FAIL"))
    rc, out, _ = run(capsys, "verify", "--scope", scope, "--max-param", "16")
    assert rc == (0 if rep.passed else 1)
    assert out.splitlines() == expected


def test_case_blocks_match_case_payload():
    rep = vf.sweep("all", 8)
    # a negative margin fails, so a "passed": false block is encoded too
    hand_made = vf.CaseResult(
        al.algebra(al.Family.SL_R, 3),
        "berger_involution",
        -7,
        'so(3) \u2192 "u(1)"\\ caf\u00e9\t\U0001d524 (fixed dim 0)',
    )
    for c in (*rep.cases, hand_made):
        # the caller encodes the algebra's name, once per algebra
        block = cli._case_block(cli._encode_str(al.render(c.algebra)), c)
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


class _ClosedPipe:
    """A stdout whose reader has gone, on the descriptor ``fd``."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def _lowest_free_fd():
    fd = os.open(os.devnull, os.O_RDONLY)
    os.close(fd)
    return fd


def test_a_closed_stdout_is_sent_to_devnull_without_a_leaked_descriptor(monkeypatch):
    # the in-process form of the closed-pipe exit: stdout's descriptor now
    # refers to devnull, and the descriptor opened for that is closed again
    with tempfile.TemporaryFile() as f:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(f.fileno()))
        free = _lowest_free_fd()
        assert cli.main(["info", "sl(3,R)"]) == cli.EXIT_BROKEN_PIPE == 141
        now, devnull = os.fstat(f.fileno()), os.stat(os.devnull)
        assert (now.st_rdev, now.st_ino) == (devnull.st_rdev, devnull.st_ino)
        assert _lowest_free_fd() == free


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


def test_failed_export_keeps_the_earlier_atlas(tmp_path, capsys):
    out_path = tmp_path / "atlas.json"
    assert run(capsys, "export", "--max-param", "8", "--out", str(out_path))[0] == 0
    out_path.chmod(0o640)
    before = out_path.read_bytes()
    assert len(before) > 20000
    # a write past 20,000 bytes fails with EFBIG, as on a full disk
    limits = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (20000, limits[1]))
    try:
        rc, out, err = run(capsys, "export", "--max-param", "8", "--out", str(out_path))
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, limits)
    assert (rc, out, err) == (2, "", "error: cannot write %s (File too large)\n" % out_path)
    assert out_path.read_bytes() == before
    assert os.listdir(tmp_path) == ["atlas.json"]
    # a whole atlas replaces it, with its mode
    rc, out, _ = run(capsys, "export", "--max-param", "2", "--out", str(out_path))
    assert rc == 0 and out == "wrote %s (%d entries)\n" % (out_path, len(json.loads(out_path.read_text())["entries"]))
    assert stat.S_IMODE(out_path.stat().st_mode) == 0o640
    assert os.listdir(tmp_path) == ["atlas.json"]


def test_export_passes_a_stale_temporary_file_of_its_pid(tmp_path, capsys):
    # a killed export leaves its temporary file; a later run with the same
    # pid writes the atlas beside it and leaves it as it was
    out_path = tmp_path / "atlas.json"
    stale = tmp_path / ("atlas.json.%d.tmp" % os.getpid())
    stale.write_bytes(b"")
    before = os.stat(stale)
    rc, out, err = run(capsys, "export", "--max-param", "4", "--out", str(out_path))
    assert (rc, err) == (0, "") and out.startswith("wrote %s " % out_path)
    payload = json.loads(out_path.read_text())
    schema = json.loads(resources.files("liecheck").joinpath("data/atlas.schema.json").read_text())
    jsonschema.validate(payload, schema)
    assert payload == cli.export_payload(4)
    after = os.stat(stale)
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (before.st_ino, 0, before.st_mtime_ns)
    assert sorted(os.listdir(tmp_path)) == ["atlas.json", stale.name]


def test_export_writes_a_non_regular_target_in_place(tmp_path, capsys):
    expected = tmp_path / "expected.json"
    assert run(capsys, "export", "--max-param", "2", "--out", str(expected))[0] == 0
    fifo, got = tmp_path / "fifo", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    rc, out, _ = run(capsys, "export", "--max-param", "2", "--out", str(fifo))
    reader.join(10)
    assert rc == 0 and out.startswith("wrote %s " % fifo)
    assert got == [expected.read_bytes()]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    # a symlink stays a link; its target gets the atlas
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old")
    link.symlink_to(target)
    assert run(capsys, "export", "--max-param", "2", "--out", str(link))[0] == 0
    assert link.is_symlink() and target.read_bytes() == expected.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["expected.json", "fifo", "link.json", "target.json"]


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
