"""The sweep's witnesses and sums read back to the numbers they state.

A witness is the text a case prints; `check_involutions` builds it from
each row's `labels` and `dims_s`, which `involutions._split_row` states
from its two summands and `involutions._named` from `render` and a
fixed-dimension sum.  Here each one is parsed back with `parse_algebra` and
measured with `reductive_dims`, a route that shares none of those, so a
slip in any shows as the case it breaks, where the frozen digests of
`test_golden_output.py` say only that something changed.
"""

import re

from liecheck import algebras as al
from liecheck import involutions as inv
from liecheck import verify as vf
from liecheck.algebras import Family

# "T -> h (fixed dim X vs target Y)": one involution row instance
# (no rendered sum holds a space, and no template a ">")
ROW = re.compile(r"(?P<template>[^>]+) -> (?P<h>\S+) \(fixed dim (?P<x>\d+) vs target (?P<y>\d+)\)")
# "order-3 class fixing h (kind, fixed dim X vs target Y)"
TRIALITY = re.compile(
    r"order-3 class fixing (?P<h>\S+) \((?P<kind>outer|inner|compact), "
    r"fixed dim (?P<x>\d+) vs target (?P<y>\d+)\)"
)
# "real rank one: largest involution fixed set h (dim X vs dim S - 1 = Y)"
RANK1 = re.compile(
    r"real rank one: largest involution fixed set (?P<h>\S+) "
    r"\(dim (?P<x>\d+) vs dim S - 1 = (?P<y>\d+)\)"
)

# The formats not read back, and why.  Each states a bound through a
# subgroup, not the fixed set of one class, and has its own check.
NOT_READ_BACK = {
    # the centralizer bounds of a maximal-rank subgroup H of the compact
    # form; `test_verifier.py::test_maximal_rank_rows_frozen` pins H's dims
    vf.ROUTE_MAXIMAL_RANK: "maximal rank pair ",
    # a distinguished noncompact subgroup's dim S and centralizer bound;
    # `test_verifier.py::test_restricted_rows_frozen` pins them
    vf.ROUTE_RESTRICTED: "restricted pair ",
}


def _fixed_dim_s(text, memo):
    """dim S of the sum `text` names, through parse_algebra and reductive_dims."""
    dim_s = memo.get(text)
    if dim_s is None:
        dim_s = memo[text] = al.reductive_dims(al.parse_algebra(text)).dim_s
    return dim_s


def test_every_witness_reads_back_to_its_margin():
    memo = {}
    counts = dict.fromkeys(("row", "triality", "rank1", "f4(4)", *NOT_READ_BACK), 0)
    wrong = []
    f44_text = vf.f44_equality_case().witness
    for c in vf.sweep("all", 32).cases:
        d = al.dims(c.algebra)
        if c.route in (vf.ROUTE_BERGER, vf.ROUTE_EQUALITY) and c.witness != f44_text:
            m, kind, target = ROW.fullmatch(c.witness), "row", d.dim_s - d.rk_r
        elif c.route == vf.ROUTE_TRIALITY:
            m, kind, target = TRIALITY.fullmatch(c.witness), "triality", d.dim_s - d.rk_r
        elif c.route == vf.ROUTE_RANK1:
            m, kind, target = RANK1.fullmatch(c.witness), "rank1", d.dim_s - 1
        elif c.witness == f44_text:
            counts["f4(4)"] += 1
            continue
        else:
            if not c.witness.startswith(NOT_READ_BACK[c.route]):
                wrong.append(c)
            counts[c.route] += 1
            continue
        # X is dim S of h, Y the algebra's target, and the margin Y - X;
        # a plain test per case, asserted once below
        if (
            m is None
            or _fixed_dim_s(m["h"], memo) != int(m["x"])
            or int(m["y"]) != target
            or c.margin != target - int(m["x"])
        ):
            wrong.append(c)
        counts[kind] += 1
    assert wrong == []
    # every format seen; the counts at max-param 32 (47,063 cases)
    assert counts == {
        "row": 46_946,
        "triality": 10,
        "rank1": 91,
        "f4(4)": 1,
        vf.ROUTE_MAXIMAL_RANK: 5,
        vf.ROUTE_RESTRICTED: 10,
    }


def test_the_f44_text_lists_the_fixed_dims_of_its_own_row_cases():
    # f4(4)'s equality text is written out: it lists every involution fixed
    # dimension at once and takes its margin from the largest
    a = al.simple(Family.F4_4)
    d = al.dims(a)
    case = vf.f44_equality_case()
    listed = re.fullmatch(r".* fixed sets have dim ([\d, ]+) \(compact class included\), .*", case.witness)
    dims = [int(v) for v in listed[1].split(", ")]
    row_dims = {int(ROW.fullmatch(c.witness)["x"]) for c in vf.check_involutions(a)}
    assert dims == sorted(row_dims, reverse=True)
    assert case.margin == d.dim_s - d.rk_r - dims[0]


def _round_trips(h):
    back = al.parse_algebra(al.render(h))
    return type(h) is al.ReductiveAlgebra and type(back) is al.ReductiveAlgebra and back == h


def test_every_row_instance_renders_and_parses_back():
    # each instance is its label parsed, and renders back to that label
    checked = 0
    for a in al.iter_noncompact_simple(16):
        for entry in inv.isotropy_entries(a):
            for label, h in zip(entry.labels, entry.instances):
                assert type(h) is al.ReductiveAlgebra, (al.render(a), entry.template, label)
                assert al.render(h) == label, (al.render(a), entry.template, label)
                checked += 1
    assert checked == 4_894


def test_abelian_sums_render_and_parse_back():
    both = al.direct_sum(
        al.algebra(Family.SU, 2, 3), al.COMPACT_LINE, al.COMPACT_LINE, al.SPLIT_LINE
    )
    for h in (al.TRIVIAL_ALGEBRA, al.COMPACT_LINE, al.SPLIT_LINE, both):
        assert _round_trips(h), h
    assert al.render(both) == "su(2,3)+u(1)+u(1)+R"
    assert al.render(al.TRIVIAL_ALGEBRA) == "0"
