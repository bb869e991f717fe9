"""Command-line front end: queries, verification sweeps, atlas export.

Exit codes: 0 on success, 1 when a verification sweep reports a failure,
2 on input errors (unparseable algebra, out-of-domain parameters, rank or
isotypy violations, bad flags).
"""

import argparse
import json
import sys

from . import algebras as al
from . import centralizers as cz
from . import involutions as inv
from . import matrixoracle as mo
from . import verify as vf
from .centralizers import SigFamily


def _out_name(iso) -> str:
    return "trivial" if iso.name == "TRIVIAL" else iso.name


def _cmd_info(args) -> int:
    red = al.parse_algebra(args.algebra)
    if len(red.simples) == 1 and not red.compact_abelian_dim and not red.split_abelian_dim:
        a = red.simples[0]
        d = al.dims(a)
        if al.is_compact(a):
            kind = "compact simple"
        elif al.is_complex(a):
            kind = "complex simple"
        else:
            kind = "real simple"
        out = al.out_group(a)
        print("algebra: %s (%s)" % (al.render(a), kind))
        print("dim g = %d, dim K = %d, dim S = %d" % (d.dim_g, d.dim_k, d.dim_s))
        print("rk_R = %d, rk K = %d" % (d.rk_r, d.rk_cpt))
        print("out = %s (exponent %d)" % (_out_name(out.iso_type), out.exponent))
        print("max compact: %s" % al.render(al.max_compact(a)))
        print("complexification: %s" % al.render(al.complexify(a)))
    else:
        d = al.reductive_dims(red)
        print("algebra: %s (reductive, %d simple factors)" % (al.render(red), len(red.simples)))
        print("dim g = %d, dim K = %d, dim S = %d" % (d.dim_g, d.dim_k, d.dim_s))
        print("rk_R = %d, rk K = %d" % (d.rk_r, d.rk_cpt))
        if red.compact_abelian_dim:
            print("compact abelian part: dim %d" % red.compact_abelian_dim)
        if red.split_abelian_dim:
            print("split abelian part: dim %d" % red.split_abelian_dim)
    return 0


def _require_one_simple(red, label):
    if len(red.simples) != 1 or red.compact_abelian_dim or red.split_abelian_dim:
        raise al.OutOfDomain("%s needs a single simple algebra, got %s" % (label, al.render(red)))
    return red.simples[0]


def _cmd_involutions(args) -> int:
    a = _require_one_simple(al.parse_algebra(args.algebra), "involutions")
    d = al.dims(a)
    print(
        "%s: dim S = %d, rk_R = %d, target dim S - rk = %d"
        % (al.render(a), d.dim_s, d.rk_r, d.dim_s - d.rk_r)
    )
    try:
        results = vf.check_involutions(a)
    except vf.NeedsTrialityRoute:
        results = vf.check_triality(a)
    for case in results:
        print("  margin %3d  [%s]  %s" % (case.margin, case.route, case.witness))
    return 0


_DEFINITE_FAMILIES = {
    "so": SigFamily.SO_N,
    "su": SigFamily.SU_N,
    "sp": SigFamily.SP_N_COMPACT,
    "so_star": SigFamily.SOSTAR_2N,
}
_INDEFINITE_FAMILIES = {
    "so": SigFamily.SO_PQ,
    "su": SigFamily.SU_PQ,
    "sp": SigFamily.SP_PQ,
}


def _oracle_target(args):
    has_n = args.n is not None
    has_pq = args.p is not None or args.q is not None
    if has_n == has_pq or (has_pq and (args.p is None or args.q is None)):
        raise al.OutOfDomain("give either --n N or both --p P and --q Q")
    if has_n:
        family, params = _DEFINITE_FAMILIES[args.family], (args.n,)
    else:
        family = _INDEFINITE_FAMILIES.get(args.family)
        if family is None:
            raise al.OutOfDomain("family %s takes --n, not a signature" % args.family)
        params = (args.p, args.q)
    if not args.matrix and family not in cz.BOUNDED_FAMILIES:
        raise al.OutOfDomain(
            "no closed-form bound for %s; use --matrix for the exact kernel computation"
            % family.value
        )
    return family, params


def _cmd_oracle(args) -> int:
    family, params = _oracle_target(args)
    if args.matrix:
        ambient = mo.model(mo.SIG_AMBIENT[family], *params)
        elem = mo.named_element(ambient, args.element)
        fixed = mo.matrix_fixed_dims(elem)
        print("model %s, element %s (order %d)" % (al.render(ambient), args.element, elem.order))
        print("dim centralizer in g = %d" % fixed.dim_centralizer_g)
        print("dim centralizer in k = %d" % fixed.dim_centralizer_k)
        print("dim S^A = %d" % fixed.dim_s_fixed)
        return 0
    closed = cz.bound(family, params)
    value, witness = cz.oracle_max(family, params)
    print("family %s, params %s" % (family.value, list(params)))
    print("bound = %d, oracle max = %d" % (closed, value))
    print("witness blocks: %s" % (witness.blocks,))
    print("agreement: %s" % ("exact" if value == closed else "MISMATCH"))
    return 0 if value == closed else 1


def _cmd_verify(args) -> int:
    rep = vf.sweep(args.scope, args.max_param)
    strict = [c for c in rep.cases if c.route not in (vf.ROUTE_EQUALITY, vf.ROUTE_RANK1)]
    route_counts = {}
    for c in rep.cases:
        route_counts[c.route] = route_counts.get(c.route, 0) + 1
    worst = min((c.margin for c in strict), default=None)
    worst_at = sorted(
        {al.render(c.algebra) for c in strict if c.margin == worst}
    )[:4] if worst is not None else []
    if args.json:
        payload = {
            "scope": rep.scope,
            "max_param": rep.max_param,
            "passed": rep.passed,
            "route_counts": route_counts,
            "worst_strict_margin": worst,
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
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        print("verify scope=%s max-param=%d" % (rep.scope, rep.max_param))
        print(
            "cases: %d total, %d equality-flagged, %d failed"
            % (len(rep.cases), len(rep.flagged), len(rep.failures))
        )
        for route in sorted(route_counts):
            print("  %-18s %d" % (route, route_counts[route]))
        if worst is not None:
            print("worst strict margin: %d at %s" % (worst, ", ".join(worst_at)))
        if rep.products:
            bad = sum(1 for p in rep.products if not p.passed)
            print("products: %d checked, %d failed" % (len(rep.products), bad))
        print("result: %s" % ("PASS" if rep.passed else "FAIL"))
    return 0 if rep.passed else 1


def _cmd_vcd(args) -> int:
    red = al.parse_algebra(args.target)
    if red.compact_abelian_dim or red.split_abelian_dim:
        raise al.OutOfDomain("vcd target must be a product of simple factors")
    res = vf.vcd(red.simples, args.rkq, irreducible=args.irreducible)
    print("vcd = %d, gd = %d" % (res.vcd, res.gd))
    print(
        "dim S = %d, rk_q = %d, irreducible = %s, cocompact = %s"
        % (
            res.dim_s,
            res.rk_q,
            "yes" if res.irreducible else "no",
            "yes" if res.cocompact else "no",
        )
    )
    return 0


def export_payload(max_param: int) -> dict:
    entries = []
    for a in al.iter_noncompact_simple(max_param):
        for entry in inv.isotropy_entries(a):
            entries.append(inv.entry_payload(entry))
    return {
        "schema_version": 1,
        "maximal_rank_pairs": vf.maximal_rank_rows(),
        "restricted_forms": vf.restricted_rows(),
        "entries": entries,
    }


def _cmd_export(args) -> int:
    payload = export_payload(args.max_param)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        print("error: cannot write %s (%s)" % (args.out, exc.strerror), file=sys.stderr)
        return 2
    print("wrote %s (%d entries)" % (args.out, len(payload["entries"])))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecheck",
        description="classification data and margin verification for simple Lie algebras",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_info = sub.add_parser("info", help="dimensions, ranks and outer automorphisms")
    p_info.add_argument("algebra")

    p_inv = sub.add_parser("involutions", help="instantiated isotropy rows with margins")
    p_inv.add_argument("algebra")

    p_orc = sub.add_parser("oracle", help="centralizer bound vs exhaustive signature maximum")
    p_orc.add_argument("--family", required=True, choices=sorted(_DEFINITE_FAMILIES))
    p_orc.add_argument("--n", type=int)
    p_orc.add_argument("--p", type=int)
    p_orc.add_argument("--q", type=int)
    p_orc.add_argument("--matrix", action="store_true", help="exact kernel computation instead")
    p_orc.add_argument("--element", default="q_split", help="named element (identity, q_split)")

    p_ver = sub.add_parser("verify", help="run every applicable margin route")
    p_ver.add_argument("--scope", default="all", choices=("complex", "real", "semisimple", "all"))
    p_ver.add_argument("--max-param", type=int, default=32, dest="max_param")
    p_ver.add_argument("--json", action="store_true")

    p_vcd = sub.add_parser("vcd", help="virtual cohomological dimension of a lattice quotient")
    p_vcd.add_argument("target", help='product of simple factors, e.g. "sl(3,R)+so(1,4)"')
    p_vcd.add_argument("--rkq", type=int, required=True)
    p_vcd.add_argument("--irreducible", action="store_true")

    p_exp = sub.add_parser("export", help="write the atlas JSON")
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--max-param", type=int, default=16, dest="max_param")

    return parser


_DISPATCH = {
    "info": _cmd_info,
    "involutions": _cmd_involutions,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "vcd": _cmd_vcd,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.verb](args)
    except (
        al.ParseError,
        al.OutOfDomain,
        cz.InvalidSignature,
        mo.InvalidElement,
        mo.UnsupportedFamily,
        inv.UnsupportedAlgebra,
        vf.IsotypyViolated,
        vf.MissingTableRow,
        vf.RankBoundViolated,
        vf.TooFewFactors,
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
