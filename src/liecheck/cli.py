"""Command-line front end: queries, verification sweeps, atlas export.

Exit codes: 0 on success, 1 when a verification sweep reports a failure,
2 on input errors (unparseable algebra, out-of-domain parameters, rank or
isotypy violations, bad flags), 141 (128 + SIGPIPE, as a shell reports a
process killed by that signal) when stdout is closed before the output
is written.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

from . import algebras as al
from . import centralizers as cz
from . import involutions as inv
from . import matrixoracle as mo
from . import verify as vf
from .centralizers import SigFamily


EXIT_BROKEN_PIPE = 141


def _out_name(iso) -> str:
    return "trivial" if iso.name == "TRIVIAL" else iso.name


def _cmd_info(args) -> int:
    # every line is built before any is printed, so an input rejected
    # halfway (a compact algebra has no max compact) leaves stdout empty
    red = al.parse_algebra(args.algebra)
    if len(red.simples) == 1 and not red.compact_abelian_dim and not red.split_abelian_dim:
        a = red.simples[0]
        d = al.dims(a)
        kind = "complex simple" if al.is_complex(a) else "real simple"
        out = al.out_group(a)
        lines = [
            "algebra: %s (%s)" % (al.render(a), kind),
            "dim g = %d, dim K = %d, dim S = %d" % (d.dim_g, d.dim_k, d.dim_s),
            "rk_R = %d, rk K = %d" % (d.rk_r, d.rk_cpt),
            "out = %s (exponent %d)" % (_out_name(out.iso_type), out.exponent),
            "max compact: %s" % al.render(al.max_compact(a)),
            "complexification: %s" % al.render(al.complexify(a)),
        ]
    else:
        d = al.reductive_dims(red)
        lines = [
            "algebra: %s (reductive, %d simple factors)" % (al.render(red), len(red.simples)),
            "dim g = %d, dim K = %d, dim S = %d" % (d.dim_g, d.dim_k, d.dim_s),
            "rk_R = %d, rk K = %d" % (d.rk_r, d.rk_cpt),
        ]
        if red.compact_abelian_dim:
            lines.append("compact abelian part: dim %d" % red.compact_abelian_dim)
        if red.split_abelian_dim:
            lines.append("split abelian part: dim %d" % red.split_abelian_dim)
    print("\n".join(lines))
    return 0


def _require_one_simple(red, label):
    if len(red.simples) != 1 or red.compact_abelian_dim or red.split_abelian_dim:
        raise al.OutOfDomain("%s needs a single simple algebra, got %s" % (label, al.render(red)))
    return red.simples[0]


def _cmd_involutions(args) -> int:
    a = _require_one_simple(al.parse_algebra(args.algebra), "involutions")
    try:
        results = vf.check_involutions(a)
    except vf.NeedsTrialityRoute:
        results = vf.check_triality(a)
    d = al.dims(a)
    print(
        "%s: dim S = %d, rk_R = %d, target dim S - rk = %d"
        % (al.render(a), d.dim_s, d.rk_r, d.dim_s - d.rk_r)
    )
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


# One case of `verify --json`, already at its depth in the document: the
# bytes json.dump(..., indent=2) gives `verify.case_payload(c)` there.
_CASE_BLOCK = (
    "    {\n"
    '      "algebra": %s,\n'
    '      "route": %s,\n'
    '      "margin": %d,\n'
    '      "witness": %s,\n'
    '      "passed": %s\n'
    "    }"
)
_SPOOL_CHUNK = 1 << 20
_encode_str = json.encoder.encode_basestring_ascii


def _case_block(c) -> str:
    return _CASE_BLOCK % (
        _encode_str(al.render(c.algebra)),
        _encode_str(c.route),
        c.margin,
        _encode_str(c.witness),
        "true" if c.passed else "false",
    )


class _CaseTally:
    """What `verify` reports about the cases, folded one algebra at a time.

    ``route_counts`` keeps first-seen order, the key order of the JSON
    document.  ``worst_at`` names the first four algebras, by rendered
    name, whose smallest strict margin (rank-one and equality cases are
    not strict) is ``worst``.
    """

    def __init__(self):
        self.cases = self.flagged = self.failed = 0
        self.route_counts = {}
        self.worst = None
        self.worst_at = []

    def add(self, a, cases) -> None:
        strict = None
        for c in cases:
            self.route_counts[c.route] = self.route_counts.get(c.route, 0) + 1
            if c.route == vf.ROUTE_EQUALITY:
                self.flagged += 1
            elif c.route != vf.ROUTE_RANK1 and (strict is None or c.margin < strict):
                strict = c.margin
            if not c.passed:
                self.failed += 1
        self.cases += len(cases)
        if strict is None:
            return
        if self.worst is None or strict < self.worst:
            self.worst, self.worst_at = strict, [al.render(a)]
        elif strict == self.worst and len(self.worst_at) < 4:
            self.worst_at.append(al.render(a))


def _write_verify_json(args, tally, passed, products, spool) -> None:
    """Print the sweep as json.dump(payload, indent=2) would.

    The small head and the products go through json.dumps; a value nested
    one level deeper only gains two spaces after each newline, since
    encoded JSON strings hold no raw newline.  The head comes before the
    cases but needs all of their counts, so the cases, nearly all of the
    document, wait in ``spool`` as pre-encoded blocks and are copied out
    after it a chunk per write.
    """
    write = sys.stdout.write
    head = json.dumps(
        {
            "scope": args.scope,
            "max_param": args.max_param,
            "passed": passed,
            "route_counts": tally.route_counts,
            "worst_strict_margin": tally.worst,
        },
        indent=2,
    )
    write(head[: -len("\n}")] + ',\n  "cases": [')
    spool.seek(0)
    shutil.copyfileobj(spool, sys.stdout, _SPOOL_CHUNK)
    products = json.dumps(
        [
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
            for p in products
        ],
        indent=2,
    )
    write(("\n  " if tally.cases else "") + '],\n  "products": ' + products.replace("\n", "\n  ") + "\n}\n")


def _cmd_verify(args) -> int:
    per_algebra = vf.iter_algebra_cases(args.scope, args.max_param)
    if not args.json:
        return _run_verify(args, per_algebra, None)
    try:
        spool = tempfile.TemporaryFile("w+", encoding="ascii", newline="")
    except OSError as exc:
        print(
            "error: cannot create a spool file in %s (%s)" % (tempfile.gettempdir(), exc.strerror),
            file=sys.stderr,
        )
        return 2
    with spool:
        return _run_verify(args, per_algebra, spool)


def _run_verify(args, per_algebra, spool) -> int:
    """Fold the cases into counts, and with a spool into JSON case blocks,
    holding one algebra's cases at a time; then print the report."""
    tally = _CaseTally()
    for a, cases in per_algebra:
        if spool is not None and cases:
            spool.write((",\n" if tally.cases else "\n") + ",\n".join(map(_case_block, cases)))
        tally.add(a, cases)
        # let this algebra's cases go before the next one is verified
        del cases
    products = vf.product_checks(args.scope, args.max_param)
    passed = not tally.failed and all(p.passed for p in products)
    if spool is not None:
        _write_verify_json(args, tally, passed, products, spool)
    else:
        print("verify scope=%s max-param=%d" % (args.scope, args.max_param))
        print(
            "cases: %d total, %d equality-flagged, %d failed"
            % (tally.cases, tally.flagged, tally.failed)
        )
        for route in sorted(tally.route_counts):
            print("  %-18s %d" % (route, tally.route_counts[route]))
        if tally.worst is not None:
            print("worst strict margin: %d at %s" % (tally.worst, ", ".join(tally.worst_at)))
        if products:
            bad = sum(1 for p in products if not p.passed)
            print("products: %d checked, %d failed" % (len(products), bad))
        print("result: %s" % ("PASS" if passed else "FAIL"))
    return 0 if passed else 1


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
    al.require_max_param(max_param)
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
        rc = _DISPATCH[args.verb](args)
        sys.stdout.flush()
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
    except BrokenPipeError:
        # the reader closed stdout (`| head`); send what is left, and the
        # interpreter's flush at exit, to devnull instead of a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return rc


if __name__ == "__main__":
    sys.exit(main())
