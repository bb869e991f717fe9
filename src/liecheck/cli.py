"""Command-line front end: queries, verification sweeps, atlas export.

Exit codes: 0 on success, 1 when a verification sweep reports a failure,
2 on input errors (an `algebras.InputError`, such as an unparseable
algebra, out-of-domain parameters, rank or isotypy violations; or bad
flags), 141 (128 + SIGPIPE, as a shell reports a
process killed by that signal) when stdout is closed before the output
is written.
"""

import argparse
import json
import os
import shutil
import stat
import sys
import tempfile
from functools import partial

from . import algebras as al
from . import centralizers as cz
from . import involutions as inv
from . import matrixoracle as mo
from . import verify as vf


EXIT_BROKEN_PIPE = 141


def _cmd_info(args) -> int:
    # every line is built before any is printed, so an input rejected
    # halfway (a compact algebra has no max compact) leaves stdout empty
    red = al.parse_algebra(args.algebra)
    a = al.as_simple(red)
    if a is None:
        kind = "reductive, %d simple factors" % len(red.simples)
    else:
        kind = "complex simple" if al.is_complex(a) else "real simple"
    d = al.reductive_dims(red)
    lines = [
        "algebra: %s (%s)" % (al.render(red), kind),
        "dim g = %d, dim K = %d, dim S = %d" % (d.dim_g, d.dim_k, d.dim_s),
        "rk_R = %d, rk K = %d" % (d.rk_r, d.rk_cpt),
    ]
    if a is not None:
        out = al.out_group(a)
        lines += [
            "out = %s (exponent %d)" % (out.iso_type.value, out.exponent),
            "max compact: %s" % al.render(al.max_compact(a)),
            "complexification: %s" % al.render(al.complexify(a)),
        ]
    if red.compact_abelian_dim:
        lines.append("compact abelian part: dim %d" % red.compact_abelian_dim)
    if red.split_abelian_dim:
        lines.append("split abelian part: dim %d" % red.split_abelian_dim)
    print("\n".join(lines))
    return 0


def _cmd_involutions(args) -> int:
    a = al.require_simple(al.parse_algebra(args.algebra))
    results = vf.check_involutions(a)
    d = al.dims(a)
    print(
        "%s: dim S = %d, rk_R = %d, target dim S - rk = %d"
        % (al.render(a), d.dim_s, d.rk_r, d.dim_s - d.rk_r)
    )
    for case in results:
        print("  margin %3d  [%s]  %s" % (case.margin, case.route, case.witness))
    return 0


def _oracle_target(args):
    has_n = args.n is not None
    has_pq = args.p is not None or args.q is not None
    if has_n == has_pq or (has_pq and (args.p is None or args.q is None)):
        raise al.OutOfDomain("give either --n N or both --p P and --q Q")
    params = (args.n,) if has_n else (args.p, args.q)
    family = cz.FAMILY_NAMES.get((args.family, len(params)))
    if family is None:
        raise al.OutOfDomain("family %s takes --n, not a signature" % args.family)
    if not args.matrix and family not in cz.BOUNDED_FAMILIES:
        raise al.OutOfDomain(
            "no closed-form bound for %s; use --matrix for the exact kernel computation"
            % family.value
        )
    return family, params


def _cmd_oracle(args) -> int:
    family, params = _oracle_target(args)
    if args.matrix:
        ambient = mo.model(cz.SIG_AMBIENT[family], *params)
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
_SPOOL_CHUNK = 1 << 18
_encode_str = json.encoder.encode_basestring_ascii


# each route name JSON-encoded once, not once per case
_ROUTE_JSON = {route: _encode_str(route) for route in vf.ROUTES}


def _case_block(name, c) -> str:
    """The JSON block of case ``c``, whose algebra's name ``name`` is already encoded."""
    return _CASE_BLOCK % (
        name,
        _ROUTE_JSON[c.route],
        c.margin,
        _encode_str(c.witness),
        "true" if c.passed else "false",
    )


def _write_verify_json(args, tally, passed, products, spool) -> None:
    """Print the sweep as json.dump(payload, indent=2) would.

    The document is encoded whole, with an empty ``cases`` array, and split
    inside that array.  The cases, nearly all of the document, wait in
    ``spool`` as pre-encoded blocks, since the part before them needs all
    of their counts, and are copied out between the two parts a chunk per write.
    """
    doc = {
        "scope": args.scope,
        "max_param": args.max_param,
        "passed": passed,
        "route_counts": tally.route_counts,
        "worst_strict_margin": tally.worst_strict_margin,
        "cases": [],
        "products": [
            p._asdict() | {"factors": [al.render(a) for a in p.factors]} for p in products
        ],
    }
    head, key, tail = json.dumps(doc, indent=2).partition('"cases": [')
    sys.stdout.write(head + key)
    spool.seek(0)
    shutil.copyfileobj(spool, sys.stdout, _SPOOL_CHUNK)
    sys.stdout.write(("\n  " if tally.count else "") + tail + "\n")


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
    """Fold the cases through a `verify.CaseTally`, and with a spool into
    JSON case blocks, one algebra at a time; then print the report."""
    tally = vf.CaseTally()
    for a, cases in per_algebra:
        if spool is not None and cases:
            # every case of the item is one of `a`'s: its name is encoded once
            blocks = map(partial(_case_block, _encode_str(al.render(a))), cases)
            spool.write((",\n" if tally.count else "\n") + ",\n".join(blocks))
        tally.add(a, cases)
        # let this algebra's cases go before the next one is verified
        del cases
    products = vf.product_checks(args.scope, args.max_param)
    passed = tally.passed(products)
    if spool is not None:
        _write_verify_json(args, tally, passed, products, spool)
    else:
        print("verify scope=%s max-param=%d" % (args.scope, args.max_param))
        print(
            "cases: %d total, %d equality-flagged, %d failed"
            % (tally.count, len(tally.flagged), len(tally.failures))
        )
        for route in sorted(tally.route_counts):
            print("  %-18s %d" % (route, tally.route_counts[route]))
        if tally.worst_strict_margin is not None:
            worst_at = ", ".join(map(al.render, tally.worst_at))
            print("worst strict margin: %d at %s" % (tally.worst_strict_margin, worst_at))
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


def _write_atlas(payload, out):
    """Write the atlas to `out`; a regular file gets all of it or keeps its own.

    A regular file, or a path that names nothing yet, is written through a
    temporary file beside it, which then replaces it (keeping its mode), so
    a failed write leaves the earlier atlas as it was.  Anything else that
    exists, such as a symlink, ``/dev/stdout`` or a FIFO, is written in
    place, since a rename would replace the node itself.
    """
    try:
        mode = os.lstat(out).st_mode
    except OSError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return
    # a name of this call's own: a file left by a killed run, even one with
    # this pid, is neither reused nor removed
    tmp = "%s.%d.%s.tmp" % (out, os.getpid(), os.urandom(4).hex())
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            if mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, out)
    finally:
        if os.path.lexists(tmp):  # the write or the rename failed
            os.remove(tmp)


def _cmd_export(args) -> int:
    payload = export_payload(args.max_param)
    try:
        _write_atlas(payload, args.out)
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
    names = sorted({name for name, _ in cz.FAMILY_NAMES})
    p_orc.add_argument("--family", required=True, choices=names)
    p_orc.add_argument("--n", type=int)
    p_orc.add_argument("--p", type=int)
    p_orc.add_argument("--q", type=int)
    p_orc.add_argument("--matrix", action="store_true", help="exact kernel computation instead")
    p_orc.add_argument("--element", default="q_split", help="named element (identity, q_split)")

    p_ver = sub.add_parser("verify", help="run every applicable margin route")
    p_ver.add_argument("--scope", default="all", choices=vf._SCOPES)
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
    except al.InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (`| head`); send what is left, and the
        # interpreter's flush at exit, to devnull instead of a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return rc


if __name__ == "__main__":
    sys.exit(main())
