"""One workload process of the liecheck benchmark.

run.py starts this file in a fresh interpreter for every unit that must
run cold; it prints one JSON object as its last stdout line.  Modes:

  setup   import liecheck and build the workload's inputs, then exit
  sweep   one cold ``verify.sweep("all", M)``, timed per algebra
  oracle  rounds of criterion-3 class checks plus the criterion-2 set
  cli     one traced CLI command; the trace goes to --dump, stdout stays
          the command's own output

``--spawned`` is the parent's CLOCK_MONOTONIC reading just before the
spawn, so the setup time covers interpreter start-up as well as imports.

The sweep and oracle modes also time slices of the fixed reference loop
(refloop.py) between their units, so that run.py can report every time at
one fixed machine speed.
"""

import argparse
import hashlib
import json
import os
import random
import sys
import time
from pathlib import Path

from refloop import ref_slice


def _import_liecheck():
    """Import the whole package (run.py puts ./src on PYTHONPATH); returns
    the import time."""
    t = time.monotonic()
    import liecheck.cli  # noqa: F401  (pulls in every module)

    return time.monotonic() - t


# ---------------------------------------------------------------------------
# inputs and answers, shared with freeze.py

# criterion-3 subset: so(p,q) and su(p,q) with p+q <= PQ, so*(2n) with n <= N
ORACLE_SIZES = {"full": (6, 4), "tiny": (3, 2)}
SWEEP_SIZES = {"full": 48, "tiny": 8}

# sweep cases between two reference slices
REF_EVERY = 8


def oracle_classes(size):
    """The order-<=4 classes of the criterion-3 subset, as (key, signature)."""
    from liecheck.centralizers import SigFamily, enumerate_signatures

    pq, nmax = ORACLE_SIZES[size]
    targets = []
    for p in range(1, pq):
        for q in range(p, pq + 1 - p):
            targets.append((SigFamily.SO_PQ, (p, q)))
            targets.append((SigFamily.SU_PQ, (p, q)))
    for n in range(2, nmax + 1):
        targets.append((SigFamily.SOSTAR_2N, (n,)))
    out = []
    for family, params in targets:
        for s in enumerate_signatures(family, params, order_le_4=True):
            out.append(("%s%s:%s" % (family.value, list(params), list(s.blocks)), s))
    return out


def bound_cases(size):
    """The criterion-2 set: every family and size that has a closed form."""
    from liecheck.centralizers import SigFamily

    if size == "tiny":
        return [(SigFamily.SO_N, (3,)), (SigFamily.SU_N, (2,)), (SigFamily.SU_PQ, (1, 2))]
    cases = [(SigFamily.SO_N, (n,)) for n in range(3, 13)]
    cases += [(SigFamily.SU_N, (n,)) for n in range(2, 13)]
    for p in range(1, 10):
        for q in range(p, 11 - p):
            if p + q >= 3:
                cases.append((SigFamily.SU_PQ, (p, q)))
                cases.append((SigFamily.SP_PQ, (p, q)))
    cases += [(SigFamily.SOSTAR_2N, (n,)) for n in range(2, 11)]
    return cases


def bound_key(family, params):
    return "%s%s" % (family.value, list(params))


def sweep_answers(rep):
    """Counts and a digest of every case of a sweep report."""
    routes = {}
    for c in rep.cases:
        routes[c.route] = routes.get(c.route, 0) + 1
    digest = hashlib.sha256()
    for c in rep.cases:
        a = c.algebra
        line = "%s%s\t%s\t%d\t%s\t%s\n" % (a.family.value, a.params, c.route, c.margin, c.passed, c.witness)
        digest.update(line.encode())
    return {
        "cases": len(rep.cases),
        "flagged": len(rep.flagged),
        "failures": len(rep.failures),
        "routes": dict(sorted(routes.items())),
        "products": len(rep.products),
        "products_failed": sum(1 for p in rep.products if not p.passed),
        "passed": rep.passed,
        "cases_sha256": digest.hexdigest(),
    }


def check_class(sig):
    """Both oracles on one class: (matrix [g, k, s], signature [s, k])."""
    from liecheck import centralizers as cz
    from liecheck import matrixoracle as mo

    got = mo.matrix_fixed_dims(mo.from_signature(sig))
    want = [cz.signature_dim(sig), cz.signature_compact_dim(sig)]
    return [got.dim_centralizer_g, got.dim_centralizer_k, got.dim_s_fixed], want


def check_bound(family, params):
    """Closed-form bound against the exhaustive maximum: (bound, max, blocks)."""
    from liecheck import centralizers as cz

    value, witness = cz.oracle_max(family, params)
    return [cz.bound(family, params), value, [list(b) for b in witness.blocks]]


# ---------------------------------------------------------------------------
# modes


def _emit(obj):
    """Print the result line and exit at once: freeing a 200 MB heap at
    interpreter shutdown would only lengthen the run."""
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()
    os._exit(0)


def mode_setup(args):
    import_s = _import_liecheck()
    if args.workload == "oracle-c3":
        classes = oracle_classes(args.size)
        random.Random(args.seed).shuffle(classes)
        bound_cases(args.size)
    from liecheck import _exact

    ready = time.monotonic()
    # a plain print, not _emit: run.py runs set-ups under sampled.py, which
    # writes its speed samples when the script returns
    print(json.dumps({"setup_s": ready - args.spawned, "import_s": import_s, "backend": _exact.BACKEND}))


def mode_sweep(args):
    import_s = _import_liecheck()
    from liecheck import verify as vf

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    units = []
    refs = []  # refs[g]: a reference slice timed just before case REF_EVERY * g
    inner = vf.verify_case

    def timed_case(a):
        if len(units) % REF_EVERY == 0:
            refs.append(ref_slice())
        t = time.perf_counter()
        try:
            return inner(a)
        finally:
            units.append(time.perf_counter() - t)

    vf.verify_case = timed_case
    t = time.perf_counter()
    rep = vf.sweep("all", args.max_param)
    total = time.perf_counter() - t
    vf.verify_case = inner
    if tracer is not None:
        tracer.uninstall()
    _emit(
        {
            "import_s": import_s,
            "total_s": total,
            "units": units,
            "refs": refs,
            "rest_s": total - sum(units) - sum(refs),
            "rest_ref": ref_slice(),
            "answers": sweep_answers(rep),
            "trace": _trace_payload(tracer),
        }
    )


def _trace_payload(tracer):
    if tracer is None:
        return None
    return {"layers": tracer.layer_metrics(), "dump": tracer.dump()}


def _oracle_round(classes, bounds):
    """One timed pass over both phases; failures are recorded, not raised.

    Each row carries the reference slice timed just before its unit; the
    round's last slice is returned separately."""
    class_rows = []
    for key, sig in classes:
        ref = ref_slice()
        t = time.perf_counter()
        try:
            got, want = check_class(sig)
            err = None
        except Exception as exc:  # one failed op; the round goes on
            got = want = None
            err = "%s: %s" % (type(exc).__name__, exc)
        class_rows.append([key, time.perf_counter() - t, got, want, err, ref])
    bound_rows = []
    for family, params in bounds:
        ref = ref_slice()
        t = time.perf_counter()
        try:
            got = check_bound(family, params)
            err = None
        except Exception as exc:
            got = None
            err = "%s: %s" % (type(exc).__name__, exc)
        bound_rows.append([bound_key(family, params), time.perf_counter() - t, got, err, ref])
    return class_rows, bound_rows, ref_slice()


def _warm_up(classes):
    """Check the first class of each ambient algebra, untimed, so that its
    cached matrix bases are built before the first timed round rather than
    inside whichever class the seed puts first."""
    seen = set()
    for key, sig in classes:
        ambient = key.split(":")[0]
        if ambient not in seen:
            seen.add(ambient)
            try:
                check_class(sig)
            except Exception:  # the timed rounds record it as a failed op
                pass


def mode_oracle(args):
    import_s = _import_liecheck()
    classes = oracle_classes(args.size)
    bounds = bound_cases(args.size)
    rng = random.Random(args.seed)
    _warm_up(classes)

    # --rounds rounds, alternating untraced / traced in trace mode; past
    # --min-rounds no round starts after --max-seconds.
    rounds = []
    start = time.perf_counter()
    while len(rounds) < args.min_rounds or (
        len(rounds) < args.rounds and time.perf_counter() - start < args.max_seconds
    ):
        order = list(classes)
        rng.shuffle(order)
        tracer = None
        if args.trace and len(rounds) % 2 == 1:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        class_rows, bound_rows, last_ref = _oracle_round(order, bounds)
        if tracer is not None:
            tracer.uninstall()
        rounds.append(
            {
                "classes": class_rows,
                "bounds": bound_rows,
                "last_ref": last_ref,
                "traced": tracer is not None,
                "trace": _trace_payload(tracer),
            }
        )
    _emit({"import_s": import_s, "rounds": rounds})


def mode_cli(args):
    import_s = _import_liecheck()
    from liecheck import cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(args.argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        payload = _trace_payload(tracer)
        payload["import_s"] = import_s
        Path(args.dump).write_text(json.dumps(payload))
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "sweep", "oracle", "cli"))
    parser.add_argument("--spawned", type=float, default=None)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=tuple(ORACLE_SIZES), default="full")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--min-rounds", type=int, default=1, dest="min_rounds")
    parser.add_argument("--max-seconds", type=float, default=0.0, dest="max_seconds")
    parser.add_argument("--max-param", type=int, dest="max_param")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--dump")
    parser.add_argument("--argv", type=json.loads, help="the CLI command, as a JSON list")
    args = parser.parse_args()
    if args.spawned is None:
        args.spawned = time.monotonic()
    {"setup": mode_setup, "sweep": mode_sweep, "oracle": mode_oracle, "cli": mode_cli}[args.mode](args)


if __name__ == "__main__":
    main()
