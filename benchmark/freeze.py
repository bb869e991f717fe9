"""Freeze the benchmark's expected answers into benchmark/goldens.json.

    python3 benchmark/freeze.py

Run it from the root of a checkout of the commit whose answers are the
reference.  Every later benchmark run compares against this file and counts
any difference as a failed operation, so refreeze only when an answer is
meant to change, and say so in the change that does it.
"""

import json
import shlex
import sys
from pathlib import Path

import child
import run

HERE = Path(__file__).resolve().parent


def query_pool():
    """Every short CLI query the cli workload may draw."""
    from liecheck import algebras as al

    pool = []
    for a in al.iter_noncompact_simple(6):
        name = al.render(a)
        pool.append(["info", name])
        pool.append(["involutions", name])
        pool.append(["vcd", name, "--rkq", str(al.dims(a).rk_r)])
    for fam, lo, hi in (("so", 3, 8), ("su", 2, 8), ("sp", 2, 6), ("so_star", 2, 8)):
        pool.extend(["oracle", "--family", fam, "--n", str(n)] for n in range(lo, hi + 1))
    for fam in ("su", "sp"):
        for p in range(1, 5):
            for q in range(max(p, 3 - p), 9 - p):
                pool.append(["oracle", "--family", fam, "--p", str(p), "--q", str(q)])
    for p in range(1, 4):
        for q in range(max(p, 3 - p), 7 - p):
            pool.append(["oracle", "--family", "so", "--p", str(p), "--q", str(q), "--matrix", "--element", "q_split"])
            pool.append(["oracle", "--family", "su", "--p", str(p), "--q", str(q), "--matrix", "--element", "identity"])
    pool.extend(["oracle", "--family", "so", "--n", str(n), "--matrix", "--element", "q_split"] for n in range(3, 7))
    return pool


def cli_answer(argv):
    return run.timed_cli([sys.executable, "-m", "liecheck.cli"] + argv, argv)[1]


def freeze(size):
    from liecheck import verify as vf

    out = {"sweep": child.sweep_answers(vf.sweep("all", child.SWEEP_SIZES[size]))}
    classes = {}
    for key, sig in child.oracle_classes(size):
        got, want = child.check_class(sig)
        if [got[2], got[1]] != want:
            raise SystemExit("oracles disagree on %s: %s vs %s" % (key, got, want))
        classes[key] = got
    bounds = {}
    for family, params in child.bound_cases(size):
        got = child.check_bound(family, params)
        if got[0] != got[1]:
            raise SystemExit("bound %s != oracle max %s for %s" % (got[0], got[1], params))
        bounds[child.bound_key(family, params)] = got
    out["oracle"] = {"classes": classes, "bounds": bounds}
    commands = [["info", "sl(3,R)"]] if size == "tiny" else query_pool()
    commands += run.cli_commands(size)
    cli = {}
    for argv in commands:
        got = cli_answer(argv)
        if got["exit"] == 0:
            cli[shlex.join(argv)] = got
        elif argv in run.cli_commands(size):
            raise SystemExit("%s exits %d" % (shlex.join(argv), got["exit"]))
    out["cli"] = cli
    return out


def main():
    if not Path("src/liecheck/__init__.py").is_file():
        raise SystemExit("run from the root of a liecheck checkout")
    sys.path.insert(0, "src")
    run.OUT_DIR.mkdir(exist_ok=True)
    goldens = {size: freeze(size) for size in ("tiny", "full")}
    for size, g in goldens.items():
        print(
            "%s: sweep %d cases, %d classes, %d bound cases, %d cli commands"
            % (size, g["sweep"]["cases"], len(g["oracle"]["classes"]), len(g["oracle"]["bounds"]), len(g["cli"])),
            file=sys.stderr,
        )
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
