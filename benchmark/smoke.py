"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 benchmark/smoke.py

Run from the root of a checkout.  It checks that:
  * each workload (sweep M=8, oracle p+q <= 3, one cli query) passes its
    output checks and prints every end-to-end metric with its unit;
  * the traced run prints every per-layer metric, and its counts repeat
    exactly between two traced runs;
  * a deliberately corrupted golden answer is reported as a failure;
  * without the program (only BENCHMARK.json and benchmark/) the benchmark
    exits nonzero without printing a result.
Exits 1 if any check fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-m48", "oracle-c3", "cli")
WORK = Path(".bench_out/smoke")

failures = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def bench(workload, trace=0, goldens=None, cwd="."):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if goldens:
        cmd += ["--goldens", str(goldens)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result


def has_metrics(result, spec):
    got = result["metrics"] if result else {}
    return all(m["name"] in got and got[m["name"]]["unit"] == m["unit"] for m in spec)


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    WORK.mkdir(parents=True, exist_ok=True)

    for w in WORKLOADS:
        code, res = bench(w)
        check(code == 0 and res and res["correct"] and res["failed"] == 0, "%s passes its checks" % w)
        check(has_metrics(res, spec["end_to_end"]), "%s prints every end-to-end metric and unit" % w)

        code, first = bench(w, trace=1)
        _, second = bench(w, trace=1)
        check(code == 0 and has_metrics(first, spec["per_layer"]), "%s traced prints every per-layer metric" % w)
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
        same = first and second and all(
            first["metrics"][n]["value"] == second["metrics"][n]["value"] for n in counts
        )
        check(bool(same), "%s traced counts repeat exactly" % w)

    goldens = json.loads((HERE / "goldens.json").read_text())
    tiny = goldens["tiny"]
    tiny["sweep"]["cases"] += 1
    key = sorted(tiny["oracle"]["classes"])[0]
    tiny["oracle"]["classes"][key][2] += 1
    for answer in tiny["cli"].values():
        answer["stdout_sha256"] = "0" * 64
    corrupt = WORK / "goldens-corrupt.json"
    corrupt.write_text(json.dumps(goldens))
    for w in WORKLOADS:
        code, res = bench(w, goldens=corrupt.resolve())
        check(code == 0 and res and not res["correct"] and res["failed"] >= 1,
              "%s reports a corrupted golden as failed" % w)

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    code, res = bench("cli", cwd=bare)
    check(code != 0 and res is None, "without the program: nonzero exit and no result")
    shutil.rmtree(bare)

    print("smoke: %s" % ("FAIL (%d)" % len(failures) if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
