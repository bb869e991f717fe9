"""liecheck benchmark: three workloads, exact output checks, one JSON result.

Run from the root of a checkout:

    python3 benchmark/run.py --workload sweep-m48 --seed 1 --seconds 24 --trace 0

Workloads (closed loop, one caller, one workload process at a time):

  sweep-m48  a fresh process runs ``verify.sweep("all", 48)`` cold, per pass
  oracle-c3  one process runs rounds of the criterion-3 dual-oracle check on
             so(p,q)/su(p,q) with p+q <= 6 and so*(2n) with n <= 4, then the
             78-case criterion-2 set (closed-form bound vs exhaustive max)
  cli        one fresh ``python -m liecheck.cli`` per command (under
             sampled.py): short queries drawn with the seed,
             ``verify --json --max-param 32`` and ``export --max-param 32``

The machine this was tuned on alternates between a fast speed and one about
half as fast, in stretches of seconds to minutes, and its fast speed drifts
too.  So every unit of a pass (algebra, class, command, set-up) is timed
together with slices of a fixed reference loop (refloop.py) taken beside
it, and its time is scaled to the machine speed at which a slice takes
``refloop.NOMINAL_S``; each unit's lowest scaled time over the run's
passes is kept, and ``wall_s`` is their sum.  See benchmark/README.md for
every metric.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds per-workload details and the provenance.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics instead, with a stderr table and a JSON dump under
.bench_out/.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
from refloop import NOMINAL_S, at_nominal_speed

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")
SETUP_PROBES = 1
CHILD_TIMEOUT_S = 150
EXPORT_PATH = ".bench_out/atlas.json"
SAMPLES_PATH = OUT_DIR / "speed-samples"

# Seconds one pass of any workload takes, roughly, at the reference commit on
# the tuning machine.  A run makes --seconds / NOMINAL_PASS_S passes (at least
# MIN_PASSES), so two commits are always compared with the same number of
# passes and the same best-of statistic.  TIME_CAP * --seconds is only a
# safety stop: past it a run starts no pass beyond the minimum.
NOMINAL_PASS_S = 12.0
MIN_PASSES = 2
TIME_CAP = 3.0

# short cli queries drawn per pass, by kind
QUERY_DRAW = {"info": 2, "involutions": 2, "vcd": 2, "oracle": 1, "oracle-matrix": 1}


class CheckoutError(Exception):
    """The working directory is not a liecheck checkout."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def query_kind(argv):
    if argv[0] == "oracle" and "--matrix" in argv:
        return "oracle-matrix"
    return argv[0]


def cli_commands(size):
    """The fixed long commands of a cli pass, besides the drawn queries."""
    if size == "tiny":
        return []
    return [
        ["verify", "--json", "--max-param", "32"],
        ["export", "--max-param", "32", "--out", EXPORT_PATH],
    ]


def draw_queries(frozen, seed, size):
    """Short queries drawn with the seed from the frozen cli commands."""
    rng = random.Random(seed)
    keys = sorted(k for k in frozen if query_kind(shlex.split(k)) in QUERY_DRAW)
    if size == "tiny":
        return [shlex.split(rng.choice(keys))]
    out = []
    for kind, k in QUERY_DRAW.items():
        candidates = [key for key in keys if query_kind(shlex.split(key)) == kind]
        out.extend(shlex.split(key) for key in rng.sample(candidates, k))
    return out


# ---------------------------------------------------------------------------
# statistics


def percentile(values, p):
    """Nearest-rank percentile and the number of samples beyond it."""
    s = sorted(values)
    rank = max(1, -(-len(s) * p // 100))
    return s[rank - 1], len(s) - rank


def best_per_unit(passes, nominal=True):
    """Each unit's lowest time over the passes: {unit: seconds}.

    A pass maps each unit to (seconds, reference slice time around it);
    with ``nominal`` the times are scaled to the nominal speed first."""
    best = {}
    for units in passes:
        for key, (t, ref) in units.items():
            if nominal:
                t = at_nominal_speed(t, ref)
            if key not in best or t < best[key]:
                best[key] = t
    return best


def around(refs, i):
    """Mean of the reference slices before and after unit i: refs[i], refs[i + 1]."""
    return (refs[i] + refs[i + 1]) / 2


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# children


def under_sampler(cmd):
    """The command run under sampled.py, which samples the machine speed."""
    return [cmd[0], str(HERE / "sampled.py"), str(SAMPLES_PATH)] + cmd[1:]


def read_samples():
    """Reference-slice times taken in the last process run under_sampler."""
    try:
        samples = [float(x) for x in SAMPLES_PATH.read_text().split()]
    except OSError:
        return []
    SAMPLES_PATH.unlink()
    return samples


def mean_ref(samples):
    """Mean slice time of a sampled process; nominal if it took no sample."""
    return sum(samples) / len(samples) if samples else NOMINAL_S


def run_child(args, timeout=CHILD_TIMEOUT_S, sampled=False):
    """Run child.py; returns (its result line, or None and the error text)."""
    cmd = [sys.executable, str(HERE / "child.py")] + args + ["--spawned", repr(time.monotonic())]
    if sampled:
        cmd = under_sampler(cmd)
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "no result within %d s" % timeout
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, "exit %d: %s" % (proc.returncode, " | ".join(tail))
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, "no result line"


class Run:
    """Ops, failures and pass timings collected during one benchmark run."""

    def __init__(self, workload, seed, seconds, trace, size, goldens):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.goldens = goldens
        self.attempted = 0
        self.failures = []
        self.untraced = []  # per pass: {unit: (seconds, local reference time)}
        self.traced = []
        self.refs = []  # every reference slice of the untraced passes
        self.layer_passes = []  # per traced pass: layer metrics
        self.import_times = []
        self.dumps = []
        self.details = {}
        self.setup_times = []  # at the nominal speed
        self.setup_raw = []
        self.backend = None

    def setup_probe(self, n=SETUP_PROBES):
        """Time n fresh set-ups: spawn, import liecheck, build the inputs.

        Probes are spread over the run (before, between and after passes)
        so that their median does not hang on one speed phase."""
        for _ in range(n):
            res, err = run_child(
                ["setup", "--workload", self.workload, "--seed", str(self.seed), "--size", self.size],
                sampled=True,
            )
            samples = read_samples()
            if err:
                self.op(False, "setup: " + err)
                continue
            self.setup_times.append(at_nominal_speed(res["setup_s"], mean_ref(samples)))
            self.setup_raw.append(res["setup_s"])
            self.backend = res["backend"]

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def traced_next(self, passes_done):
        return self.trace and passes_done % 2 == 1

    def passes(self):
        return max(MIN_PASSES, round(self.seconds / NOMINAL_PASS_S))

    def more_passes(self, started, passes_done):
        if passes_done < MIN_PASSES:
            return True
        return passes_done < self.passes() and time.monotonic() - started < TIME_CAP * self.seconds

    def add_pass(self, units, traced, layers=None, dump=None, refs=()):
        (self.traced if traced else self.untraced).append(units)
        if not traced:
            self.refs.extend(refs)
        if traced:
            self.layer_passes.append(layers)
            self.dumps.append(dump)


def run_sweep(run):
    max_param = child.SWEEP_SIZES[run.size]
    golden = run.goldens["sweep"]
    run.details["params"] = {"max_param": max_param, "scope": "all", "seed_used": False}
    started = time.monotonic()
    raw = []
    tries = 0
    while True:
        if tries:
            run.setup_probe()
        traced = run.traced_next(tries)
        tries += 1
        args = ["sweep", "--max-param", str(max_param)] + (["--trace"] if traced else [])
        res, err = run_child(args)
        if err:
            run.op(False, "sweep: " + err)
        else:
            ok = res["answers"] == golden
            run.op(ok, "sweep answers %s, frozen %s" % (res["answers"], golden))
            # refs[g] precedes case EVERY * g; the last slice follows the sweep
            refs = res["refs"] + [res["rest_ref"]]
            every = child.REF_EVERY
            units = {i: (t, around(refs, i // every)) for i, t in enumerate(res["units"])}
            units["rest"] = (res["rest_s"], around(refs, len(refs) - 2))
            trace = res["trace"] or {}
            run.add_pass(units, traced, trace.get("layers"), trace.get("dump"), refs)
            run.import_times.append(res["import_s"])
            if not traced:
                raw.append(res["total_s"])
        if not run.more_passes(started, tries):
            break
    run.details["sweep.pass_median_s"] = _median(raw)


def run_oracle(run):
    golden = run.goldens["oracle"]
    run.details["params"] = {
        "classes": "so(p,q), su(p,q) with p+q <= %d; so*(2n) with n <= %d"
        % child.ORACLE_SIZES[run.size],
        "criterion_2_cases": len(golden["bounds"]),
        "seed_orders_classes": True,
    }
    args = ["oracle", "--size", run.size, "--seed", str(run.seed), "--rounds", str(run.passes()),
            "--min-rounds", str(MIN_PASSES), "--max-seconds", repr(TIME_CAP * run.seconds)]
    res, err = run_child(args + (["--trace"] if run.trace else []))
    if err:
        run.op(False, "oracle: " + err)
        return
    run.import_times.append(res["import_s"])
    for rnd in res["rounds"]:
        # each row's reference slice precedes it; the round's last one follows
        refs = [row[-1] for row in rnd["classes"] + rnd["bounds"]] + [rnd["last_ref"]]
        units = {}
        seen = set()
        for i, (key, t, got, want, error, _) in enumerate(rnd["classes"]):
            frozen = golden["classes"].get(key)
            ok = error is None and got is not None and [got[2], got[1]] == want and got == frozen
            run.op(ok, "class %s: %s" % (key, error or "got %s, oracle %s, frozen %s" % (got, want, frozen)))
            units["class:" + key] = (t, around(refs, i))
            seen.add(key)
        missing = set(golden["classes"]) - seen
        run.op(not missing, "round skipped %d frozen classes" % len(missing))
        for i, (key, t, got, error, _) in enumerate(rnd["bounds"], len(rnd["classes"])):
            frozen = golden["bounds"].get(key)
            ok = error is None and got is not None and got[0] == got[1] and got == frozen
            run.op(ok, "bound %s: %s" % (key, error or "got %s, frozen %s" % (got, frozen)))
            units["bound:" + key] = (t, around(refs, i))
        trace = rnd["trace"] or {}
        run.add_pass(units, rnd["traced"], trace.get("layers"), trace.get("dump"), refs)


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def timed_cli(cmd, argv):
    """Run one CLI process with stdout to a file; returns (wall_s, answer,
    the speed samples when it ran under_sampler).

    stdout goes to a file, not a pipe held in memory, because a child's
    ru_maxrss starts from its parent's peak RSS at spawn: capturing the
    10 MB ``verify --json`` output here would inflate ``peak_rss_mb``."""
    out = OUT_DIR / "cli-stdout"
    with open(out, "wb") as fh:
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=child_env(), stdout=fh, stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return CHILD_TIMEOUT_S, {"exit": "timeout"}, read_samples()
        wall = time.monotonic() - t0
    got = {"exit": proc.returncode, "stdout_sha256": file_sha256(out)}
    if argv[0] == "export" and proc.returncode == 0:
        got["atlas_sha256"] = file_sha256(EXPORT_PATH)
    return wall, got, read_samples()


def run_cli_command(run, argv, traced):
    """One CLI process; returns its wall time, its speed samples (untraced)
    and its trace (traced)."""
    dump = OUT_DIR / "cli-trace.json"
    if traced:
        cmd = [sys.executable, str(HERE / "child.py"), "cli", "--dump", str(dump), "--argv", json.dumps(argv)]
    else:
        cmd = under_sampler([sys.executable, "-m", "liecheck.cli"] + argv)
    wall, got, samples = timed_cli(cmd, argv)
    key = shlex.join(argv)
    frozen = run.goldens["cli"].get(key)
    ok = frozen is not None and got == frozen
    run.op(ok, "cli %s: got %s, frozen %s" % (key, got, frozen))
    payload = None
    if traced and dump.exists():
        payload = json.loads(dump.read_text())
        dump.unlink()
    return wall, samples, payload


def run_cli(run):
    commands = draw_queries(run.goldens["cli"], run.seed, run.size) + cli_commands(run.size)
    run.details["params"] = {"commands": [shlex.join(c) for c in commands]}
    started = time.monotonic()
    tries = 0
    while True:
        if tries:
            run.setup_probe()
        traced = run.traced_next(tries)
        tries += 1
        units, layers, dumps, refs = {}, [], [], []
        for argv in commands:
            wall, samples, payload = run_cli_command(run, argv, traced)
            refs.extend(samples)
            units[shlex.join(argv)] = (wall, mean_ref(samples))
            if payload is not None:
                layers.append(payload["layers"])
                dumps.append({"command": shlex.join(argv), "dump": payload["dump"]})
                run.import_times.append(payload["import_s"])
        summed = None
        if traced:
            summed = {k: sum(layer[k] for layer in layers) for k in (layers[0] if layers else {})}
        run.add_pass(units, traced, summed, dumps, refs)
        if not run.more_passes(started, tries):
            break


WORKLOADS = {"sweep-m48": run_sweep, "oracle-c3": run_oracle, "cli": run_cli}


# ---------------------------------------------------------------------------
# metrics


def e2e_metrics(run):
    """End-to-end metrics from the untraced passes."""
    best = best_per_unit(run.untraced)
    if not best:
        return {}
    wall = sum(best.values())
    run.details.update(
        {
            "ref.p05_ms": 1000 * percentile(run.refs, 5)[0],
            "ref.median_ms": 1000 * _median(run.refs),
            "ref.slices": len(run.refs),
            "wall_measured_s": sum(best_per_unit(run.untraced, nominal=False).values()),
            "setup_measured_s": _median(run.setup_raw),
        }
    )
    if run.workload == "sweep-m48":
        items = [t for k, t in best.items() if k != "rest"]
        rate = run.goldens["sweep"]["cases"] / wall
        run.details["sweep.cases_per_s"] = rate
    elif run.workload == "oracle-c3":
        items = [t for k, t in best.items() if k.startswith("class:")]
        rate = len(items) / sum(items)
        run.details.update(
            {
                "oracle.classes_per_s": rate,
                "oracle.class_p50_ms": 1000 * percentile(items, 50)[0],
                "oracle.class_p95_ms": 1000 * percentile(items, 95)[0],
                "oracle.bound_s": sum(t for k, t in best.items() if k.startswith("bound:")),
            }
        )
    else:
        items = list(best.values())
        rate = len(items) / wall
        queries = [t for k, t in best.items() if query_kind(shlex.split(k)) in QUERY_DRAW]
        run.details["cli.query_p50_ms"] = 1000 * percentile(queries, 50)[0]
        for k, t in best.items():
            if k.startswith("verify "):
                run.details["cli.verify_json_s"] = t
            elif k.startswith("export "):
                run.details["cli.export_s"] = t
    p95, beyond = percentile(items, 95)
    run.details.update(
        {
            "passes": len(run.untraced),
            "setup_probes": len(run.setup_times),
            "items": len(items),
            "item_p50_ms": 1000 * percentile(items, 50)[0],
            "item_p95_ms": 1000 * p95,
            "item_p95_samples_beyond": beyond,
        }
    )
    return {
        "setup_s": _median(run.setup_times),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "items_per_s": rate,
    }


def layer_metrics(run):
    """Per-layer metrics: counts and times from the first traced pass."""
    if not run.layer_passes or not run.layer_passes[0]:
        return {}
    out = dict(run.layer_passes[0])
    for later in run.layer_passes[1:]:
        for k, v in later.items():
            if not k.endswith("_s") and v != out[k]:
                print("warning: count %s differs between traced passes (%s vs %s)" % (k, out[k], v),
                      file=sys.stderr)
    cells = out["exact.rank.cells"]
    out["exact.rank.nonzero_ratio"] = out["exact.rank.nonzeros"] / cells if cells else 0.0
    out["cli.import_s"] = _median(run.import_times)
    traced = sum(best_per_unit(run.traced, nominal=False).values())
    untraced = sum(best_per_unit(run.untraced, nominal=False).values())
    out["trace.wall_s"] = traced
    out["trace.untraced_wall_s"] = untraced
    out["trace.overhead_s"] = traced - untraced
    return out


def layer_table(run, metrics):
    wall = metrics.get("trace.wall_s") or 1.0
    lines = ["%-36s %10s %10s %7s" % ("layer (%s, first traced pass)" % run.workload, "count", "self_s", "share")]
    names = sorted({k.rsplit(".", 1)[0] for k in metrics if k.endswith(".self_s")})
    for name in names:
        count = metrics.get(name + ".calls", metrics.get(name + ".yielded", ""))
        self_s = metrics[name + ".self_s"]
        lines.append("%-36s %10s %10.3f %6.1f%%" % (name, count, self_s, 100 * self_s / wall))
    lines.append(
        "traced wall_s %.3f, untraced wall_s %.3f, tracing overhead %.3f s"
        % (metrics["trace.wall_s"], metrics["trace.untraced_wall_s"], metrics["trace.overhead_s"])
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# provenance and main


def provenance(run):
    src = Path("src/liecheck")
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path).encode() + b"\0" + path.read_bytes())
    commit = None
    if Path(".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "backend": run.backend,
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "size": run.size,
        "params": run.details.pop("params", None),
    }


def load_checkout(goldens_path):
    if not Path("src/liecheck/__init__.py").is_file():
        raise CheckoutError("no src/liecheck here; run from the root of a liecheck checkout")
    spec = json.loads(Path("BENCHMARK.json").read_text())
    goldens = json.loads(Path(goldens_path).read_text())
    return spec, goldens


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: sweep M=8, oracle p+q <= 3, one cli query (smoke test)")
    parser.add_argument("--goldens", default=str(HERE / "goldens.json"))
    args = parser.parse_args(argv)
    try:
        spec, goldens = load_checkout(args.goldens)
    except (CheckoutError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, goldens[args.size])
    run.setup_probe(3)
    WORKLOADS[args.workload](run)
    run.setup_probe(3)

    if run.trace:
        wanted = spec["per_layer"]
        computed = layer_metrics(run)
    else:
        wanted = spec["end_to_end"]
        computed = e2e_metrics(run)
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    for name in missing:
        run.op(False, "metric %s not measured" % name)
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in computed}

    run.details["error_rate"] = len(run.failures) / max(run.attempted, 1)
    prov = provenance(run)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record = {"provenance": prov, "details": run.details, "failures": run.failures[:50], "metrics": metrics}
    if run.trace and computed:
        Path(OUT_DIR / ("trace-%s.json" % stem)).write_text(
            json.dumps({"provenance": prov, "passes": run.layer_passes, "dumps": run.dumps})
        )
        print(layer_table(run, computed), file=sys.stderr)
    Path(OUT_DIR / ("result-%s.json" % stem)).write_text(json.dumps(record, indent=1))
    for what in run.failures[:10]:
        print("FAILED: %s" % what, file=sys.stderr)
    print(json.dumps({"provenance": prov, "details": run.details}))
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": max(run.attempted, 1),
                "failed": len(run.failures) if run.attempted else 1,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
