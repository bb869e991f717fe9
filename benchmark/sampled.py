"""Run a Python module or script while sampling the machine's speed.

    python3 benchmark/sampled.py OUT_FILE -m MODULE [ARG ...]
    python3 benchmark/sampled.py OUT_FILE SCRIPT.py [ARG ...]

runs the module as ``python -m`` would (or the script), with its stdout,
stderr and exit code.  Every SAMPLE_EVERY_S of wall time a signal handler
times one slice of the reference loop (refloop.py); when the program ends
the slice times go to OUT_FILE, space-separated, in seconds.  A slice takes
about 0.25 ms, so sampling adds about 1% to the program's time.

run.py uses this for processes that are timed whole (CLI commands and
set-up probes): their mean slice time says how fast the machine ran while
they did.
"""

import runpy
import signal
import sys

from refloop import ref_slice

SAMPLE_EVERY_S = 0.02


def main():
    out, target, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    slices = []

    def sample(signum, frame):
        slices.append(ref_slice())

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    code = 0
    try:
        if target == "-m":
            sys.argv = [args[0]] + args[1:]
            runpy.run_module(args[0], run_name="__main__", alter_sys=True)
        else:
            sys.argv = [target] + args
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        with open(out, "w") as fh:
            fh.write(" ".join(repr(s) for s in slices))
    sys.exit(code)


if __name__ == "__main__":
    main()
