"""One benchmark pass of permlab, run in a fresh interpreter.

Reads one JSON request from stdin:

    {"src": "<directory holding the permlab package>",
     "argvs": [["enumerate", "--mode", ...], ...],
     "trace": false}

It times the import of ``permlab.cli`` plus one parser build (the set-up a
command-line user pays on every invocation), then runs each argv through
``permlab.cli.main`` in order, capturing stdout, and prints one JSON object
on its own stdout. With ``"trace": true`` it first wraps the layer functions
(see ``layers.py``) and adds their counters to the result.

Host speed: the machines this runs on share cores, and the same pass has
measured 1.4 s and 2.6 s a minute apart. So the worker times a fixed
reference loop before the set-up, after it, and between calls at least every
CALIBRATE_EVERY_S, and gives every timing a ``scale``: REFERENCE_S over the
mean of the reference times that bracket it. A time multiplied by its scale
is the time on a host where the reference loop takes REFERENCE_S. The loop is
the benchmark's own code, so no change to permlab alters it; its time is kept
out of every call and pass time.

The worker checks nothing; ``run.py`` compares the captured output with the
frozen answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from itertools import permutations
from pathlib import Path

#: Median reference-loop time, in seconds, that scaled timings are relative to
#: (about its time on an uncontended core of the 2-core host it was written on).
REFERENCE_S = 0.005
CALIBRATE_EVERY_S = 0.2


def _reference_loop() -> None:
    # Two halves like permlab's two kinds of work: a scan of S_7 for a
    # consecutive 321, then keying words of S_6 into frozenset-keyed classes.
    for w in permutations(range(1, 8)):
        for i in range(5):
            if w[i] > w[i + 1] > w[i + 2]:
                break
    classes: dict = {}
    for w in permutations(range(1, 7)):
        classes.setdefault(frozenset(zip(w, w[1:])), []).append(w)


def reference_s() -> float:
    """Median of three timings of the reference loop."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


def main() -> int:
    request = json.load(sys.stdin)
    src = Path(request["src"]).resolve()
    sys.path.insert(0, str(src))

    before = reference_s()
    t0 = time.perf_counter()
    import permlab.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - t0
    ref = reference_s()
    setup_scale = REFERENCE_S / ((before + ref) / 2)

    # An installed copy elsewhere must not stand in for the source under test.
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"worker: imported {cli.__file__}, not a module under {src}", file=sys.stderr)
        return 2

    run = cli.main
    tracer = None
    if request["trace"]:
        from layers import Tracer

        tracer = Tracer()
        run = tracer.install()

    calls = []
    pending = []  # calls not yet bracketed by a second reference timing
    last_ref = time.perf_counter()
    for k, argv in enumerate(request["argvs"]):
        out = io.StringIO()
        err = io.StringIO()
        error = None
        cpu = time.process_time()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # recorded as a failed call, the pass goes on
            code = None
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        call = {
            "s": end - t,
            "cpu_s": time.process_time() - cpu,
            "exit": code,
            "stdout": out.getvalue(),
            "stderr": err.getvalue()[-500:],
            "error": error,
        }
        calls.append(call)
        pending.append(call)
        if end - last_ref >= CALIBRATE_EVERY_S or k == len(request["argvs"]) - 1:
            new_ref = reference_s()
            for c in pending:
                c["scale"] = REFERENCE_S / ((ref + new_ref) / 2)
            pending = []
            ref = new_ref
            last_ref = time.perf_counter()

    result = {
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "calls": calls,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
