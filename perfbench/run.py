"""End-to-end benchmark of the permlab command line.

    python3 perfbench/run.py --workload catalog-rows --seed 1 --seconds 20 --trace 0

Workloads (argv lists and frozen answers in ``expected.json``):

- ``catalog-rows``: every CATALOG entry as one ``enumerate --emit json`` call
  per degree n = 1..7, ``classes`` for the three class-count rows at
  n = 1..7, and the README examples that exit 0 (142 calls). The paper's
  reproduction job: all five relations, avoid and match modes, dense and
  sparse patterns, with scan and closure both large, so a faster layer must
  not slow the other.
- ``deep-scan``: plain avoiders of 213;y=1, 231, 321 and 2413 at n = 8
  (Bell, Catalan, Catalan and A022558 numbers). The S_n scan is nearly all of
  the time and no relation is involved, so an avoider generator shows here
  and closure work predicts no change.
- ``survey``: ``survey --length 3 --n-max 5 --emit csv`` once per relation:
  thousands of class-closed counts at small n, where per-call cost dominates.

The degrees are lower than a full reproduction (n = 8, 9 and 6) so that a
pass takes seconds and a run holds several passes, whose median is reported.

Every time is scaled to a reference host speed (see ``worker.py``): the
machines this runs on share cores, their speed changes by up to 1.8x for
seconds to minutes at a time, and unscaled medians of runs minutes apart
differed by 30-40%. The unscaled median pass time is printed alongside.

Load model: closed loop, one client, one process at a time, no threads
(``--threads`` is never passed). Each pass runs every call of the workload
once, in an order drawn from ``--seed``, in a fresh interpreter, because a
command-line user pays permlab's cold caches on every invocation. Passes
repeat while the next one is expected to end within ``--seconds``; there is
always at least one.

A call fails on an unexpected exit code, a wrong count or stdout digest, or
an exception. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
metrics for a reader, with ``fail_frac`` and the commit, source digest,
Python version and core count the result belongs to.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time to
import permlab.cli and build its parser), ``wall_s`` (median pass time),
``query_p50_ms`` and ``query_p90_ms`` (per-call time over all passes) and
``peak_rss_mb`` (median peak RSS of a pass process). ``--trace 1`` alternates
plain and traced passes and reports the per-layer metrics of ``layers.py``
(medians over traced passes), ``proc.cpu_s`` (median CPU time of the calls
of a plain pass) and ``proc.trace_overhead`` (traced over plain median pass
time, minus 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Interpreter starts that only time the set-up, so that setup_s is a median
# of several samples even when a run has room for one pass.
SETUP_PROBES = 5
# A run must end within 180 s; a pass still going at this point is stopped.
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    pass


def load_calls(workload: str) -> list[dict]:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)["workloads"][workload]


def run_pass(argvs: list[list[str]], trace: bool, limit: float) -> dict:
    """Run the argvs in one fresh worker interpreter and return its result;
    the worker is stopped at perf_counter time `limit`."""
    request = json.dumps({"src": str(SRC), "argvs": argvs, "trace": trace})
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=request,
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=max(limit - time.perf_counter(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"the run did not end within {RUN_LIMIT_S}s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def failure(expect: dict, call: dict) -> str | None:
    """Why a call's outcome differs from its frozen answer, or None."""
    if call["error"] is not None:
        return call["error"]
    if call["exit"] != expect["exit"]:
        return f"exit {call['exit']}, expected {expect['exit']}: {call['stderr'].strip()}"
    if "sha256" in expect:
        digest = hashlib.sha256(call["stdout"].encode()).hexdigest()
        return None if digest == expect["sha256"] else "stdout digest differs"
    try:
        payload = json.loads(call["stdout"])
    except ValueError:
        return "stdout is not one JSON document"
    for key in ("count", "class_count"):
        if key in expect and payload.get(key) != expect[key]:
            return f"{key} {payload.get(key)}, expected {expect[key]}"
    return None


def measure(calls: list[dict], seed: int, seconds: float, trace: bool) -> dict:
    """Run passes over the calls for about `seconds` and collect what they report."""
    rng = random.Random(seed)
    limit = time.perf_counter() + RUN_LIMIT_S
    run_pass([], False, limit)  # compiles bytecode and warms the file cache; not timed
    setups = [run_pass([], False, limit) for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    attempted = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        t0 = time.perf_counter()
        order = rng.sample(range(len(calls)), len(calls))
        argvs = [calls[i]["argv"] for i in order]
        for flag in ((False, True) if trace else (False,)):
            result = run_pass(argvs, flag, limit)
            (traced if flag else plain).append(result)
            setups.append(result)
            attempted += len(order)
            for i, outcome in zip(order, result["calls"]):
                outcome["index"] = i
                why = failure(calls[i]["expect"], outcome)
                if why is not None:
                    failures.append(f"{' '.join(calls[i]['argv'])}: {why}")
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    return {"setups": [r["setup_s"] * r["setup_scale"] for r in setups],
            "plain": plain, "traced": traced, "attempted": attempted, "failures": failures}


def wall_s(result: dict) -> float:
    """Scaled time of a pass: its calls' times at the reference host speed."""
    return sum(c["s"] * c["scale"] for c in result["calls"])


def host_scale(result: dict) -> float:
    """Time-weighted mean scale of a pass's calls."""
    return wall_s(result) / sum(c["s"] for c in result["calls"])


def end_to_end(m: dict) -> dict:
    passes = m["plain"]
    by_call: dict[int, list[float]] = {}
    for p in passes:
        for c in p["calls"]:
            by_call.setdefault(c["index"], []).append(c["s"] * c["scale"] * 1e3)
    # Each call's median over the passes, so a slow moment of the host moves
    # one sample of a call, not the percentile.
    typical_ms = sorted(statistics.median(v) for v in by_call.values())
    p90 = (statistics.quantiles(typical_ms, n=10, method="inclusive")[8]
           if len(typical_ms) > 1 else typical_ms[0])
    return {
        "setup_s": (statistics.median(m["setups"]), "s"),
        "wall_s": (statistics.median(wall_s(p) for p in passes), "s"),
        "query_p50_ms": (statistics.median(typical_ms), "ms"),
        "query_p90_ms": (p90, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(m: dict) -> dict:
    traced = m["traced"]
    values = {}
    for name in traced[0]["layers"]:
        unit = LAYER_UNITS[name]
        power = {"s": 1, "1/s": -1}.get(unit, 0)
        values[name] = statistics.median(p["layers"][name] * host_scale(p) ** power
                                         for p in traced)
    values["proc.cpu_s"] = statistics.median(sum(c["cpu_s"] * c["scale"] for c in p["calls"])
                                             for p in m["plain"])
    values["proc.trace_overhead"] = (statistics.median(wall_s(p) for p in traced)
                                     / statistics.median(wall_s(p) for p in m["plain"]) - 1)
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}


def _commit() -> str:
    """HEAD of the checkout's git metadata, read as files; 'unknown' without one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "permlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog-rows", "deep-scan", "survey"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "permlab" / "cli.py").is_file():
        print(f"run.py: no permlab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        m = measure(load_calls(args.workload), args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3

    metrics = per_layer(m) if args.trace else end_to_end(m)
    failed = len(m["failures"])
    for line in m["failures"][:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(m['plain']) + len(m['traced'])} commit={_commit()} "
          f"src_sha256={_source_digest()} python={platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))}")
    passes = m["plain"] + m["traced"]
    print(f"  fail_frac = {failed / m['attempted']:.6g} ratio "
          f"({failed} of {m['attempted']} calls)")
    print(f"  unscaled pass time = {statistics.median(sum(c['s'] for c in p['calls']) for p in passes):.6g} s"
          f", host scale = {statistics.median(host_scale(p) for p in passes):.4g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": m["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
