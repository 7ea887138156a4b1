"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Runs one short pass of part of ``catalog-rows`` (degrees up to 5, plus the
``rsk`` README command) twice through ``run.measure``: with the frozen
answers, which must give no failed call, and with one count, one stdout
digest and one exit code changed, which must fail exactly those three calls,
so fail_frac rises above 0. It then checks that ``BENCHMARK.json`` lists
exactly the metrics, with the units, that ``run.py`` reports. Exits 0 when
every check holds.
"""

from __future__ import annotations

import copy
import json
import sys

import run
from layers import LAYER_UNITS


def _cheap(call: dict) -> bool:
    argv = call["argv"]
    if argv[0] == "rsk":
        return True
    return "--n" in argv and argv[argv.index("--n") + 1] in {"1", "2", "3", "4", "5"}


def main() -> int:
    problems = []
    calls = [c for c in run.load_calls("catalog-rows") if _cheap(c)]

    clean = run.measure(calls, seed=0, seconds=0, trace=False)
    if clean["failures"]:
        problems.append(f"frozen answers: {len(clean['failures'])} failed calls, expected 0: "
                        f"{clean['failures'][:3]}")

    wrong = copy.deepcopy(calls)
    counted = next(c for c in wrong if "count" in c["expect"])
    counted["expect"]["count"] += 1
    digested = next(c for c in wrong if "sha256" in c["expect"])
    digested["expect"]["sha256"] = "0" * 64
    exited = next(c for c in wrong if c is not counted and c is not digested)
    exited["expect"]["exit"] = 1
    broken = run.measure(wrong, seed=0, seconds=0, trace=False)
    fail_frac = len(broken["failures"]) / broken["attempted"]
    if len(broken["failures"]) != 3 or not fail_frac > 0:
        problems.append(f"three wrong answers gave fail_frac {fail_frac} from "
                        f"{broken['failures']}, expected 3 failed calls")

    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    reported = {name: unit for name, (_, unit) in run.end_to_end(clean).items()}
    if declared != reported:
        problems.append(f"end_to_end: BENCHMARK.json has {declared}, run.py reports {reported}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != LAYER_UNITS:
        problems.append(f"per_layer: BENCHMARK.json has {declared}, layers.py has {LAYER_UNITS}")

    for line in problems:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if problems else
                         f"ok: {clean['attempted']} calls clean, fail_frac {fail_frac:.4f} "
                         "with three wrong answers"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
