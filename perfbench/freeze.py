"""Record the benchmark's workloads and their expected answers.

    python3 perfbench/freeze.py

Builds the command lines of every workload, runs each once through
``permlab.cli.main`` and writes ``perfbench/expected.json``: for each call its
argv, exit code and either the counts it reports or the SHA-256 of its stdout.
Before writing, it cross-checks the recorded answers against the reference
rows in ``permlab.catalog.SEQUENCE_TABLES`` and against closed forms computed
here, and refuses to write if any disagree.

``run.py`` reads only ``expected.json``, never permlab, so an edit to permlab
cannot make a check pass by changing the answer it is checked against. Run
this again only to add a workload, on a commit whose answers are known good.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CATALOG_DEGREES = range(1, 8)
CLASS_COUNT_TABLES = {"A000041": "conjugacy", "A009490": "order", "A002619": "toric"}

# The README's examples, except `sigma --n 5040 --via avoiders`: it would
# enumerate S_5040, so it exceeds the default degree budget of 9 and exits 3.
README_COMMANDS = (
    "enumerate --mode class-avoid --pattern 231 --relation knuth --n 1..8 --emit csv",
    "enumerate --mode class-avoid --pattern 1;x=0;y=0 --relation conjugacy --n 1..7",
    "classes --relation toric --n 5 --sizes",
    "survey --relation toric --length 3 --n-max 5 --emit csv",
    "stable --relation knuth --pattern 123;x=1,2;y= --n-max 6",
    "rsk --perm 241635",
    "natural --n 10",
    "robin --from 5041 --to 6000 --emit csv",
    "seq-check --id A000166 --budget-n 7",
)

DEEP_SCAN_N = 8
SURVEY_LENGTH = 3
SURVEY_N_MAX = 5


def bell(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def avoiders_1342(n: int) -> int:
    """Bona's formula for permutations of n avoiding 1342 (OEIS A022558);
    2413 is Wilf-equivalent to 1342."""
    total = (-1) ** (n - 1) * (7 * n * n - 3 * n - 2) // 2
    for i in range(2, n + 1):
        total += (3 * (-1) ** (n - i) * 2 ** (i + 1) * math.factorial(2 * i - 4)
                  // (math.factorial(i) * math.factorial(i - 2)) * math.comb(n - i + 2, 2))
    return total


# pattern -> closed form of its plain avoider count at degree n
DEEP_SCAN = {
    "213;y=1": bell,
    "231": catalan,
    "321": catalan,
    "2413": avoiders_1342,
}


def _divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def workload_argvs():
    """The argv of every call, by workload."""
    from permlab.catalog import CATALOG

    rows = []
    for entry in CATALOG:
        for n in CATALOG_DEGREES:
            rows.append(["enumerate", "--mode", entry.mode, "--pattern", str(entry.pat),
                         "--relation", entry.relation, "--n", str(n), "--emit", "json"])
    for relation in CLASS_COUNT_TABLES.values():
        for n in CATALOG_DEGREES:
            rows.append(["classes", "--relation", relation, "--n", str(n), "--emit", "json"])
    rows.extend(cmd.split(" ") for cmd in README_COMMANDS)

    deep = [["enumerate", "--mode", "avoid", "--pattern", pat, "--relation", "none",
             "--n", str(DEEP_SCAN_N), "--emit", "json"] for pat in DEEP_SCAN]

    survey = [["survey", "--relation", rel, "--length", str(SURVEY_LENGTH),
               "--n-max", str(SURVEY_N_MAX), "--emit", "csv"]
              for rel in ("conjugacy", "order", "knuth", "toric", "descent")]
    return {"catalog-rows": rows, "deep-scan": deep, "survey": survey}


def _run(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _single_json(argv) -> dict | None:
    """The options of an enumerate or classes call that prints one JSON
    result, or None for any other call."""
    opt = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] in ("enumerate", "classes") and opt.get("--emit") == "json" \
            and ".." not in opt["--n"]:
        return opt
    return None


def expectation(argv, code, stdout) -> dict:
    """What run.py checks a call against: the counts of a call that prints
    one JSON result, the SHA-256 of its stdout otherwise."""
    if _single_json(argv) is None:
        return {"exit": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    payload = json.loads(stdout)
    keys = ("count", "class_count") if argv[0] == "enumerate" else ("class_count",)
    return {"exit": code, **{k: payload[k] for k in keys}}


def reference_value(argv) -> tuple[str, int] | None:
    """The field of a call's answer that a reference row or closed form
    covers, with that reference value; None where none covers it."""
    from permlab.catalog import CATALOG, SEQUENCE_TABLES

    opt = _single_json(argv)
    if opt is None:
        return None
    n = int(opt["--n"])
    if argv[0] == "classes":
        table = next(t for t, r in CLASS_COUNT_TABLES.items() if r == opt["--relation"])
        want = SEQUENCE_TABLES[table].value_at(n)
        return None if want is None else ("class_count", want)
    if opt["--relation"] == "none":
        return "count", DEEP_SCAN[opt["--pattern"]](n)
    entry = next(e for e in CATALOG if str(e.pat) == opt["--pattern"]
                 and e.relation == opt["--relation"] and e.mode == opt["--mode"])
    if entry.table is not None:
        want = SEQUENCE_TABLES[entry.table].value_at(n)
    elif entry.name == "totient":
        want = _totient(n + 1)
    elif entry.name == "divisors":
        want = _divisor_count(n)
    else:
        want = None
    return None if want is None else ("count", want)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from permlab.cli import main as cli_main

    workloads = {}
    problems = []
    checked = 0
    for name, argvs in workload_argvs().items():
        calls = []
        for argv in argvs:
            code, stdout = _run(cli_main, argv)
            expect = expectation(argv, code, stdout)
            if code != 0:
                problems.append(f"{argv}: exit {code}")
            ref = reference_value(argv)
            if ref is not None:
                checked += 1
                if expect[ref[0]] != ref[1]:
                    problems.append(f"{argv}: {ref[0]} {expect[ref[0]]}, reference {ref[1]}")
            calls.append({"argv": argv, "expect": expect})
        workloads[name] = calls
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(HERE / "expected.json", "w") as fh:
        json.dump({"workloads": workloads}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {HERE / 'expected.json'}: "
          + ", ".join(f"{k} {len(v)} calls" for k, v in workloads.items())
          + f"; {checked} answers agree with a reference row or closed form")
    return 0


if __name__ == "__main__":
    sys.exit(main())
