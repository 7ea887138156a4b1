"""Acceptance gate: twelve checks, one printed verdict line each.

Each test prints `criterion NN PASS/FAIL - detail` on the real stdout (outside
pytest capture) before asserting, so a full run always shows the scoreboard.
"""

import math
import time
from itertools import permutations

from permlab.arith import (
    divisor_perms,
    divisors,
    natural_perms,
    robin_check,
    robin_range,
    sigma_arith,
    steggall_census,
    totient,
)
from permlab.catalog import (
    CENTRAL_POLYGONAL_PATTERN,
    DERANGEMENT_PATTERN,
    DIVISOR_PATTERN,
    GRAPH_PATTERN,
    INVOLUTION_PATTERN,
    KNUTH_MATCHING_PATTERN,
    TOTIENT_PATTERN,
)
from permlab.census import avoid_all, class_avoiders, class_matchers, match_all, stability, survey
from permlab.core import descent_set, oplus, s_n
from permlab.pattern import PatternCodes, matches, occurrences, pat_shift, pattern
from permlab.relations import RELATIONS, census
from permlab.tableau import count_syt, knuth_class, rsk
from conftest import (
    PERMS_BY_N,
    all_patterns,
    apply_symmetry,
    brute_census,
    inverse_rsk,
    oracle_occurrences,
    sieve_sigma,
    standard_tableaux,
    toric_class,
    toric_class_total,
)


def report(capfd, num: int, ok: bool, detail: str) -> None:
    with capfd.disabled():
        print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_engine_matches_oracle(capfd):
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    pats = list(all_patterns(3))
    # Word by word, so that the oracle reads each word's position subsets once
    # for all the patterns. `occurrences` runs `matches` first, so each pair
    # needs one of the two: the list where the oracle finds occurrences, and
    # the verdict where it finds none.
    for w in PERMS_BY_N[5]:
        for pat in pats:
            checked += 1
            want = oracle_occurrences(pat, w)
            if (occurrences(pat, w) != want) if want else matches(pat, w):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    report(capfd, 1, ok,
           f"1536 length-3 patterns x S5: {checked} comparisons, "
           f"{mismatches} mismatches in {elapsed:.1f}s (limit 60s)")
    assert ok


A4_123 = {
    (1, 4, 3, 2), (2, 1, 4, 3), (2, 4, 1, 3), (2, 4, 3, 1), (3, 1, 4, 2),
    (3, 2, 1, 4), (3, 2, 4, 1), (3, 4, 1, 2), (3, 4, 2, 1), (4, 1, 3, 2),
    (4, 2, 1, 3), (4, 2, 3, 1), (4, 3, 1, 2), (4, 3, 2, 1),
}


def test_criterion_02_classical_avoiders_of_123(capfd):
    p123 = pattern((1, 2, 3))
    avoiders = avoid_all([p123], 4)
    matchers = match_all([p123], 4)
    ok = set(avoiders) == A4_123 and len(avoiders) == 14 and len(matchers) == 10
    report(capfd, 2, ok,
           f"|A_4(123)|={len(avoiders)} (want 14, exact member list), "
           f"|M_4(123)|={len(matchers)} (want 10)")
    assert ok


def test_criterion_03_conjugacy_rows(capfd):
    rows = {
        "derangements": (DERANGEMENT_PATTERN, [0, 1, 2, 9, 44, 265, 1854]),
        "involutions": (INVOLUTION_PATTERN, [1, 2, 4, 10, 26, 76, 232]),
        "central-polygonal": (CENTRAL_POLYGONAL_PATTERN, [1, 2, 4, 7, 11, 16, 22]),
    }
    bad = []
    for name, (pat, want) in rows.items():
        got = [class_avoiders([pat], "conjugacy", n).count for n in range(1, 8)]
        if got != want:
            bad.append(f"{name}: {got}")
    ok = not bad
    report(capfd, 3, ok,
           "conjugacy rows n=1..7 for derangements / involutions / "
           "central-polygonal all match" if ok else "; ".join(bad))
    assert ok, bad


def test_criterion_04_knuth_avoidance(capfd):
    p231 = pattern((2, 3, 1))
    p213 = pattern((2, 1, 3))
    problems = []
    for n in range(1, 9):
        res = class_avoiders([p231], "knuth", n, want_members=True)
        if res.count != 2 ** (n - 1):
            problems.append(f"count n={n}: {res.count}")
        if sorted(res.members) != avoid_all([p231, p213], n):
            problems.append(f"member set n={n}")
    stable_fails = [
        "".join(map(str, p))
        for p in permutations((1, 2, 3))
        if not stability(pattern(p), "knuth", 7).stable
    ]
    if stable_fails:
        problems.append(f"classical unstable: {stable_fails}")
    vin = stability(pattern((1, 2, 3), x=[1, 2]), "knuth", 6)
    if vin.stable or vin.witness_n != 4 or vin.witness != (1, 3, 2, 4):
        problems.append("vincular 123 should fail at n=4 with witness 1324")
    ok = not problems
    report(capfd, 4, ok,
           "knuth: 2^(n-1) counts n=1..8, members = avoiders of {231,213}, "
           "six classical length-3 patterns stable to n=7, vincular run "
           "unstable at n=4 (witness 1324)" if ok else "; ".join(problems))
    assert ok, problems


def _hook_members(n: int) -> set:
    out = {tuple(range(n, 0, -1))}
    for w in PERMS_BY_N[n] if n <= 6 else s_n(n):
        p, _ = rsk(w)
        if all(len(r) == 1 for r in p[1:]) and 2 in p[0]:
            out.add(w)
    return out


def _hook_char_count(n: int) -> int:
    total = 1
    for shape in ((a,) + (1,) * (n - a) for a in range(1, n + 1)):
        fills_with_2_high = sum(1 for t in standard_tableaux(shape) if 2 in t[0])
        total += fills_with_2_high * count_syt(shape)
    return total


def test_criterion_05_graph_pattern(capfd):
    problems = []
    counts = [class_avoiders([GRAPH_PATTERN], "knuth", n).count for n in range(1, 8)]
    if counts != [1, 2, 4, 11, 36, 127, 463]:
        problems.append(f"counts n=1..7: {counts}")
    for n in range(1, 8):
        got = set(class_avoiders([GRAPH_PATTERN], "knuth", n, want_members=True).members)
        if got != _hook_members(n):
            problems.append(f"hook characterization n={n}")
    closed = [1 + math.comb(2 * n - 2, n - 1) // 2 for n in range(3, 13)]
    derived = [_hook_char_count(n) for n in range(3, 13)]
    if closed != derived:
        problems.append(f"closed form n=3..12: {derived} != {closed}")
    if counts[2:] != closed[:5]:
        problems.append("enumerated counts disagree with closed form on n=3..7")
    ok = not problems
    report(capfd, 5, ok,
           "hook-shaped insertion classes: counts 1,2,4,11,36,127,463, member "
           "characterization n<=7, closed form 1+C(2n-2,n-1)/2 through n=12"
           if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_06_knuth_matching_row(capfd):
    got = [class_matchers([KNUTH_MATCHING_PATTERN], "knuth", n).count
           for n in range(2, 8)]
    ok = got == [1, 2, 5, 14, 42, 132]
    report(capfd, 6, ok, f"fully-matching knuth classes n=2..7: {got} "
           "(shifted Catalan)")
    assert ok


def test_criterion_07_toric_census(capfd):
    problems = []
    cls = toric_class((1, 2, 4, 3))
    want_cls = {(1, 2, 4, 3), (4, 1, 2, 3), (2, 3, 4, 1), (2, 1, 3, 4), (1, 3, 2, 4)}
    if set(cls) != want_cls:
        problems.append(f"class of 1243: {sorted(cls)}")
    totals = [toric_class_total(n) for n in range(0, 9)]
    if totals != [1, 1, 2, 3, 8, 24, 108, 640, 4492]:
        problems.append(f"totals n=0..8: {totals}")
    for n in range(0, 9):
        if sum(steggall_census(n).values()) != totals[n]:
            problems.append(f"steggall total n={n}")
    for n in range(1, 9):
        # census() reads toric from the counting formula itself, so the
        # formula is held to the exhaustive census.
        if steggall_census(n) != brute_census(RELATIONS["toric"], n).by_size:
            problems.append(f"steggall vs brute census n={n}")
    printed = {
        4: {1: 4, 5: 4},
        5: {1: 2, 2: 2, 3: 2, 6: 18},
        6: {1: 6, 7: 102},
        7: {1: 4, 2: 2, 4: 10, 8: 624},
        8: {1: 6, 3: 10, 9: 4476},
    }
    for n, want in printed.items():
        if steggall_census(n) != want:
            problems.append(f"factorization n={n}")
    ok = not problems
    report(capfd, 7, ok,
           "toric class of 1243 (5 members), class totals 1,1,2,3,8,24,108,"
           "640,4492 for n=0..8, counting formula = brute census to n=8, "
           "size factorizations for n=4..8" if ok else "; ".join(problems))
    assert ok, problems


APPENDIX_ROWS = {
    1: {1: (1,)},
    2: {1: (1, 2), 2: (2, 1)},
    3: {1: (1, 2, 3), 3: (3, 2, 1)},
    4: {1: (1, 2, 3, 4), 2: (3, 1, 4, 2), 3: (2, 4, 1, 3), 4: (4, 3, 2, 1)},
    5: {1: (1, 2, 3, 4, 5), 5: (5, 4, 3, 2, 1)},
    6: {1: (1, 2, 3, 4, 5, 6), 2: (4, 1, 5, 2, 6, 3), 3: (5, 3, 1, 6, 4, 2),
        4: (2, 4, 6, 1, 3, 5), 5: (3, 6, 2, 5, 1, 4), 6: (6, 5, 4, 3, 2, 1)},
    7: {1: (1, 2, 3, 4, 5, 6, 7), 3: (3, 6, 1, 4, 7, 2, 5),
        5: (5, 2, 7, 4, 1, 6, 3), 7: (7, 6, 5, 4, 3, 2, 1)},
    8: {1: (1, 2, 3, 4, 5, 6, 7, 8), 2: (5, 1, 6, 2, 7, 3, 8, 4),
        4: (7, 5, 3, 1, 8, 6, 4, 2), 5: (2, 4, 6, 8, 1, 3, 5, 7),
        7: (4, 8, 3, 7, 2, 6, 1, 5), 8: (8, 7, 6, 5, 4, 3, 2, 1)},
    9: {1: (1, 2, 3, 4, 5, 6, 7, 8, 9), 3: (7, 4, 1, 8, 5, 2, 9, 6, 3),
        7: (3, 6, 9, 2, 5, 8, 1, 4, 7), 9: (9, 8, 7, 6, 5, 4, 3, 2, 1)},
    10: {1: (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
         2: (6, 1, 7, 2, 8, 3, 9, 4, 10, 5),
         3: (4, 8, 1, 5, 9, 2, 6, 10, 3, 7),
         4: (3, 6, 9, 1, 4, 7, 10, 2, 5, 8),
         5: (9, 7, 5, 3, 1, 10, 8, 6, 4, 2),
         6: (2, 4, 6, 8, 10, 1, 3, 5, 7, 9),
         7: (8, 5, 2, 10, 7, 4, 1, 9, 6, 3),
         8: (7, 3, 10, 6, 2, 9, 5, 1, 8, 4),
         9: (5, 10, 4, 9, 3, 8, 2, 7, 1, 6),
         10: (10, 9, 8, 7, 6, 5, 4, 3, 2, 1)},
}

APPENDIX_DELTAS = {
    1: {1}, 2: {1, 2}, 3: {1, 3}, 4: {1, 2, 4}, 5: {1, 5}, 6: {1, 2, 3, 6},
    7: {1, 7}, 8: {1, 2, 4, 8}, 9: {1, 3, 9}, 10: {1, 2, 5, 10},
}


def test_criterion_08_toric_number_theory(capfd):
    t0 = time.perf_counter()
    problems = []
    for n in range(1, 9):
        res = class_avoiders([TOTIENT_PATTERN], "toric", n, want_members=True)
        want = {w.word for w in natural_perms(n)}
        if set(res.members) != want or res.count != totient(n + 1):
            problems.append(f"totient members n={n}")
    for n in range(1, 11):
        res = class_avoiders([DIVISOR_PATTERN], "toric", n, want_members=True,
                             budget=10)
        want = {w.word for w in divisor_perms(n)}
        if set(res.members) != want or res.count != len(divisors(n)):
            problems.append(f"divisor members n={n}")
    for n, rows in APPENDIX_ROWS.items():
        got = {w.k: w.word for w in natural_perms(n)}
        if got != rows:
            problems.append(f"appendix words n={n}")
        deltas = {w.k for w in natural_perms(n) if w.is_divisor_word}
        if deltas != APPENDIX_DELTAS[n]:
            problems.append(f"appendix divisor flags n={n}")
    sieve = sieve_sigma(100000)
    bad_sigma = sum(1 for n in range(1, 100001) if sigma_arith(n) != sieve[n])
    if bad_sigma:
        problems.append(f"{bad_sigma} sigma mismatches below 1e5")
    if robin_check(5040).holds is not False:
        problems.append("bound should fail at 5040")
    tail = [r for r in robin_range(5041, 6000) if r.holds is not True]
    if tail:
        problems.append(f"bound should hold on 5041..6000, {len(tail)} exceptions")
    elapsed = time.perf_counter() - t0
    ok = not problems
    report(capfd, 8, ok,
           f"totient members n<=8, divisor members n<=10, appendix tables "
           f"S1..S10 verbatim, sigma agreement to 1e5, divisor-sum bound "
           f"fails at 5040 and holds to 6000 ({elapsed:.1f}s)"
           if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_09_shift_wilf_equivalence(capfd, avoid_masks):
    eligible = []
    for k in (1, 2, 3):
        for pat in all_patterns(k):
            if k in pat.y:
                eligible.append(pat)
    problems = []
    if len(eligible) != 840:
        problems.append(f"expected 840 eligible patterns, found {len(eligible)}")
    bad_pairs = 0
    for pat in eligible:
        shifted = pat_shift(pat)
        for n in range(1, 7):
            if avoid_masks[pat][n].bit_count() != avoid_masks[shifted][n].bit_count():
                bad_pairs += 1
                break
    if bad_pairs:
        problems.append(f"{bad_pairs} patterns break shift invariance")
    c1 = len(avoid_all([pattern((1, 3, 2, 4), x=[2])], 6))
    c2 = len(avoid_all([pattern((1, 2, 4, 3), x=[3])], 6))
    if (c1, c2) != (549, 550):
        problems.append(f"position-anchored counterexample: {c1} vs {c2}")
    ok = not problems
    report(capfd, 9, ok,
           "840 rank-in-Y patterns keep |A_n| under the shift for n<=6; "
           "without the hypothesis: 549 vs 550 at n=6" if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_10_symmetry_invariance(capfd, avoid_masks, class_masks):
    pats = [p for p in avoid_masks if len(p.p) == 3]
    problems = []
    for rel_name, rel in RELATIONS.items():
        counts = {}
        for pat in pats:
            row = []
            for n in range(1, 7):
                mask = avoid_masks[pat][n]
                row.append(sum(cls.bit_count() for cls in class_masks(rel_name, n)
                               if cls & mask == cls))
            counts[pat] = tuple(row)
        broken = sum(
            1 for pat in pats
            if any(counts[apply_symmetry(pat, ops)] != counts[pat]
                   for ops in rel.symmetries)
        )
        if broken:
            problems.append(f"{rel_name}: {broken} patterns vary over their orbit")
    orbit_count = survey("toric", 3, n_range=range(1, 3)).orbit_count
    if orbit_count != 212:
        problems.append(f"toric survey orbits: {orbit_count}")
    ok = not problems
    report(capfd, 10, ok,
           "class-closed counts constant on symmetry orbits for all five "
           "relations (1536 patterns, n<=6); toric survey folds 1536 -> 212"
           if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_11_descent_avoidance(capfd):
    p321 = pattern((3, 2, 1))
    problems = []
    counts = [class_avoiders([p321], "descent", n).count for n in range(1, 8)]
    if counts != [2 ** n - n for n in range(1, 8)]:
        problems.append(f"counts: {counts}")
    for n in range(1, 8):
        got = set(class_avoiders([p321], "descent", n, want_members=True).members)
        want = {w for w in s_n(n) if len(descent_set(w)) <= 1}
        if got != want:
            problems.append(f"members n={n}")
    ok = not problems
    report(capfd, 11, ok,
           "descent classes avoiding 321: 2^n - n for n=1..7, members are "
           "the at-most-one-descent permutations" if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_12_structural_invariants(capfd):
    problems = []
    bad_rt = sum(1 for w in s_n(6) if inverse_rsk(*rsk(w)) != w)
    if bad_rt:
        problems.append(f"{bad_rt} insertion roundtrip failures on S6")
    by_p = {}
    for w in PERMS_BY_N[5]:
        by_p.setdefault(rsk(w)[0], set()).add(w)
    if any(knuth_class(w) != frozenset(by_p[rsk(w)[0]]) for w in PERMS_BY_N[5]):
        problems.append("move closure differs from equal-insertion partition on S5")
    for n in range(0, 6):
        m = n + 1
        for w in PERMS_BY_N[n]:
            if oplus(w, 0) != w:
                problems.append(f"shift by 0 moved {w}")
            for a in range(m):
                for b in range(m):
                    if oplus(oplus(w, a), b) != oplus(w, (a + b) % m):
                        problems.append(f"shift action broken at {w}")
    codes = PatternCodes(3)
    if codes.count != 1536:
        problems.append(f"{codes.count} length-3 pattern codes")
    for op in "rci":
        perm_of, pair_of = codes.parts(op)
        images = [a * codes.side ** 2 + bc for a in perm_of for bc in pair_of]
        for code in range(codes.count):
            if images[images[code]] != code:
                problems.append(f"{op} not involutive on {codes.pattern(code)}")
    for rel in RELATIONS.values():
        for n in range(1, 7):
            hist = census(rel, n).by_size
            if sum(size * count for size, count in hist.items()) != math.factorial(n):
                problems.append(f"{rel.name} census total n={n}")
    ok = not problems
    report(capfd, 12, ok,
           "insertion roundtrip on S6, move closure = equal-insertion classes "
           "on S5, cyclic shift is a group action, r, c and i are involutions "
           "on the 1536 length-3 pattern codes, every census covers n!" if ok else "; ".join(problems[:4]))
    assert ok, problems
