"""Catalog rows checked against direct enumeration, families against oracles."""

import math

from permlab.catalog import (
    CATALOG,
    FPF_INVOLUTION_PATTERN,
    SEQUENCE_TABLES,
    SequenceTable,
    bounded_cycle_pattern,
    k_cycle_pattern,
    match_tables,
)
from permlab.census import avoid_all, class_avoiders, class_matchers
from permlab.core import cycle_type, identity, s_n
from permlab.pattern import pattern
from conftest import lis_length


def _entry(name):
    return next(e for e in CATALOG if e.name == name)


class TestCatalogRows:
    def test_every_row_matches_enumeration(self):
        for entry in CATALOG:
            table = SEQUENCE_TABLES[entry.table] if entry.table else None
            for n in range(1, 7):
                if entry.mode == "class-avoid":
                    got = class_avoiders([entry.pat], entry.relation, n).count
                else:
                    got = class_matchers([entry.pat], entry.relation, n).count
                if table is not None:
                    want = table.value_at(n)
                    if want is not None:
                        assert got == want, (entry.name, n, got, want)

    def test_totient_and_divisor_rows(self):
        from permlab.arith import divisors, totient

        tot = _entry("totient")
        div = _entry("divisors")
        for n in range(1, 8):
            assert class_avoiders([tot.pat], "toric", n).count == totient(n + 1)
            assert class_avoiders([div.pat], "toric", n).count == len(divisors(n))

    def test_table_ids_resolve(self):
        for entry in CATALOG:
            if entry.table is not None:
                assert entry.table in SEQUENCE_TABLES


class TestCycleFamilies:
    def test_k_cycle_members(self):
        # A conjugacy class avoids the k-cycle pattern iff no cycle has
        # length exactly k.
        for k in range(1, 5):
            pat = k_cycle_pattern(k)
            for n in range(1, 7):
                res = class_avoiders([pat], "conjugacy", n, want_members=True)
                want = {w for w in s_n(n) if k not in cycle_type(w)}
                assert set(res.members) == want, (k, n)

    def test_bounded_cycle_members(self):
        # A conjugacy class avoids the bounded pattern iff every cycle is
        # shorter than k.
        for k in range(2, 5):
            pat = bounded_cycle_pattern(k)
            for n in range(1, 7):
                res = class_avoiders([pat], "conjugacy", n, want_members=True)
                want = {w for w in s_n(n) if all(c < k for c in cycle_type(w))}
                assert set(res.members) == want, (k, n)

    def test_derangement_row(self):
        pat = k_cycle_pattern(1)
        got = [class_avoiders([pat], "conjugacy", n).count for n in range(1, 8)]
        assert got == [0, 1, 2, 9, 44, 265, 1854]

    def test_involution_row(self):
        pat = bounded_cycle_pattern(3)
        got = [class_avoiders([pat], "conjugacy", n).count for n in range(1, 8)]
        assert got == [1, 2, 4, 10, 26, 76, 232]


class TestRunFamilies:
    def test_classical_run_equals_lis_bound(self):
        for k in range(1, 5):
            pat = pattern(identity(k))
            for n in range(0, 7):
                got = len(avoid_all([pat], n))
                want = sum(1 for w in s_n(n) if lis_length(w) < k)
                assert got == want, (k, n)

    def test_classical_catalan(self):
        pat = pattern(identity(3))
        got = [len(avoid_all([pat], n)) for n in range(1, 8)]
        assert got == [1, 2, 5, 14, 42, 132, 429]

    def test_vincular_run_counts_ascending_runs(self):
        # (12..k, {1..k-1}, {}) matches on a run of k consecutive positions
        # in increasing order.
        for k in (2, 3):
            pat = pattern(identity(k), x=range(1, k))
            for n in range(1, 7):
                got = avoid_all([pat], n)
                want = [
                    w for w in s_n(n)
                    if not any(
                        all(w[i + j] < w[i + j + 1] for j in range(k - 1))
                        for i in range(n - k + 1))
                ]
                assert got == want, (k, n)

    def test_value_run_counts_value_runs(self):
        # (12..k, {}, {1..k-1}) matches on k consecutive values appearing in
        # increasing position order.
        for k in (2, 3):
            pat = pattern(identity(k), y=range(1, k))
            for n in range(1, 7):
                got = avoid_all([pat], n)
                want = [
                    w for w in s_n(n)
                    if not any(
                        all(w.index(v + j) < w.index(v + j + 1) for j in range(k - 1))
                        for v in range(1, n - k + 2))
                ]
                assert got == want, (k, n)

    def test_value_run_classes_are_plain_avoiders(self):
        # Knuth class-avoiders of the value-run pattern coincide with its
        # plain avoiders at every checked degree: avoidance is constant on
        # Knuth classes for this family.
        for k in (3, 4):
            pat = pattern(identity(k), y=range(1, k))
            for n in range(1, 7):
                a = avoid_all([pat], n)
                b = class_avoiders([pat], "knuth", n, want_members=True).members
                assert sorted(a) == sorted(b), (k, n)

    def test_anchored_run_census_report(self):
        # Empirical comparison only: the anchored count appears to equal
        # n! - n!/k!, but no proof is embedded, so the row is printed for
        # inspection rather than asserted.
        lines = []
        for k in (2, 3):
            pat = pattern(identity(k), y=range(k))
            for n in range(1, 7):
                got = len(avoid_all([pat], n))
                guess = math.factorial(n) - math.factorial(n) // math.factorial(k) if n >= k else 0
                lines.append(f"k={k} n={n} enumerated={got} conjectured={guess}")
        print("\n".join(lines))


class TestFpfInvolutions:
    def test_even_degree_formula(self):
        # At even n the class-avoiders are the fixed-point-free involutions
        # plus the identity: (n-1)!! + 1 of them.
        for n in (2, 4, 6):
            got = class_avoiders([FPF_INVOLUTION_PATTERN], "conjugacy", n).count
            dfac = math.prod(range(n - 1, 0, -2))
            assert got == dfac + 1

    def test_degree_three_exception(self):
        # Odd degrees generically give just the identity class, but n = 3
        # gives 3: both 3-cycles also avoid.
        row = [class_avoiders([FPF_INVOLUTION_PATTERN], "conjugacy", n).count
               for n in range(1, 8)]
        assert row == [1, 2, 3, 4, 1, 16, 1]


class TestTables:
    def test_value_at(self):
        t = SEQUENCE_TABLES["A000108"]
        assert t.start == 2
        assert t.value_at(2) == 1
        assert t.value_at(7) == 132
        assert t.value_at(1) is None
        assert t.value_at(99) is None

    def test_match_tables_finds_derangements(self):
        assert "A000166" in match_tables({1: 0, 2: 1, 3: 2, 4: 9})

    def test_match_tables_requires_overlap(self):
        assert match_tables({1: 0, 2: 1}) == []

    def test_match_tables_rejects_mismatch(self):
        assert "A000166" not in match_tables({1: 0, 2: 1, 3: 2, 4: 10})

    def test_tables_internally_consistent(self):
        for t in SEQUENCE_TABLES.values():
            assert isinstance(t, SequenceTable)
            assert t.values
            assert t.start >= 0
