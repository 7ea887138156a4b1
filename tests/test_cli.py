"""Command-line surface: verbs, emit formats, exit codes, determinism."""

import gc
import json

import pytest

from permlab import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_err(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_text_single_degree(self, capsys):
        code, out = run(capsys, "enumerate", "--mode", "class-avoid",
                        "--pattern", "231", "--relation", "knuth", "--n", "6")
        assert code == 0
        assert out == "n=6 count=32 class_count=6\n"

    def test_members_listing(self, capsys):
        code, out = run(capsys, "enumerate", "--mode", "class-avoid",
                        "--pattern", "231", "--relation", "knuth", "--n", "3",
                        "--members")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n=3 count=4 class_count=3"
        assert lines[1:] == ["  123", "  132", "  312", "  321"]

    def test_json_range(self, capsys):
        code, out = run(capsys, "enumerate", "--mode", "class-avoid",
                        "--pattern", "1;x=0;y=0", "--relation", "conjugacy",
                        "--n", "1..5", "--emit", "json")
        assert code == 0
        payload = json.loads(out)
        assert [r["count"] for r in payload["results"]] == [0, 1, 2, 9, 44]

    def test_csv_range(self, capsys):
        code, out = run(capsys, "enumerate", "--mode", "avoid",
                        "--pattern", "231", "--relation", "none",
                        "--n", "1..6", "--emit", "csv")
        assert code == 0
        assert out.splitlines() == [
            "n,count", "1,1", "2,2", "3,5", "4,14", "5,42", "6,132"]

    def test_multiple_patterns(self, capsys):
        code, out = run(capsys, "enumerate", "--mode", "avoid",
                        "--pattern", "231", "--pattern", "213",
                        "--relation", "none", "--n", "5")
        assert code == 0
        assert "count=16" in out

    def test_class_match(self, capsys):
        code, out = run(capsys, "enumerate", "--mode", "class-match",
                        "--pattern", "12;x=0;y=1,2", "--relation", "knuth",
                        "--n", "5")
        assert code == 0
        assert "count=14" in out

    def test_threads_do_not_change_output(self, capsys):
        argv = ("enumerate", "--mode", "class-avoid", "--pattern", "231",
                "--relation", "knuth", "--n", "1..6", "--emit", "csv")
        _, out1 = run(capsys, *argv, "--threads", "1")
        _, out4 = run(capsys, *argv, "--threads", "4")
        assert out1 == out4

    def test_mode_relation_mismatch(self, capsys):
        code, _ = run(capsys, "enumerate", "--mode", "avoid",
                      "--pattern", "231", "--relation", "knuth", "--n", "4")
        assert code == 2
        code, _ = run(capsys, "enumerate", "--mode", "class-avoid",
                      "--pattern", "231", "--relation", "none", "--n", "4")
        assert code == 2

    def test_bad_pattern_text(self, capsys):
        code, _ = run(capsys, "enumerate", "--mode", "avoid",
                      "--pattern", "231;z=1", "--relation", "none", "--n", "4")
        assert code == 2

    def test_bad_n_spec(self, capsys):
        code, _ = run(capsys, "enumerate", "--mode", "avoid",
                      "--pattern", "231", "--relation", "none", "--n", "4..")
        assert code == 2

    def test_budget_exceeded(self, capsys):
        code, _ = run(capsys, "enumerate", "--mode", "avoid",
                      "--pattern", "231", "--relation", "none",
                      "--n", "12", "--budget-n", "6")
        assert code == 3

    def test_negative_degree(self, capsys):
        code, out, err = run_err(capsys, "enumerate", "--mode", "avoid",
                                 "--pattern", "231", "--relation", "none", "--n", "-1")
        assert code == 2
        assert out == ""
        assert err == "permlab: degree -1 is negative\n"

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one(self, capsys, threads):
        code, out, err = run_err(capsys, "enumerate", "--mode", "avoid",
                                 "--pattern", "231", "--relation", "none", "--n", "4",
                                 "--threads", threads)
        assert code == 2
        assert out == ""
        assert err == f"permlab: --threads must be at least 1, not {threads}\n"


class TestBudgetArgument:
    def test_negative_rejected_before_any_work(self, capsys):
        code, out, err = run_err(capsys, "enumerate", "--mode", "avoid", "--pattern", "1",
                                 "--relation", "none", "--n", "3", "--budget-n", "-1")
        assert (code, out) == (2, "")
        assert err == "permlab: degree budget -1 from --budget-n is negative\n"

    def test_negative_rejected_where_no_budget_applies(self, capsys):
        code, out, err = run_err(capsys, "classes", "--relation", "conjugacy", "--n", "5",
                                 "--budget-n", "-5")
        assert (code, out) == (2, "")
        assert err == "permlab: degree budget -5 from --budget-n is negative\n"

    @pytest.mark.parametrize("text, problem", [
        ("abc", "'abc' from PERMLAB_BUDGET_N is not an integer"),
        ("2.5", "'2.5' from PERMLAB_BUDGET_N is not an integer"),
        ("-2", "-2 from PERMLAB_BUDGET_N is negative"),
    ])
    def test_bad_env_var(self, capsys, monkeypatch, text, problem):
        monkeypatch.setenv("PERMLAB_BUDGET_N", text)
        code, out, err = run_err(capsys, "classes", "--relation", "toric", "--n", "3")
        assert (code, out) == (2, "")
        assert err == f"permlab: degree budget {problem}\n"

    def test_argument_overrides_bad_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("PERMLAB_BUDGET_N", "abc")
        assert run(capsys, "classes", "--relation", "toric", "--n", "3",
                   "--budget-n", "3") == (0, "classes 3\n")


class TestClasses:
    def test_text_sizes(self, capsys):
        code, out = run(capsys, "classes", "--relation", "toric", "--n", "5",
                        "--sizes")
        assert code == 0
        assert out.splitlines() == ["1 2", "2 2", "3 2", "6 18", "classes 24"]

    def test_json(self, capsys):
        code, out = run(capsys, "classes", "--relation", "conjugacy", "--n", "5",
                        "--emit", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["class_count"] == 7
        assert payload["by_size"]["1"] == 1

    def test_csv(self, capsys):
        code, out = run(capsys, "classes", "--relation", "descent", "--n", "3",
                        "--emit", "csv")
        assert code == 0
        assert out.splitlines()[0] == "size,count"

    def test_negative_degree(self, capsys):
        code, out, err = run_err(capsys, "classes", "--relation", "conjugacy", "--n", "-1")
        assert code == 2
        assert out == ""
        assert err == "permlab: degree -1 is negative\n"

    def test_partition_censuses_ignore_budget(self, capsys):
        for rel, want in (("conjugacy", 77), ("order", 23), ("knuth", 140152)):
            code, out = run(capsys, "classes", "--relation", rel, "--n", "12")
            assert (code, out) == (0, f"classes {want}\n"), rel
        for rel in ("toric", "descent"):
            code, _ = run(capsys, "classes", "--relation", rel, "--n", "12")
            assert code == 3, rel


class TestSurvey:
    def test_text_header(self, capsys):
        code, out = run(capsys, "survey", "--relation", "toric", "--length", "2",
                        "--n-max", "3")
        assert code == 0
        first = out.splitlines()[0]
        assert first == "toric: 128 patterns, 24 orbits"

    def test_csv_shape(self, capsys):
        code, out = run(capsys, "survey", "--relation", "descent", "--length", "1",
                        "--n-max", "2", "--emit", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "pattern,orbit_size,n1,n2,tables"
        assert len(lines) > 1

    def test_n_max_below_one(self, capsys):
        code, out, err = run_err(capsys, "survey", "--relation", "toric", "--length", "2",
                                 "--n-max", "-1")
        assert (code, out) == (2, "")
        assert err == "permlab: --n-max must be at least 1, not -1\n"

    def test_merge_shift_needs_toric(self, capsys):
        argv = ("survey", "--length", "2", "--n-max", "3", "--merge-shift")
        code, out = run(capsys, *argv, "--relation", "toric")
        assert (code, out.splitlines()[0]) == (0, "toric: 128 patterns, 16 orbits")
        code, out, err = run_err(capsys, *argv, "--relation", "knuth")
        assert (code, out) == (2, "")
        assert err == ("permlab: the shift preserves class-closed counts only under toric "
                       "equivalence, so rows cannot be merged along it under knuth\n")

    @pytest.mark.parametrize("length", ["-1", "-2"])
    def test_negative_length(self, capsys, length):
        code, out, err = run_err(capsys, "survey", "--relation", "toric", "--length", length)
        assert (code, out) == (2, "")
        assert err == f"permlab: pattern length must be at least 0, not {length}\n"


class TestStable:
    def test_stable_text(self, capsys):
        code, out = run(capsys, "stable", "--relation", "knuth",
                        "--pattern", "231", "--n-max", "6")
        assert code == 0
        assert "stable through n=6" in out

    def test_unstable_text(self, capsys):
        code, out = run(capsys, "stable", "--relation", "knuth",
                        "--pattern", "123;x=1,2;y=", "--n-max", "6")
        assert code == 0
        assert "unstable at n=4: witness 1324" in out

    def test_json(self, capsys):
        code, out = run(capsys, "stable", "--relation", "toric",
                        "--pattern", "21", "--n-max", "4", "--emit", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["relation"] == "toric"
        assert "stable" in payload

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_n_max_below_one(self, capsys, n_max):
        code, out, err = run_err(capsys, "stable", "--relation", "knuth",
                                 "--pattern", "231", "--n-max", n_max)
        assert (code, out) == (2, "")
        assert err == f"permlab: --n-max must be at least 1, not {n_max}\n"

    def test_relation_choices_act_on_patterns(self):
        from permlab.relations import RELATIONS

        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        action = next(a for a in sub.choices["stable"]._actions if a.dest == "relation")
        assert list(action.choices) == sorted(
            name for name, rel in RELATIONS.items() if rel.pattern_class)


class TestRsk:
    def test_text(self, capsys):
        code, out = run(capsys, "rsk", "--perm", "241635")
        assert code == 0
        assert out == "1 3 5\n2 4 6\n\n1 2 4\n3 5 6\n"

    def test_json(self, capsys):
        code, out = run(capsys, "rsk", "--perm", "2413", "--emit", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["P"] == [[1, 3], [2, 4]]
        assert payload["Q"] == [[1, 2], [3, 4]]

    def test_bad_perm(self, capsys):
        code, _ = run(capsys, "rsk", "--perm", "122")
        assert code == 2


class TestNatural:
    def test_text(self, capsys):
        code, out = run(capsys, "natural", "--n", "4")
        assert code == 0
        assert out.splitlines() == [
            "nu_{1,4} = 1234 = delta_{1|4}",
            "nu_{2,4} = 3142 = delta_{2|4}",
            "nu_{3,4} = 2413",
            "nu_{4,4} = 4321 = delta_{4|4}",
        ]

    def test_json(self, capsys):
        code, out = run(capsys, "natural", "--n", "6", "--emit", "json")
        assert code == 0
        payload = json.loads(out)
        assert [row["k"] for row in payload] == [1, 2, 3, 4, 5, 6]
        assert payload[2]["word"] == "531642"
        assert payload[2]["divisor"] is True

    def test_negative_degree(self, capsys):
        code, out, err = run_err(capsys, "natural", "--n", "-1")
        assert (code, out) == (2, "")
        assert err == "permlab: degree -1 is negative\n"


class TestSigma:
    def test_three_routes_agree(self, capsys):
        values = []
        for via in ("perms", "arith", "avoiders"):
            code, out = run(capsys, "sigma", "--n", "8", "--via", via)
            assert code == 0
            values.append(out)
        assert values[0] == values[1] == values[2] == "sigma(8) = 15\n"

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_avoiders_below_one(self, capsys, n):
        for via in ("avoiders", "arith", "perms"):
            code, out, err = run_err(capsys, "sigma", "--n", n, "--via", via)
            assert (code, out, err) == (2, "", "permlab: n must be a positive integer\n"), via

    def test_json(self, capsys):
        code, out = run(capsys, "sigma", "--n", "12", "--via", "arith",
                        "--emit", "json")
        assert code == 0
        assert json.loads(out) == {"n": 12, "via": "arith", "sigma": 28}


class TestRobin:
    def test_text_verdicts(self, capsys):
        code, out = run(capsys, "robin", "--from", "5040", "--to", "5041")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n=5040 sigma=19344 ")
        assert lines[0].endswith("violated")
        assert lines[1].endswith("holds")

    def test_csv_header(self, capsys):
        code, out = run(capsys, "robin", "--from", "10", "--to", "12",
                        "--emit", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,sigma,bound,holds,inconclusive"

    def test_reversed_range(self, capsys):
        code, _ = run(capsys, "robin", "--from", "20", "--to", "10")
        assert code == 2

    def test_below_domain(self, capsys):
        code, _ = run(capsys, "robin", "--from", "1", "--to", "5")
        assert code == 2


class TestSeqCheck:
    def test_ok_run(self, capsys):
        code, out = run(capsys, "seq-check", "--id", "A000124",
                        "--budget-n", "5")
        assert code == 0
        lines = out.splitlines()
        assert "n=1 expected=1 computed=1 ok" in lines
        assert "n=9 expected=37 skipped" in lines
        assert lines[-1] == "ok"

    def test_unknown_id(self, capsys):
        code, _ = run(capsys, "seq-check", "--id", "A999999")
        assert code == 2

    def test_every_degree_over_budget(self, capsys):
        code, out, err = run_err(capsys, "seq-check", "--id", "A000124", "--budget-n", "0")
        assert code == 3
        assert out == ""
        assert err.startswith("permlab: ")
        assert "budget 0" in err

    def test_json(self, capsys):
        code, out = run(capsys, "seq-check", "--id", "A000085",
                        "--budget-n", "4", "--emit", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["skipped"] == [5, 6, 7, 8, 9]

    @pytest.fixture
    def wrong_row(self, monkeypatch):
        """A000124 with its n=3 value off by one."""
        from permlab.catalog import SEQUENCE_TABLES, SequenceTable

        row = SEQUENCE_TABLES["A000124"]
        values = row.values[:2] + (row.values[2] + 1,) + row.values[3:]
        monkeypatch.setitem(SEQUENCE_TABLES, "A000124",
                            SequenceTable(row.id, row.start, values, row.source))

    def test_mismatch_exits_1(self, capsys, wrong_row):
        code, out = run(capsys, "seq-check", "--id", "A000124", "--budget-n", "5")
        assert code == 1
        lines = out.splitlines()
        assert lines[2] == "n=3 expected=5 computed=4 MISMATCH"
        assert lines[-1] == "MISMATCH"

    def test_mismatch_json(self, capsys, wrong_row):
        code, out = run(capsys, "seq-check", "--id", "A000124", "--budget-n", "5",
                        "--emit", "json")
        assert code == 1
        assert json.loads(out)["ok"] is False


class TestRepeatedCalls:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_reference_cycles(self, capsys):
        argv = ["classes", "--relation", "toric", "--n", "4"]
        run(capsys, *argv)
        gc.collect()
        gc.disable()
        try:
            assert run(capsys, *argv) == (0, "classes 8\n")
            assert gc.collect() == 0
        finally:
            gc.enable()
