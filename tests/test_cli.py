"""Command-line surface: verbs, emit formats, exit codes, determinism."""

import gc
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import permlab
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


class TestPlainEnumerateGolden:
    """Plain `enumerate` (`--relation none`) on one pattern of each kind of
    kernel plan: those the CI step compiles under -W error."""

    EMITS = {"text": [], "json": ["--emit", "json"], "csv": ["--emit", "csv"]}

    # sha256 of the transcript of `enumerate --mode MODE --relation none
    # --pattern PAT --n N [--members] [EMIT flags]` for N = 0..8, each run
    # read as "n=N exit=CODE\n" and its stdout, frozen from the walk that
    # built every kept word also when only counts were printed.
    GOLDEN = [
        ("2413", "avoid", False, "text", "eb225b746cd3bfb19e2bf1ad393485b43e1e47f5cb63ce5d0251850853d7c85b"),
        ("2413", "avoid", False, "json", "1a49ec23ee89c3c129b13ff46992a54bb09bf2e31fde9f1df14fa0564a5f5fcd"),
        ("2413", "avoid", False, "csv", "437e77014302f3b57aa9864685e2fd5a6422208db206a36d9c7494df0fbb5c1e"),
        ("2413", "avoid", True, "text", "2c198905b3056a28d88b90ec3d18f617cf27e117d2d53dff5ef84929bbc9fbc2"),
        ("2413", "avoid", True, "json", "d8e8633a597639bbf00403e9e82d7f547400e85ef8103464d468b1a57c962bee"),
        ("2413", "avoid", True, "csv", "437e77014302f3b57aa9864685e2fd5a6422208db206a36d9c7494df0fbb5c1e"),
        ("2413", "class-match", False, "text", "1787571042022b1dbad0bf641289a3a058661fc20c2dcad84af199e636299eb8"),
        ("2413", "class-match", False, "json", "e93230e0ce6102010bd11c8eae9fd476de57a0deb8489d4d67f7d3e00c85eca4"),
        ("2413", "class-match", False, "csv", "735d6347027f35432745929714c9023f6832ec28ab4fce982b037dadeeea2999"),
        ("2413", "class-match", True, "text", "66baa958dc20e5696408454f635ebef6f531e579cfa4c308e3e3c361604c7700"),
        ("2413", "class-match", True, "json", "72671844c3d5a36d91f5a7c14ca08b4d3a3db03422480e9f2cbccbeade900ba9"),
        ("2413", "class-match", True, "csv", "735d6347027f35432745929714c9023f6832ec28ab4fce982b037dadeeea2999"),
        ("213;y=1", "avoid", False, "text", "51ac27f3daffcfbf80b76c08d082cb61a3d727c83196f00059d02bb94c3ac86f"),
        ("213;y=1", "avoid", False, "json", "3262a5cbcfdc844d86d3438b61cf469cabdeecfe20a7c144eb571ec5f823a29a"),
        ("213;y=1", "avoid", False, "csv", "cd8ff083977c1e9c58ffd974b8c3cd7594e75d8872d1d8afcc99ddf2a15c2dea"),
        ("213;y=1", "avoid", True, "text", "a33db3ddf9b11bb6400f8b3c4917a04c233ddd8312f3d89cc95afc7cb9b47ef6"),
        ("213;y=1", "avoid", True, "json", "ae3ae321484724dcf9fb5f3fd5dd40bba9624a1f476d6812e0bffbf821ce71e9"),
        ("213;y=1", "avoid", True, "csv", "cd8ff083977c1e9c58ffd974b8c3cd7594e75d8872d1d8afcc99ddf2a15c2dea"),
        ("213;y=1", "class-match", False, "text", "fff79ffcec8b90e99e5dd38518ca867bdaa9f2f81037c217273184208c06ce26"),
        ("213;y=1", "class-match", False, "json", "9c0dc15ab2d5f134aaa132913c16667a8852e9f37c65dfbde9a953d2be87af56"),
        ("213;y=1", "class-match", False, "csv", "ecc36c69876e17bc214ad79b9d95faa42e4063d01b96eb4bb713e0d62993ff0f"),
        ("213;y=1", "class-match", True, "text", "966ab76b093db10c0788ff04afa1f3d1af9b1cad5d4eb2cf844e17d2c7fb1a65"),
        ("213;y=1", "class-match", True, "json", "ab15cf11a7d538371e2bd201503194d3b5be3b416eb4d6437dd123647424af4f"),
        ("213;y=1", "class-match", True, "csv", "ecc36c69876e17bc214ad79b9d95faa42e4063d01b96eb4bb713e0d62993ff0f"),
        ("231;y=0", "avoid", False, "text", "b935dcc96ad29d304ba7b6e62576ca20ab683945ea4e16a766aefe62e5cfeb09"),
        ("231;y=0", "avoid", False, "json", "b2b771eefee83106e9b72f21ab9a56be8b68e8669d9957caba98c594e7dccaf5"),
        ("231;y=0", "avoid", False, "csv", "a409b8953cf19d098d4f3ab3ca6ea47ab3d45810c750cc9b33100c61bb998318"),
        ("231;y=0", "avoid", True, "text", "583d6ba11b74eb32d70b79a43a43487fbe4e3df25f3df211d8efdf259f6c4383"),
        ("231;y=0", "avoid", True, "json", "8e6a77d6933ab6f510ae41db74251a74daef915d6a1899bfdafaa314c8685304"),
        ("231;y=0", "avoid", True, "csv", "a409b8953cf19d098d4f3ab3ca6ea47ab3d45810c750cc9b33100c61bb998318"),
        ("231;y=0", "class-match", False, "text", "df67c3331428efcb2bdd4545a3892fdf1f1e6a6528f1ac1cbb3f90ae9bad9ea9"),
        ("231;y=0", "class-match", False, "json", "2bdd30a62e314e11853ab30eb8d1b555da7b1ebcc17eb990ae2ae28face9841b"),
        ("231;y=0", "class-match", False, "csv", "f4fc09f6e0250109dece688bea49722e2f7526557e337a512dfb81221d7325b6"),
        ("231;y=0", "class-match", True, "text", "204b39093cb8f0fa3c3961a053ba07650d40cd23dd060cc7fdf405d59c063938"),
        ("231;y=0", "class-match", True, "json", "f09b7b447c5cf4c4eb2fa8d88654b99536d7a0fa320de0d7434bcdb628da3cf7"),
        ("231;y=0", "class-match", True, "csv", "f4fc09f6e0250109dece688bea49722e2f7526557e337a512dfb81221d7325b6"),
        ("132;x=3;y=1,2,3", "avoid", False, "text", "3639ab8a562ca1c05a6172c2c2eea409247da064e0d7974f363032e0192c0979"),
        ("132;x=3;y=1,2,3", "avoid", False, "json", "fd9fb791e5ccdffd2556c5d89d2cdd399cf9f47f511bfd4a7f3b15e665ba99df"),
        ("132;x=3;y=1,2,3", "avoid", False, "csv", "e36094ca8b0dcbff94768991e242dab0833e420a3a396eb4fb2e9fcd2ab7140f"),
        ("132;x=3;y=1,2,3", "avoid", True, "text", "164398ee0539aaa6d70674e69dabfac66fd28cb83459a9cda254378b471d530e"),
        ("132;x=3;y=1,2,3", "avoid", True, "json", "db88730a069f48eb4006d292617ec2532fa989d5bd314d2231899cb79ae72968"),
        ("132;x=3;y=1,2,3", "avoid", True, "csv", "e36094ca8b0dcbff94768991e242dab0833e420a3a396eb4fb2e9fcd2ab7140f"),
        ("132;x=3;y=1,2,3", "class-match", False, "text", "ca2be77a03f413db47c736eb418bbc7147fb00c9e91ddfed6d0c616d8a84cd53"),
        ("132;x=3;y=1,2,3", "class-match", False, "json", "42138c7f25818751295506fb1392f4e77820b6b38e0f022467e4093492a83c96"),
        ("132;x=3;y=1,2,3", "class-match", False, "csv", "2f2f563842f26423a551e87fdfc08409728dffef524374e92e7bd9aac2570cfe"),
        ("132;x=3;y=1,2,3", "class-match", True, "text", "f50815a24024fd775b9772bc0e711452fdf9292e7484262e4a493c51180ab90f"),
        ("132;x=3;y=1,2,3", "class-match", True, "json", "2088915bf0b0b19069f25352bc4d73472432e960ec634b41489051de01f7f2e7"),
        ("132;x=3;y=1,2,3", "class-match", True, "csv", "2f2f563842f26423a551e87fdfc08409728dffef524374e92e7bd9aac2570cfe"),
        ("21;x=1;y=0,2", "avoid", False, "text", "301d4e26005f9e2f9e77b1b1ee48df7cb0942245d306f59d8c7044908c271a65"),
        ("21;x=1;y=0,2", "avoid", False, "json", "555522f56c08de46183640f43e3ac727caf226f2b71de65107a2384d396a0674"),
        ("21;x=1;y=0,2", "avoid", False, "csv", "d005070febefbd7edd06506bf0c96e4c530ba3114be820153d463aa59013be13"),
        ("21;x=1;y=0,2", "avoid", True, "text", "5896205a6ec5c932143bbf8f3ad86928ca7d497dd810fafac1fe284a3aafafd5"),
        ("21;x=1;y=0,2", "avoid", True, "json", "1cca645b65b9842fb85133adeb82447a34d5c30f73d2b2d00d2b7ddc42d6dbd4"),
        ("21;x=1;y=0,2", "avoid", True, "csv", "d005070febefbd7edd06506bf0c96e4c530ba3114be820153d463aa59013be13"),
        ("21;x=1;y=0,2", "class-match", False, "text", "ba5f25d1b1bf8fd7d9c89cde36e35252138e30bcdcd51679b6c419469fc28073"),
        ("21;x=1;y=0,2", "class-match", False, "json", "4f6aa657fb5d0ea815d01b970507c616173c3def07f6540d3836c08b340f2a41"),
        ("21;x=1;y=0,2", "class-match", False, "csv", "9010478a5a25279102c8d1fe23fb6f1ff407f380cde0778043ab2130d557c7bf"),
        ("21;x=1;y=0,2", "class-match", True, "text", "00013299f41387637bbb051649a9b32d565ff962bfc42a6f83e9e422540a4431"),
        ("21;x=1;y=0,2", "class-match", True, "json", "d283b965502c75911f1b387e12a5a0ee403a9e31ab751942213cb05fc1485791"),
        ("21;x=1;y=0,2", "class-match", True, "csv", "9010478a5a25279102c8d1fe23fb6f1ff407f380cde0778043ab2130d557c7bf"),
        ("231;x=0,1;y=0,1,2", "avoid", False, "text", "46305a5f6a4b50f463d636f6c089e9e2a29d9c3ff074bf3e2bae4e1725fb3b05"),
        ("231;x=0,1;y=0,1,2", "avoid", False, "json", "525ae5ec4e1bed004bf8fa16a3775f16381d5bf7fa3914682540b156ee6498c9"),
        ("231;x=0,1;y=0,1,2", "avoid", False, "csv", "e0d4229827a6a556ba5ba605057066961ad72033a05f1385c17c95a400e1039a"),
        ("231;x=0,1;y=0,1,2", "avoid", True, "text", "3aa9915ce7cdb4d00ad99fb35c0f402d3909005e9c5e494835539ea1632a298d"),
        ("231;x=0,1;y=0,1,2", "avoid", True, "json", "ca84db0241c223ed251585640da9fe2fbac0223f0b9a4731240cb56c5216add0"),
        ("231;x=0,1;y=0,1,2", "avoid", True, "csv", "e0d4229827a6a556ba5ba605057066961ad72033a05f1385c17c95a400e1039a"),
        ("231;x=0,1;y=0,1,2", "class-match", False, "text", "6268dd9043578b2ddac6ba41cdd4ee1a6a14835a8367480af60e6d5514072da8"),
        ("231;x=0,1;y=0,1,2", "class-match", False, "json", "b8d1af623dcb41b1dbb105659caf5f80d82b76a618b6b26c0ed5ef0d3a235f3a"),
        ("231;x=0,1;y=0,1,2", "class-match", False, "csv", "b021e8233a9ec7b86152f328f551cc863f9e705a0f7fb1b7feb4f8dfb4803312"),
        ("231;x=0,1;y=0,1,2", "class-match", True, "text", "d65094c29101e51d753fc77cdd2d3cab088be36077270d7641d872b2bd1001e1"),
        ("231;x=0,1;y=0,1,2", "class-match", True, "json", "03812231c6f45f5954b02645c116538dae8515577bc5184cf0bacc4f49a03528"),
        ("231;x=0,1;y=0,1,2", "class-match", True, "csv", "b021e8233a9ec7b86152f328f551cc863f9e705a0f7fb1b7feb4f8dfb4803312"),
    ]

    @pytest.mark.parametrize("pat, mode, members, emit, digest", GOLDEN)
    def test_golden_output(self, capsys, pat, mode, members, emit, digest):
        codes, transcript = [], []
        for n in range(9):
            code, out = run(capsys, "enumerate", "--mode", mode, "--relation", "none",
                            "--pattern", pat, "--n", str(n), *self.EMITS[emit],
                            *["--members"] * members)
            codes.append(code)
            transcript.append(f"n={n} exit={code}\n{out}")
        assert codes == [0] * 9
        assert hashlib.sha256("".join(transcript).encode()).hexdigest() == digest


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

    EMITS = {"text": [], "sizes": ["--sizes"], "json": ["--emit", "json"], "csv": ["--emit", "csv"]}

    # sha256 of the transcript of `classes --relation REL --n N [EMIT flags]`
    # for N = 0..9 and 12, each run read as "n=N exit=CODE\n" and its stdout,
    # frozen from the census that dispatched on the relation's name.
    GOLDEN = [
        ("conjugacy", "text", "2dc0846afeccd3539a61fe9ac21186362e0e4b16ef70b993501e75075a415a63"),
        ("conjugacy", "sizes", "d9d048b480ee7a3c0eafd2ca5e0569b85de0472ad6f2a1e49ecb969f5baf3910"),
        ("conjugacy", "json", "eeca2040931ca5a3111b56f7702f5ef036b405121c81c9ed1537408e8395fb04"),
        ("conjugacy", "csv", "687d9f209c59e8f5cc7cd5d17ed3eb7bb3936def7162ed1159298aac593928c4"),
        ("order", "text", "0468c5b73863ee39fb4724407c803ebc4b11d27217dad7230fbc76b26eb5cbad"),
        ("order", "sizes", "5aa7e029d9e93db4ca403b00b174ffc7bd491ef6c55fd4040ddf825f42f01b08"),
        ("order", "json", "8d32256623c5ceb20b85ca5add47879ab5c410a1675a1ccbbc727d37948f914f"),
        ("order", "csv", "02f6685d0528dafe10d64800d42129338ec80f6b8c01c4be1bbac858f9c0ec39"),
        ("knuth", "text", "dfb21977574468040899e161d3f883ee2a039e367b730ce32b827a8fa53809cc"),
        ("knuth", "sizes", "fbb2205ef52a3cfae119b214fe99398da1104016adf05aa67e8638d54474ef66"),
        ("knuth", "json", "10dc04b50f9a6d52c86f28804da1d8f4f30b067a2ab9a1f0b197d6b237148669"),
        ("knuth", "csv", "188c135e0f4b1fd3fa17826a89493d7608992d3ee366a95e696e7811fc24d86d"),
        ("toric", "text", "0e035595e67fc1d225a800e5d7461b73e294e7e59dae63a016941f64c26dc37f"),
        ("toric", "sizes", "53e1d9b62625fd6412af6ec4324e64042321a3c342348831f7485eda13326910"),
        ("toric", "json", "42978be200cb1c11c8162ce0c51a13b12fdac0cbf366cd05ee805c3c4cd72a8c"),
        ("toric", "csv", "2ccb55facac16d932d51b2f7813bfcdb52478b5d940c5036116d2f4da4d11679"),
        ("descent", "text", "05e71c934ba4d0523bb23a7dfb9be2142f763d69b5c025fa59a5e29b1a4b3fb9"),
        ("descent", "sizes", "82a7d13ed73cf575e9d86957da273e97dd3be59ab5a20dfa32cb265fafbbf643"),
        ("descent", "json", "5b497f52db0a8a7beb77ab7f58023b700a08305cbf754255199168179a59cbcc"),
        ("descent", "csv", "bdd1748abf7b9cb380e0a34699bddb0948f509800412954d845c4a0d9e65e484"),
    ]

    @pytest.mark.parametrize("rel, emit, digest", GOLDEN)
    def test_golden_output(self, capsys, rel, emit, digest):
        codes, transcript = [], []
        for n in (*range(10), 12):
            code, out = run(capsys, "classes", "--relation", rel, "--n", str(n), *self.EMITS[emit])
            codes.append(code)
            transcript.append(f"n={n} exit={code}\n{out}")
        # Toric and descent are held to the default degree budget of 9.
        assert codes == [0] * 10 + [3 if rel in ("toric", "descent") else 0]
        assert hashlib.sha256("".join(transcript).encode()).hexdigest() == digest


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

    # sha256 of the stdout of `survey --relation REL --length K --n-max 5
    # --emit EMIT [--merge-shift]`, frozen from the survey that reduced rows
    # by building every symmetry image as a pattern.
    GOLDEN = [
        ("conjugacy", 1, "csv", False, "d0f5013b7ef2e2cb2bef1ce69e9a179de4e9899fd73a3e20b3e8489a716d3c5d"),
        ("conjugacy", 2, "csv", False, "ab8849c53d0e1eede9925701ab4e36fc7d2c0dc84a06207f82bb66386e21bc45"),
        ("conjugacy", 3, "csv", False, "09770d363fb7c63bff3ac1fb31cbd1abf264b92cb82c64740ff723d08085a078"),
        ("descent", 1, "csv", False, "382365d1cbf560d5b0a1f2a7c8e31ef8914bcc5dbead5acf9e1a9c351a3d1a13"),
        ("descent", 2, "csv", False, "c62c341a290a67d781ccf859830734ccd4a664214b96e925591f4a05a099dad7"),
        ("descent", 3, "csv", False, "39f2739b225fae821ad7eedfecbf13b48bfa4e58dda31868990aeebc0176c0f7"),
        ("knuth", 1, "csv", False, "9b575832cc44962a4baad26eca47db15ea983b9b43c8ba3325243d0e4be7ad56"),
        ("knuth", 2, "csv", False, "eedc383843b8f9788923713e3a7e3d2eee12f165002fa1905d05d3340439bec1"),
        ("knuth", 3, "csv", False, "a6534935fc7ea0c71e95e8b5cf6810aeb71821ef8df8e8a07b96103298270eb2"),
        ("order", 1, "csv", False, "6c4d3fce23f658ce99322b32cde209dd41ca9b82486243c5567fd1af92f6faa9"),
        ("order", 2, "csv", False, "4a261a841bcfd858f4b12c33334b4d9b442d33b10c3ca1db2abed2478564800b"),
        ("order", 3, "csv", False, "2a1ff404e2163ec8cda9883a9282b4d56db7d71440cb18dee81e019a7096281e"),
        ("toric", 1, "csv", False, "e4152c89951d88bbde0d8c15f43edee06b99b60fd7a375c76b4d9dd17bed386e"),
        ("toric", 2, "csv", False, "c00a07533bcb6001bf11990431e0d30d4836f0d661825263e29da5b120d18c98"),
        ("toric", 3, "csv", False, "d5bec2e9d65681b6e041c8fa0878c59949a212ccf22a1a067b7d0fbbc9387211"),
        ("toric", 2, "csv", True, "6d187c215ade45798e4f975a37f850fa878d2b363a47d8e17ed599f55fdf6f7e"),
        ("toric", 3, "csv", True, "f213d2232c7f6468e7903b22ac932e960b3dcf8b98c09415170d1048a2d7e776"),
        ("knuth", 3, "text", False, "4696f3e22c5b38e7e33846045417784f47899ade823f20a440f00fa507722126"),
        ("knuth", 3, "json", False, "036b493cce447e8743a2bb3e21ff5bc1ff040a08cd42b15f25f72eae4ac807bd"),
    ]

    @pytest.mark.parametrize("rel, length, emit, merge, digest", GOLDEN)
    def test_golden_output(self, capsys, rel, length, emit, merge, digest):
        argv = ["survey", "--relation", rel, "--length", str(length), "--n-max", "5",
                "--emit", emit] + ["--merge-shift"] * merge
        code, out = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


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


def test_reader_closing_early_exits_141():
    # The output (about 430 KB) outgrows a pipe's buffer, so the writer is
    # still writing when the reader closes, however the two are scheduled.
    argv = ["enumerate", "--mode", "class-match", "--relation", "none", "--n", "8",
            "--pattern", "231", "--members"]
    src = Path(permlab.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from permlab.cli import main; "
            "sys.exit(main(sys.argv[2:]))")
    proc = subprocess.Popen([sys.executable, "-c", code, str(src), *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"n=8 count=38890 class_count=38890\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
