"""The library's record types: construction with their parameters and
defaults, the value semantics of patterns and relations, the checks their
constructors make, and what loading the command line costs."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import permlab
from permlab.arith import NaturalPermutation, RobinResult
from permlab.catalog import CatalogEntry, SequenceTable
from permlab.census import (EnumerationResult, SequenceCheckReport, StabilityReport, SurveyResult,
                            SurveyRow)
from permlab.errors import InternalCheckError, ParseError
from permlab.pattern import BivincularPattern, parse_pattern
from permlab.relations import RELATIONS, ClassCensus, Relation

SRC = Path(permlab.__file__).resolve().parents[1]


def test_cli_cold_start_loads_no_dataclass_machinery():
    # -S keeps the host's site hooks out, so only permlab's own imports count.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import permlab.cli; "
            "permlab.cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


class TestBivincularPattern:
    def test_positional_keyword_and_defaults(self):
        pat = BivincularPattern((2, 3, 1), {0}, [1, 2])
        assert pat == BivincularPattern(p=[2, 3, 1], x=frozenset({0}), y=(2, 1))
        assert (pat.p, pat.x, pat.y, pat.k) == ((2, 3, 1), frozenset({0}), frozenset({1, 2}), 3)
        plain = BivincularPattern((1, 2))
        assert (plain.x, plain.y) == (frozenset(), frozenset())
        assert type(plain.p) is tuple and type(plain.x) is type(plain.y) is frozenset

    def test_equality_and_hash(self):
        a, b = parse_pattern("231;x=1;y=0"), BivincularPattern((2, 3, 1), (1,), (0,))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != parse_pattern("231;x=1") and a != ((2, 3, 1), frozenset({1}), frozenset({0}))

    def test_repr(self):
        assert repr(BivincularPattern((2, 1), {1})) == \
            "BivincularPattern(p=(2, 1), x=frozenset({1}), y=frozenset())"

    def test_fields_are_read_only(self):
        pat = parse_pattern("12;y=1")
        for name in ("p", "x", "y", "k", "other"):
            with pytest.raises(AttributeError):
                setattr(pat, name, ())
        with pytest.raises(AttributeError):
            del pat.p
        assert pat == parse_pattern("12;y=1")

    def test_copy_and_pickle_round_trip(self):
        pat = parse_pattern("3421;x=2,3;y=1,2,4")
        assert copy.copy(pat) == copy.deepcopy(pat) == pickle.loads(pickle.dumps(pat)) == pat

    @pytest.mark.parametrize("p, x, y", [((1, 1), (), ()), ((1, 2), (3,), ()), ((1, 2), (), (-1,))])
    def test_construction_validates(self, p, x, y):
        with pytest.raises(ParseError):
            BivincularPattern(p, x, y)


class TestRelation:
    def test_construction_and_default(self):
        conj = RELATIONS["conjugacy"]
        bare = Relation(conj.name, conj.key, conj.symmetries, conj.class_size, conj.sizes,
                        conj.bounded)
        assert bare.pattern_class is None and bare.block_keys is None
        assert bare != conj
        rel = Relation(conj.name, conj.key, conj.symmetries, conj.class_size, conj.sizes,
                       conj.bounded, block_keys=conj.block_keys)
        assert rel.pattern_class is None
        assert rel == conj and hash(rel) == hash(conj)
        same = Relation(name=conj.name, key=conj.key, symmetries=conj.symmetries,
                        class_size=conj.class_size, sizes=conj.sizes, bounded=True)
        assert same != conj
        assert repr(rel).startswith("Relation(name='conjugacy', key=<function cycle_type")

    def test_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            RELATIONS["toric"].bounded = False
        assert RELATIONS["toric"].bounded is True

    def test_copy(self):
        knuth = RELATIONS["knuth"]
        assert copy.copy(knuth) == copy.deepcopy(knuth) == knuth


def test_class_census_checks_its_total():
    census = ClassCensus("conjugacy", 3, {1: 1, 2: 1, 3: 1})
    assert (census.relation, census.n, census.class_count) == ("conjugacy", 3, 3)
    with pytest.raises(InternalCheckError):
        ClassCensus(relation="conjugacy", n=3, by_size={1: 1, 2: 1})


def test_natural_permutation_checks_k():
    nu = NaturalPermutation(n=4, k=2)
    assert (nu.k, nu.n, nu.increment, nu.word) == (2, 4, 3, (3, 1, 4, 2))
    for k, n in ((0, 4), (5, 4), (2, 5)):
        with pytest.raises(ValueError):
            NaturalPermutation(k, n)


def test_result_records_by_position_and_keyword():
    pat = parse_pattern("21")
    records = [
        (EnumerationResult, ("avoid", "none", (pat,), 3, 1, 1, None)),
        (StabilityReport, (pat, "knuth", 4, (pat,), True, None, None)),
        (SurveyRow, (pat, 2, {1: 1}, ("A000079",))),
        (SurveyResult, ("knuth", 2, 32, [])),
        (SequenceCheckReport, ("A000079", 1, (1, 2), {1: 1}, (2,))),
        (RobinResult, (5040, 19344, 19237.0, False, False)),
        (SequenceTable, ("A000079", 1, (1, 2, 4), "powers of two")),
        (CatalogEntry, ("knuth-231", pat, "knuth", "class-avoid", "A000079", "2^(n-1)")),
    ]
    for cls, values in records:
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(cls.__slots__, values)))
        for name, value in zip(cls.__slots__, values):
            assert getattr(by_position, name) is getattr(by_keyword, name) is value


def test_enumeration_results_compare_by_fields():
    pats = (parse_pattern("21"),)
    result = EnumerationResult("avoid", "none", pats, 3, 1, 1, ((1, 2, 3),))
    assert result == EnumerationResult("avoid", "none", pats, 3, 1, 1, ((1, 2, 3),))
    assert result != EnumerationResult("avoid", "none", pats, 3, 1, 1, None)
