"""The package's immutable value classes: `CliqueFactors`, `DimResult`,
`UnresolvedPair` and `FormulaCase`.

Each is equal only to an instance of its own class with equal fields (never
to a plain tuple), hashes by its fields, shows as `Name(field=value, ...)`,
refuses assignment, and survives `pickle` and `copy`.
"""

import copy
import pickle

import pytest

from tensordim import CliqueFactors, DimResult, FormulaCase, UnresolvedPair

# Each value, an equal one built another way, a different one of the same
# class, the plain tuple of its fields, and its exact repr.
CASES = [
    (CliqueFactors((3, 4)), CliqueFactors(sizes=[3, 4]), CliqueFactors((4, 3)),
     ((3, 4),), "CliqueFactors(sizes=(3, 4))"),
    (DimResult(3, (0, 4, 8)), DimResult(dim=3, certificate=(0, 4, 8)), DimResult(3, None),
     (3, (0, 4, 8)), "DimResult(dim=3, certificate=(0, 4, 8))"),
    (DimResult(None, None), DimResult(dim=None, certificate=None), DimResult(0, ()),
     (None, None), "DimResult(dim=None, certificate=None)"),
    (UnresolvedPair(2, 5), UnresolvedPair(x=2, y=5), UnresolvedPair(5, 2),
     (2, 5), "UnresolvedPair(x=2, y=5)"),
    (FormulaCase("m2"), FormulaCase(kind="m2", k=None), FormulaCase("large_n"),
     ("m2", None), "FormulaCase(kind='m2', k=None)"),
    (FormulaCase("balanced", k=2), FormulaCase(kind="balanced", k=2),
     FormulaCase("balanced", 3), ("balanced", 2), "FormulaCase(kind='balanced', k=2)"),
]
IDS = [case[-1] for case in CASES]


@pytest.mark.parametrize("value, same, other, fields, text", CASES, ids=IDS)
def test_equality_is_by_class_and_fields(value, same, other, fields, text):
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != other
    assert value != fields and fields != value
    # A one-field value is no more its bare field than a tuple of it.
    assert value != fields[0]
    assert len({value, same, other}) == 2


@pytest.mark.parametrize("value, same, other, fields, text", CASES, ids=IDS)
def test_repr_names_every_field(value, same, other, fields, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, same, other, fields, text", CASES, ids=IDS)
def test_values_are_read_only(value, same, other, fields, text):
    name = text[text.index("(") + 1:text.index("=")]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) is before


@pytest.mark.parametrize("value, same, other, fields, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(value, same, other, fields, text):
    for back in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)
        assert repr(back) == text


def test_clique_factors_normalises_and_checks_its_sizes():
    f = CliqueFactors([3.0, "4", 5])
    assert f.sizes == (3, 4, 5) and all(type(s) is int for s in f.sizes)
    assert CliqueFactors(s for s in (2, 3)).sizes == (2, 3)
    assert (f.t, f.n, f.vertex_count, f.connected) == (3, 60, 60, True)
    with pytest.raises(ValueError, match="at least one clique factor is required"):
        CliqueFactors(())
    with pytest.raises(ValueError, match=r"every clique factor must have size >= 2, got \(3, 1\)"):
        CliqueFactors((3, 1))


def test_unresolved_pair_is_falsy_and_unpacks():
    pair = UnresolvedPair(2, 5)
    assert not pair and bool(pair) is False
    x, y = pair
    assert (x, y) == (pair.x, pair.y) == (2, 5)
    assert tuple(pair) == (2, 5)


def test_dim_result_reports_disconnected():
    assert DimResult(None, None).disconnected
    assert not DimResult(0, ()).disconnected
