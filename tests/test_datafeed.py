"""Fixture sources: carry-forward queries, proofs, comparators."""

import operator
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from oraclesim import oraclize, orisi
from oraclesim.datafeed import (
    AuthenticityProof,
    Comparator,
    Condition,
    DataSource,
    NoDataError,
    compare,
    encode_value,
    make_proof,
    query,
    verify_proof,
)

T0 = 1_357_000_000


@pytest.fixture
def weather():
    return DataSource(
        "weather",
        entries=[
            ("milan_temp", T0, 12),
            ("milan_temp", T0 + 7200, 15),
            ("rain", T0, False),
        ],
    )


def test_query_returns_exact_and_carried_forward_values(weather):
    assert query(weather, "milan_temp", T0).value == 12
    assert query(weather, "milan_temp", T0 + 3600).value == 12
    assert query(weather, "milan_temp", T0 + 7200).value == 15
    assert query(weather, "milan_temp", T0 + 999_999).value == 15


def test_query_before_first_entry_fails(weather):
    with pytest.raises(NoDataError):
        query(weather, "milan_temp", T0 - 1)
    with pytest.raises(NoDataError):
        query(weather, "no_such_key", T0)


def test_query_is_deterministic(weather):
    assert query(weather, "milan_temp", T0 + 100) == query(weather, "milan_temp", T0 + 100)


def test_duplicate_entry_times_rejected():
    with pytest.raises(ValueError):
        DataSource("dup", entries=[("k", 5, 1), ("k", 5, 2)])


def test_value_encodings_are_typed_and_distinct():
    assert encode_value(True) == b"b:true"
    assert encode_value(False) == b"b:false"
    assert encode_value(1) == b"i:1"
    assert encode_value(-7) == b"i:-7"
    assert encode_value(1.0) == b"f:1.0"
    assert encode_value("1") == b"s:1"
    samples = [True, 1, 1.0, "1", "true"]
    assert len({encode_value(v) for v in samples}) == len(samples)


def test_proof_round_trip_and_tamper_detection(weather):
    proof = make_proof(weather, "milan_temp", T0 + 3600, attestor_id="attestor-1")
    obs = query(weather, "milan_temp", T0 + 3600)
    assert verify_proof(proof, obs)

    assert not verify_proof(proof, replace(obs, value=13))
    assert not verify_proof(replace(proof, attestor_id="attestor-2"), obs)
    assert not verify_proof(replace(proof, source_id="elsewhere"), obs)
    assert not verify_proof(replace(proof, attestation=bytes(32)), obs)


def test_proof_before_data_exists_fails(weather):
    with pytest.raises(NoDataError):
        make_proof(weather, "milan_temp", T0 - 1, attestor_id="a")


def test_comparators_match_python_semantics():
    cases = [
        (Comparator.EQ, 5, 5, True),
        (Comparator.EQ, 5, 6, False),
        (Comparator.NE, 5, 6, True),
        (Comparator.LT, 5, 6, True),
        (Comparator.LT, 6, 6, False),
        (Comparator.LE, 6, 6, True),
        (Comparator.GT, 7, 6, True),
        (Comparator.GE, 6, 6, True),
        (Comparator.GE, 5, 6, False),
        (Comparator.EQ, "yes", "yes", True),
        (Comparator.EQ, True, True, True),
        (Comparator.LT, 2.5, 3, True),
    ]
    for cmp, value, target, expected in cases:
        assert compare(cmp, value, target) is expected, (cmp, value, target)


def test_comparator_codes_are_stable():
    assert [c.value for c in Comparator] == [1, 2, 3, 4, 5, 6]


def test_ordering_rejects_mixed_kinds():
    assert compare(Comparator.LT, "5", 6) is False
    assert compare(Comparator.GE, True, 1) is False
    assert compare(Comparator.EQ, "5", 5) is False
    assert compare(Comparator.EQ, True, 1) is False


_OPERATORS = {
    Comparator.EQ: operator.eq,
    Comparator.NE: operator.ne,
    Comparator.LT: operator.lt,
    Comparator.LE: operator.le,
    Comparator.GT: operator.gt,
    Comparator.GE: operator.ge,
}
_KIND_OF_TYPE = {bool: "event", int: "number", float: "number", str: "label"}
_FEED_VALUES = st.one_of(st.booleans(), st.integers(), st.floats(), st.text())


@given(st.sampled_from(Comparator), _FEED_VALUES, _FEED_VALUES)
@example(Comparator.EQ, True, 1)
@example(Comparator.NE, 1, True)
@example(Comparator.GE, False, 0)
@example(Comparator.LT, 0.5, "1")
def test_compare_is_the_operator_on_one_kind_and_false_across_kinds(cmp, value, target):
    same_kind = _KIND_OF_TYPE[type(value)] == _KIND_OF_TYPE[type(target)]
    expected = same_kind and _OPERATORS[cmp](value, target)
    assert compare(cmp, value, target) is expected



_ORDERINGS = (Comparator.LT, Comparator.LE, Comparator.GT, Comparator.GE)


@pytest.mark.parametrize(
    "build",
    [
        lambda cmp, t: Condition("s", "k", cmp, t),
        lambda cmp, t: orisi.Condition("s", "k", cmp, t, settle_time=0),
        lambda cmp, t: oraclize.Condition("s", "k", cmp, t, beneficiary=bytes(32)),
    ],
    ids=["datafeed", "orisi", "oraclize"],
)
def test_every_condition_refuses_an_ordering_on_events_and_labels(build):
    for threshold in (True, False, "sunny"):
        for cmp in _ORDERINGS:
            with pytest.raises(ValueError, match="not an ordering"):
                build(cmp, threshold)
        assert build(Comparator.EQ, threshold).holds(threshold)
    for cmp in _ORDERINGS:  # numbers order
        assert build(cmp, 10).holds(10) is (cmp in (Comparator.LE, Comparator.GE))


def test_source_in_refuses_a_source_or_key_it_cannot_find(weather):
    sources = {"weather": weather}
    assert Condition("weather", "rain", Comparator.EQ, True).source_in(sources) is weather
    with pytest.raises(ValueError, match="unknown source 'almanac'"):
        Condition("almanac", "rain", Comparator.EQ, True).source_in(sources)
    with pytest.raises(ValueError, match="source 'weather' has no key 'snow'"):
        Condition("weather", "snow", Comparator.EQ, True).source_in(sources)
