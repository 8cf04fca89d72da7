"""Scenario runner, event log, metrics export, and the CLI entry point."""

import copy
import csv
import json
import math
import re
import struct
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclesim import counterparty, oraclize, orisi, realitykeys, truthcoin, will_oracle
from oraclesim.counterparty import Send, encode_message
from oraclesim.datafeed import query
from oraclesim.harness import (
    EventLog,
    LogFormatError,
    ParseError,
    Scenario,
    bundled_scenarios,
    export_metrics,
    run_scenario,
)
from oraclesim.harness import scenario as scenario_module
from oraclesim.harness.cli import main
from oraclesim.harness.events import Event, _encode, first_difference
from oraclesim.simchain import (
    DataCarrier,
    MAX_LOCK_DEPTH,
    Miner,
    PayToKey,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    build_payment,
    serialize_tx,
    txid,
)
import test_formats as ref
from test_script_tx import _edits


def verify_replay(log_a, log_b):
    """Two runs replicated iff their logs hash identically."""
    return log_a.digest() == log_b.digest()


T0 = 1_700_000_000


# ------------------------------------------------------------- event log


def test_event_line_is_canonical_json():
    log = EventLog()
    log.append(3, "host", "block", {"height": 1, "txs": 2})
    assert log.encode() == (
        b'{"kind":"block","module":"host","payload":{"height":1,"txs":2},"tick":3}\n'
    )


def test_digest_hashes_exact_bytes():
    from oraclesim.codec import sha256

    log = EventLog()
    log.append(0, "a", "b", {"x": 1})
    log.append(1, "a", "c", {"y": [1, 2]})
    assert log.digest() == sha256(log.encode())
    assert log.encode().count(b"\n") == 2


def test_write_read_round_trip(tmp_path):
    log = EventLog()
    log.append(0, "host", "block", {"height": 1})
    log.append(5, "cp", "balance", {"actor": "alice", "qty": 10})
    path = tmp_path / "run.log.jsonl"
    log.write(path)
    loaded = EventLog.read(path)
    assert loaded.digest() == log.digest()
    assert loaded.events[1].payload == {"actor": "alice", "qty": 10}


@pytest.mark.parametrize(
    "data, message",
    [
        (b"not json\n", "line 1: not JSON"),
        (b"[1]\n", "line 1: not a JSON object"),
        (b'{"kind":"x","payload":{},"tick":1}\n', "line 1: 'module' missing or not str"),
        (b'{"kind":"x","module":"m","payload":{},"tick":true}\n', "'tick' missing or not int"),
        (b'{"kind":"x","module":"m","payload":[],"tick":1}\n', "'payload' missing or not dict"),
        (b'{"tick":1,"kind":"x","module":"m","payload":{}}\n', "not the canonical encoding"),
        (b'{"kind":"x","module":"m","payload":{},"tick":1,"z":0}\n', "not the canonical"),
        (b'{"kind":"x","module":"m","payload":{},"tick":1}', "line 1: no trailing newline"),
        (b"\n", "line 1: not JSON"),
        (b"\xff\n", "not UTF-8"),
    ],
    ids=["json", "object", "missing", "bool_tick", "list_payload", "key_order", "extra_key",
         "newline", "blank", "utf8"],
)
def test_read_refuses_what_encode_never_writes(tmp_path, data, message):
    path = tmp_path / "bad.log"
    path.write_bytes(data)
    with pytest.raises(LogFormatError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
        EventLog.read(path)


@pytest.fixture(scope="module")
def bundled_log():
    return run_scenario(_scenario_path("will_claim")).log.encode()


def _log_refuses_or_round_trips(data: bytes) -> None:
    try:
        log = EventLog.decode(data)
    except LogFormatError:
        return
    assert log.encode() == data


@settings(max_examples=500)
@given(data=st.binary(max_size=200))
def test_read_refuses_or_round_trips_arbitrary_bytes(data):
    _log_refuses_or_round_trips(data)


@settings(max_examples=500)
@given(data=st.data())
def test_read_refuses_or_round_trips_edited_logs(bundled_log, data):
    assert EventLog.decode(bundled_log).encode() == bundled_log
    _log_refuses_or_round_trips(data.draw(_edits(bundled_log)))


def test_matching_filters_kind_and_payload():
    log = EventLog()
    log.append(0, "cp", "balance", {"actor": "alice", "qty": 10})
    log.append(1, "cp", "balance", {"actor": "bob", "qty": 20})
    log.append(2, "cp", "replay", {"issued": 30})
    assert len(log.matching("cp/balance")) == 2
    assert log.matching("cp/balance", {"actor": "bob"})[0].payload["qty"] == 20
    assert log.matching("cp/balance", {"actor": "zoe"}) == []


def test_line_is_fixed_when_its_event_is_appended():
    log = EventLog()
    held = [1, 2]
    payload = {"txs": held, "meta": {"by": ["m1"]}}
    event = log.append(0, "host", "block", payload)
    held.append(3)
    payload["meta"]["by"].append("m2")
    payload["late"] = 1
    assert event.payload is payload  # the event holds the dict it was given
    assert log.encode() == (
        b'{"kind":"block","module":"host","payload":{"meta":{"by":["m1"]},"txs":[1,2]},"tick":0}\n'
    )


def test_append_rejects_unserializable_payload():
    log = EventLog()
    for raw in (b"\x00", {1, 2}, [{"deep": {3}}]):
        with pytest.raises(TypeError):
            log.append(0, "host", "block", {"raw": raw})
    assert log.events == []
    log.append(1, "host", "block", {"ok": [{}]})  # a refused payload leaves nothing behind
    assert log.encode() == b'{"kind":"block","module":"host","payload":{"ok":[{}]},"tick":1}\n'


@pytest.mark.parametrize(
    "tick, module, kind",
    [("1", "host", "block"), (1.0, "host", "block"), (1, 5, "block"), (1, "host", None)],
    ids=["str_tick", "float_tick", "int_module", "none_kind"],
)
def test_append_rejects_fields_that_read_would_refuse(tick, module, kind):
    log = EventLog()
    with pytest.raises(TypeError):
        log.append(tick, module, kind, {"x": 1})
    assert log.events == []


def test_append_rejects_a_circular_payload():
    held = []
    held.append(held)
    log = EventLog()
    with pytest.raises((ValueError, RecursionError)):
        log.append(0, "host", "block", {"held": held})
    assert log.events == []


_ESCAPED = ["", '"', "\\", "\n", "\t", "\x00", "\x7f", "/", "é", "\u2028", "☃", "\U0001f600"]
_TEXT = st.text(max_size=6) | st.sampled_from(_ESCAPED)
_FLOATS = [-0.0, 0.0, 1e300, -1e300, 5e-324, float("nan"), float("inf"), float("-inf")]
_SCALAR = (
    st.none()
    | st.booleans()
    | _TEXT
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)  # far beyond 64 bits
    | st.floats()
    | st.sampled_from(_FLOATS)
)
_VALUE = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)
_EVENT = st.builds(
    Event,
    tick=st.integers(min_value=-(2**70), max_value=2**70),
    module=_TEXT,
    kind=_TEXT,
    payload=st.dictionaries(_TEXT, _VALUE, max_size=5),
)


@settings(max_examples=500)
@given(_EVENT)
def test_event_line_is_json_dumps_of_its_fields(event):
    log = EventLog()
    assert log.append(event.tick, event.module, event.kind, event.payload) == event
    assert log.line(0) == ref.event_line(event.tick, event.module, event.kind, event.payload)


@settings(max_examples=200)
@given(st.lists(_EVENT, max_size=4))
def test_appended_events_decode_to_the_same_bytes(events):
    log = EventLog()
    for event in events:
        log.append(event.tick, event.module, event.kind, event.payload)
    assert EventLog.decode(log.encode()).encode() == log.encode()


def test_verify_replay_detects_any_difference():
    a, b = EventLog(), EventLog()
    a.append(0, "m", "k", {"v": 1})
    b.append(0, "m", "k", {"v": 1})
    assert verify_replay(a, b)
    assert first_difference(a, b) is None
    b.append(1, "m", "k", {"v": 2})
    assert not verify_replay(a, b)
    assert first_difference(a, b) == first_difference(b, a) == 1  # a ends first
    a.append(1, "m", "k", {"v": 3})
    assert first_difference(a, b) == 1 and b.line(1) == _encode(b.events[1])


# --------------------------------------------------------------- parsing


def _minimal(**extra):
    doc = {"name": "t", "seed": 1, "ticks": 2}
    doc.update(extra)
    return doc


def _oz_contract(**condition):
    condition = {"source": "s", "key": "k", "beneficiary": "b", **condition}
    return {"tick": 0, "op": "oz_contract", "id": "z", "alice": "a", "bob": "b",
            "stakes": [1, 1], "conditions": [condition], "default": "a", "start": 0,
            "end": 1, "refund_locktime": 2}


def _declaring(*actions):
    """A minimal document that declares the actors and the source that
    ``_oz_contract`` names."""
    return _minimal(actors=["a", "b"], sources=[{"id": "s"}], actions=list(actions))


def test_minimal_scenario_parses_and_runs():
    result = run_scenario(_minimal())
    assert result.passed
    assert result.exit_code == 0
    kinds = [(e.module, e.kind) for e in result.log.events]
    assert kinds[0] == ("run", "start")
    assert kinds[-1] == ("run", "end")
    assert result.log.events[-1].payload["ticks"] == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"seed": 1, "ticks": 2},
        {"name": "t", "ticks": 2},
        {"name": "t", "seed": 1},
        _minimal(ticks=0),
        _minimal(seed="one"),
        _minimal(policy="v091"),
        _minimal(mine_every=0),
        _minimal(actions=[{"tick": 0, "op": "no_such_op"}]),
        _minimal(actions=[{"tick": 2, "op": "mine"}]),
        _minimal(actions=[{"tick": -1, "op": "mine"}]),
        _minimal(assertions=[{"kind": "wishful"}]),
        _minimal(assertions=[{"kind": "balance", "actor": "a", "op": "~", "value": 1}]),
        _minimal(seed=True),
        _minimal(colour="red"),
        _minimal(actions=[{"tick": 0, "op": "mine", "blocks": 1, "colour": "red"}]),
        _minimal(actions=[{"tick": 0, "op": "mine", "blocks": 1.0}]),
        _minimal(actions=[{"tick": 0, "blocks": 1}]),
        _minimal(sources=[{"id": "s"}, {"id": "s"}]),
        _declaring({"tick": 0, "op": "rk_temps", "id": "c", "alice": "a", "bob": "b",
                    "stakes": [1, 2, 3]}),
        _declaring(_oz_contract(comparator="ne", threshold=10)),
        _declaring(_oz_contract(comparator="gt", threshold="sunny")),
        _minimal(mine_every=None, actions=[{"tick": 0, "op": "mine", "blocks": -1}]),
    ],
)
def test_malformed_scenarios_raise_parse_error(doc):
    with pytest.raises(ParseError):
        Scenario.from_dict(doc)


def test_the_mine_op_mines_its_blocks_when_only_mine_ops_mine(tmp_path, capsys):
    doc = _minimal(
        mine_every=None, actors=["a", "b"], genesis=[{"actor": "a", "value": 10_000}],
        actions=[
            {"tick": 0, "op": "pay", "from": "a", "to": "b", "value": 1_000},
            {"tick": 1, "op": "mine", "blocks": 2},
        ],
    )
    blocks = run_scenario(doc).log.matching("host/block")
    # the payment sent at tick 0 confirms in the first block, one tick later
    assert [(e.tick, e.payload["txs"], e.payload["delays"]) for e in blocks] == [
        (1, 1, [1]), (1, 0, []),
    ]
    # a negative count is refused when the document is read, not run as no blocks
    doc["actions"][1]["blocks"] = -1
    bad = tmp_path / "negative_mine.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    assert "parse error: scenario.actions[1].blocks: -1 does not fit u64" in capsys.readouterr().err


def _rk_fact(comparator):
    return {"tick": 0, "op": "rk_fact", "id": "f", "question": "q", "resolution_time": 1,
            "source": "s", "key": "k", "comparator": comparator, "threshold": 1}


@pytest.mark.parametrize(
    "doc, message",
    [
        (_minimal(mine_every="x"), ".mine_every: expected int | None, got str"),
        (
            _minimal(sources=[{"id": "s", "entries": [{"key": "k", "time": 1, "value": [1]}]}]),
            ".sources[0].entries[0].value: expected Union[bool, int, float, str], got list",
        ),
        (
            _minimal(actions=[{"tick": 0, "op": "balances", "actors": [1]}]),
            ".actions[0].actors[0]: expected str, got int",
        ),
        (
            _minimal(assertions=[{"kind": "count", "event": "e", "value": 1, "where": [1]}]),
            ".assertions[0].where: expected dict[str, typing.Any] | None, got list",
        ),
        (
            _declaring(_oz_contract(comparator="gt", threshold=None)),
            ".actions[0].conditions[0].threshold: expected Union[bool, int, float, str], "
            "got NoneType",
        ),
        (_minimal(policy="v091"), ".policy: expected one of v090, test2013, got 'v091'"),
        (
            _minimal(actions=[_rk_fact("about")]),
            ".actions[0].comparator: expected one of eq, ne, lt, le, gt, ge, got 'about'",
        ),
        (
            _minimal(actions=[{"tick": 0, "op": "rk_object", "fact": "f", "tip": 1,
                               "claimed": "maybe"}]),
            ".actions[0].claimed: expected one of yes, no, got 'maybe'",
        ),
        (
            _declaring({**_oz_contract(comparator="gt", threshold=1), "stakes": [1, 2, 3]}),
            ".actions[0].stakes: expected 2 items, got 3",
        ),
        (
            _declaring({**_oz_contract(comparator="gt", threshold=1), "stakes": {"a": 1}}),
            ".actions[0].stakes: expected tuple[int, int], got dict",
        ),
        (
            _minimal(actions=[{"tick": 0, "op": "tc_side_blocks", "count": 1,
                               "veto_periods": [1, "x"]}]),
            ".actions[0].veto_periods[1]: expected int, got str",
        ),
        (
            _minimal(actions=[{"tick": 0, "op": "tc_init", "allocation": {"a": 1, "b": "x"}}]),
            ".actions[0].allocation.b: expected int, got str",
        ),
        (
            _minimal(actions=[{"tick": 0, "op": "no_such_op"}]),
            ".actions[0].op: unknown op 'no_such_op'",
        ),
        (_minimal(actions=[{"tick": 0}]), ".actions[0].op: unknown op None"),
        (_minimal(assertions=[{"kind": "wishful"}]), ".assertions[0].kind: unknown kind 'wishful'"),
        (_minimal(actions=[1]), ".actions[0]: expected dict, got int"),
        (
            _minimal(miners=[{"id": "m", "hashrate": "1"}]),
            ".miners[0].hashrate: expected float, got str",
        ),
        (
            _declaring(_oz_contract(comparator="gt")),
            ".actions[0].conditions[0]: missing field 'threshold'",
        ),
        (
            _declaring(_oz_contract(comparator="ne", threshold=10)),
            ".actions[0].conditions[0]: conditions take <, <=, =, >= or >",
        ),
        (_minimal(seed=True), ".seed: expected int, got bool"),
        ([], ": expected dict, got list"),
    ],
    # the ids the cases were first collected under, written out, so that
    # editing an expected message renames no test
    ids=[
        "doc0-.mine_every: expected int | None, got str",
        "doc1-.sources[0].entries[0].value: expected Union[bool, int, float, str], got list",
        "doc2-.actions[0].actors[0]: expected str, got int",
        "doc3-.assertions[0].where: expected dict[str, typing.Any] | None, got list",
        "doc4-.actions[0].conditions[0].threshold: expected Union[bool, int, float, str], got NoneType",
        "doc5-.policy: expected one of v090, test2013, got 'v091'",
        "doc6-.actions[0].comparator: expected one of eq, ne, lt, le, gt, ge, got 'about'",
        "doc7-.actions[0].claimed: expected one of yes, no, got 'maybe'",
        "doc8-.actions[0].stakes: expected 2 items, got 3",
        "doc9-.actions[0].stakes: expected tuple[int, int], got dict",
        "doc10-.actions[0].veto_periods[1]: expected int, got str",
        "doc11-.actions[0].allocation.b: expected int, got str",
        "doc12-.actions[0].op: unknown op 'no_such_op'",
        "doc13-.actions[0].op: unknown op None",
        "doc14-.assertions[0].kind: unknown kind 'wishful'",
        "doc15-.actions[0]: expected dict, got int",
        "doc16-.miners[0].hashrate: expected float, got str",
        "doc17-.actions[0].conditions[0]: missing field 'threshold'",
        "doc18-.actions[0].conditions[0]: conditions take <, <=, =, >= or >",
        "doc19-.seed: expected int, got bool",
        "doc20-: expected dict, got list",
    ],
)
def test_parse_errors_name_the_path_and_the_declared_type(doc, message):
    with pytest.raises(ParseError) as caught:
        Scenario.from_dict(doc)
    assert str(caught.value) == "scenario" + message


def test_parsing_reads_no_annotation(monkeypatch):
    """Every converter is built at import: binding a document never asks
    what an annotation means."""
    from oraclesim.harness import scenario

    def refuse(annotation):
        raise AssertionError(f"annotation {annotation!r} read while parsing")

    monkeypatch.setattr(scenario, "get_origin", refuse)
    monkeypatch.setattr(scenario, "get_args", refuse)
    for doc in _BUNDLED:
        assert isinstance(Scenario.from_dict(doc), Scenario)


def test_a_float_field_takes_an_int_and_names_take_any_case():
    scenario = Scenario.from_dict(
        _minimal(
            miners=[{"id": "m", "hashrate": 1}],
            policy="TEST2013",
            assertions=[{"kind": "count", "event": "run/start", "op": ">=", "value": 1}],
        )
    )
    assert scenario.miners[0].hashrate == 1 and type(scenario.miners[0].hashrate) is int
    assert scenario.policy == "test2013"
    assert run_scenario(scenario).passed


def test_scenario_sources_carry_every_value_type():
    text = """
    [
      {"id": "mixed", "ssl": true, "entries": [
        {"key": "flag", "time": 100, "value": true},
        {"key": "count", "time": 100, "value": 42},
        {"key": "level", "time": 100, "value": 3.5},
        {"key": "name", "time": 100, "value": "rain"}
      ]},
      {"id": "other", "entries": [{"key": "k", "time": 5, "value": 1}]}
    ]
    """
    mixed, other = Scenario.from_dict(_minimal(sources=json.loads(text))).sources
    assert (mixed.id, other.id) == ("mixed", "other")
    assert query(mixed, "flag", 100).value is True
    assert query(mixed, "count", 100).value == 42
    assert query(mixed, "level", 100).value == 3.5
    assert query(mixed, "name", 100).value == "rain"
    assert mixed.keys() == ["count", "flag", "level", "name"]


def _parses_or_refuses(doc):
    try:
        assert isinstance(Scenario.from_dict(doc), Scenario)
    except ParseError:
        pass


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_from_dict_is_total_on_any_json_value(doc):
    _parses_or_refuses(doc)


def _at(value, path):
    for step in path:
        value = value[step]
    return value


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for step, child in children:
        yield from _paths(child, path + (step,))


_BUNDLED = [json.loads(p.read_text(encoding="utf-8")) for p in bundled_scenarios()]
_NODES = [(i, path) for i, doc in enumerate(_BUNDLED) for path in _paths(doc)]
_SAMPLES = [None, True, 0, -1, 2**70, 1.5, "", "x", [], [1], {}, {"x": 1}]


@settings(max_examples=1000, deadline=None)
@given(
    st.sampled_from(_NODES), st.sampled_from(["drop", "add", "replace"]), st.sampled_from(_SAMPLES)
)
def test_from_dict_is_total_on_mutated_bundled_scenarios(node, mutation, sample):
    """Drop a key, add an unknown key, or give a value another JSON type,
    anywhere in a bundled document: the result parses or raises ParseError."""
    index, path = node
    doc = copy.deepcopy(_BUNDLED[index])
    holder = doc
    for step in path[:-1]:
        holder = holder[step]
    target = holder[path[-1]] if path else doc
    if mutation == "drop" and path:
        del holder[path[-1]]
    elif mutation == "add" and isinstance(target, dict):
        target["unknown"] = sample
    elif mutation == "replace" and type(sample) is not type(target):
        if path:
            holder[path[-1]] = sample
        else:
            doc = sample
    _parses_or_refuses(doc)


def _same_type_edits(value, names, sizes_loop):
    """The leaf edits of the mutation sweep, and the codec boundaries -1, 2**63
    and 2**64: each keeps the value's JSON type. A leaf that sizes a loop, a
    tc_side_blocks count, takes no value past 2**63, which would run unbounded."""
    if type(value) is bool:
        return [not value]
    if type(value) is int:
        edits = [0, value + 1, value - 1, value * 2, value // 2, -value, 10**6, -1]
        return edits if sizes_loop else [*edits, 2**63, 2**64]
    return ["", value + "_x", value.upper(), *names]


# Every int, str and bool leaf but the top-level ticks, which may run unbounded.
_LEAVES = [
    [p for p in _paths(doc) if p != ("ticks",) and type(_at(doc, p)) in (int, str, bool)]
    for doc in _BUNDLED
]
_NAMES = [sorted({_at(doc, p) for p in leaves if type(_at(doc, p)) is str})
          for doc, leaves in zip(_BUNDLED, _LEAVES)]


def _edit_leaves(data, index, doc, min_size):
    """Replace up to two leaves of bundled document `index`, copied as `doc`,
    by values of the same type."""
    for path in data.draw(st.lists(st.sampled_from(_LEAVES[index]), min_size=min_size, max_size=2)):
        holder = _at(doc, path[:-1])
        edits = _same_type_edits(holder[path[-1]], _NAMES[index], path[-1] == "count")
        holder[path[-1]] = data.draw(st.sampled_from(edits))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_run_is_total_on_leaf_edits_of_bundled_scenarios(data):
    """Replace one or two leaves of a bundled document by a value of the same
    type: the document raises ParseError when it is parsed, or the run ends at
    run/end; the run itself raises nothing."""
    index = data.draw(st.integers(0, len(_BUNDLED) - 1))
    doc = copy.deepcopy(_BUNDLED[index])
    _edit_leaves(data, index, doc, min_size=1)
    try:
        scenario = Scenario.from_dict(doc)
    except ParseError:
        return
    result = run_scenario(scenario)
    assert (result.log.events[-1].module, result.log.events[-1].kind) == ("run", "end")


def _edit_actions(data, doc):
    """Drop an action, duplicate one, move one to another tick, or swap the
    actions of two ticks: which ops run, and in what order."""
    actions, ticks = doc["actions"], range(doc["ticks"])
    edit = data.draw(st.sampled_from(["drop", "duplicate", "move", "swap"]))
    if edit == "swap":
        a, b = data.draw(st.sampled_from(ticks)), data.draw(st.sampled_from(ticks))
        for action in actions:
            if action["tick"] in (a, b):
                action["tick"] = a + b - action["tick"]
        return
    if not actions:
        return
    i = data.draw(st.integers(0, len(actions) - 1))
    if edit == "drop":
        del actions[i]
    elif edit == "duplicate":
        actions.insert(i + 1, copy.deepcopy(actions[i]))
    else:
        actions[i]["tick"] = data.draw(st.sampled_from(ticks))


def _fees(chain):
    """What every mined transaction paid: its inputs' value less its outputs'."""
    return sum(
        sum(chain.output_at(txin.outpoint).value for txin in tx.inputs)
        - sum(out.value for out in tx.outputs)
        for block in chain.blocks[1:]
        for tx in block.txs
    )


def _books_balance(result):
    """Host coin, Counterparty XCP and both Truthcoin coins are conserved,
    and no balance is negative, in the state a run ended in."""
    world, events = result.world, result.log.events
    genesis = sum(grant.coins * grant.value for grant in result.scenario.genesis)
    assert world.chain.supply() + _fees(world.chain) == genesis

    state = counterparty.replay(world.chain)
    assert counterparty.xcp_in_circulation(state) == state.issued
    assert min(state.balances.values(), default=0) >= 0

    if world._tc is None:
        return
    init = max(i for i, e in enumerate(events) if (e.module, e.kind) == ("tc", "init"))
    pegged = {"peg_in": 0, "peg_out": 0}
    for event in events[init + 1:]:
        if event.module == "tc" and event.kind in pegged:
            pegged[event.kind] += event.payload["amount"]
    assert world.tc.vtc_supply() == events[init].payload["vtc_supply"]
    assert world.tc.csh_supply() == pegged["peg_in"] - pegged["peg_out"]
    ledger = world.tc.ledger
    assert min([*ledger.csh.values(), *ledger.vtc.values(), *ledger.frozen_vtc.values()],
               default=0) >= 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_books_balance_on_structural_and_leaf_edits_of_bundled_scenarios(data):
    """Reorder, drop and repeat the actions of a bundled document, and edit up
    to two of its leaves: every run that parses conserves each coin, leaves no
    balance negative, and gives the same digest when run again."""
    index = data.draw(st.integers(0, len(_BUNDLED) - 1))
    doc = copy.deepcopy(_BUNDLED[index])
    _edit_leaves(data, index, doc, min_size=0)
    for _ in range(data.draw(st.integers(1, 3))):
        _edit_actions(data, doc)
    try:
        scenario = Scenario.from_dict(doc)
    except ParseError:
        return
    result = run_scenario(scenario)
    _books_balance(result)
    assert run_scenario(scenario).log.digest() == result.log.digest()


# files that are no JSON document: bad syntax, bytes that are not UTF-8, and
# nesting deeper than the decoder recurses
_UNLOADABLE = {"not_json": b"{not json", "not_utf8": b"\xff\xfe{}", "too_deep": b"[" * 100_000}


@pytest.mark.parametrize("kind", _UNLOADABLE)
def test_load_rejects_bad_json(tmp_path, kind):
    path = tmp_path / "broken.json"
    path.write_bytes(_UNLOADABLE[kind])
    with pytest.raises(ParseError):
        Scenario.load(path)


def test_unknown_actor_reference_raises_parse_error():
    doc = _minimal(
        actors=["alice"],
        genesis=[{"actor": "alice", "coins": 1, "value": 10_000_000}],
        actions=[{"tick": 0, "op": "pay", "from": "alice", "to": "nobody", "value": 1000}],
    )
    with pytest.raises(ParseError, match=r"^scenario\.actions\[0\]\.to: unknown actor 'nobody'$"):
        Scenario.from_dict(doc)


def test_a_name_binds_only_inside_from_dict():
    """No document declares names outside Scenario.from_dict, so a name bound
    there raises rather than passing unchecked."""
    with pytest.raises(LookupError):
        scenario_module._converter(scenario_module.Actor)[str]("alice")


# ------------------------------------------------------ bundled scenarios


def test_twelve_scenarios_ship_with_the_package():
    names = [p.stem for p in bundled_scenarios()]
    assert len(names) == 12
    assert len(set(names)) == 12


@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
def test_bundled_scenario_passes(path):
    result = run_scenario(path)
    assert result.failures == []
    assert result.exit_code == 0


@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
def test_bundled_scenario_is_deterministic(path):
    first = run_scenario(path)
    second = run_scenario(path)
    assert verify_replay(first.log, second.log)
    assert first.log.encode() == second.log.encode()


def test_flipped_assertion_fails_the_run():
    doc = json.loads(bundled_scenarios()[0].read_text(encoding="utf-8"))
    doc["assertions"] = [{"kind": "count", "event": "run/start", "value": 99}]
    result = run_scenario(doc)
    assert not result.passed
    assert result.exit_code == 1
    assert "run/start" in result.failures[0]


def test_seed_override_still_passes():
    path = next(p for p in bundled_scenarios() if p.stem == "counterparty_bet")
    result = run_scenario(path, seed_override=424242)
    assert result.passed


def test_clock_follows_tick_seconds():
    doc = _minimal(
        ticks=3,
        tick_seconds=7200,
        actors=["owner", "heir", "notary"],
        genesis=[{"actor": "owner", "coins": 1, "value": 100_000_000}],
        sources=[
            {
                "id": "registry",
                "entries": [
                    {"key": "owner.deceased", "time": T0, "value": False},
                    {"key": "owner.deceased", "time": T0 + 9000, "value": True},
                ],
            }
        ],
        actions=[
            {
                "tick": 0,
                "op": "will_create",
                "id": "w",
                "creator": "owner",
                "oracle": "notary",
                "heir": "heir",
                "source": "registry",
                "expression": "owner.deceased",
                "amount": 10_000_000,
                "fee": 1000,
            },
            # tick 1 = T0 + 7200 < 9000: still alive; tick 2 = T0 + 14400: not
            {"tick": 1, "op": "will_claim", "id": "w", "oracle": "notary",
             "heir": "heir", "expression": "owner.deceased", "fee": 1000},
            {"tick": 2, "op": "will_claim", "id": "w", "oracle": "notary",
             "heir": "heir", "expression": "owner.deceased", "fee": 1000},
        ],
    )
    result = run_scenario(doc)
    log = result.log
    assert [e.tick for e in log.matching("will/refused")] == [1]
    assert [e.tick for e in log.matching("will/claimed")] == [2]


def test_assertion_ops_compare_with_the_requested_operator():
    doc = _minimal(
        actors=["alice"],
        genesis=[{"actor": "alice", "coins": 2, "value": 50_000_000}],
        assertions=[
            {"kind": "balance", "actor": "alice", "op": ">=", "value": 100_000_000},
            {"kind": "balance", "actor": "alice", "op": "<", "value": 100_000_001},
            {"kind": "count", "event": "host/block", "op": ">", "value": 1},
        ],
    )
    assert run_scenario(doc).passed


def test_mine_every_none_leaves_mempool_alone():
    doc = _minimal(
        mine_every=None,
        actors=["alice", "bob"],
        genesis=[{"actor": "alice", "coins": 1, "value": 50_000_000}],
        actions=[{"tick": 0, "op": "pay", "from": "alice", "to": "bob", "value": 1000}],
        assertions=[
            {"kind": "count", "event": "host/block", "value": 0},
            {"kind": "balance", "actor": "bob", "value": 0},
        ],
    )
    assert run_scenario(doc).passed


def test_a_block_delay_counts_from_the_tick_a_tx_last_entered_the_pool():
    # strict miners leave two 60-byte carriers pooled until the first expires;
    # it is sent again at tick 4, and a lax miner then mines both at tick 5
    doc = _minimal(
        ticks=6, mine_every=None, actors=["a", "b"],
        genesis=[{"actor": "a", "value": 10_000}, {"actor": "b", "value": 10_000}],
        miners=[{"id": "strict", "hashrate": 1.0, "accepts_nonstandard": False}],
    )
    world = scenario_module.World(Scenario.from_dict(doc))
    world.chain.mempool.expiry_blocks = 2
    carrier = [TxOutput(0, DataCarrier(bytes(60)))]
    first = build_payment(world.chain, world.actors["a"], carrier, fee=100)
    second = build_payment(world.chain, world.actors["b"], carrier, fee=200)

    def at(tick, *steps):
        world.tick = tick
        for step in steps:
            step()
            world.stamp()

    at(0, lambda: world.submit(first, "host"))
    at(1, world.mine, lambda: world.submit(second, "host"))
    at(2, world.mine)  # height 2: `first`, pooled at height 0, expires; `second` stays
    assert txid(first) not in world.chain.mempool and txid(second) in world.chain.mempool
    at(4, lambda: world.submit(first, "host"))
    world.scenario = replace(world.scenario, miners=(Miner("lax", 1.0),))
    at(5, world.mine)

    blocks = world.log.matching("host/block")
    assert [(e.tick, e.payload["txs"]) for e in blocks] == [(1, 0), (2, 0), (5, 2)]
    mined = [txid(tx) for tx in world.chain.blocks[-1].txs]
    assert dict(zip(mined, blocks[-1].payload["delays"])) == {txid(first): 1, txid(second): 4}
    assert len(world.chain.mempool) == 0


def test_tracked_balances_follow_a_ledger_every_tick():
    names = ["a", "b", "c", "d"]  # d is tracked but never paid
    ledger = dict.fromkeys(names, 0)
    ledger.update(a=30_000, b=30_000, c=30_000)
    actions, expected = [], []
    for tick in range(12):
        sender, receiver = names[tick % 3], names[(tick + 1) % 3]
        value, fee = 100 + tick, tick
        actions.append({"tick": tick, "op": "pay", "from": sender, "to": receiver,
                        "value": value, "fee": fee})
        ledger[sender] -= value + fee
        ledger[receiver] += value
        expected.append((tick, dict(ledger)))
    doc = _minimal(
        ticks=12, actors=names, track_balances=names, actions=actions,
        genesis=[{"actor": n, "coins": 3, "value": 10_000} for n in "abc"],
    )
    result = run_scenario(doc)
    tracked = result.log.matching("host/balances")
    # every payment confirms in the block mined at the end of its own tick
    assert [(e.tick, e.payload["balances"]) for e in tracked] == expected
    chain = result.world.chain
    recount = dict.fromkeys(names, 0)
    for name in names:
        pub = result.world.actors[name].pub
        recount[name] = sum(out.value for out in chain.utxo.values()
                            if isinstance(out.lock, PayToKey) and out.lock.pub == pub)
    assert recount == tracked[-1].payload["balances"]


# ---------------------------------------------------------------- metrics


def test_metrics_row_count_matches_ticks(tmp_path):
    doc = _minimal(
        ticks=4,
        actors=["alice", "bob"],
        genesis=[{"actor": "alice", "coins": 4, "value": 50_000_000}],
        track_balances=["alice", "bob"],
        actions=[
            {"tick": 0, "op": "pay", "from": "alice", "to": "bob", "value": 1000},
            {"tick": 2, "op": "pay", "from": "alice", "to": "bob", "value": 2000},
        ],
    )
    result = run_scenario(doc)
    out = tmp_path / "metrics.csv"
    rows_written = export_metrics(result.log, out)
    with out.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, data = rows[0], rows[1:]
    assert rows_written == 4
    assert len(data) == 4
    assert header[:5] == ["tick", "events", "submitted", "confirmed", "mean_delay"]
    assert "bal_alice" in header and "bal_bob" in header
    bob = header.index("bal_bob")
    assert data[0][bob] == "1000"
    assert data[3][bob] == "3000"
    # both payments confirmed in the same tick they entered the mempool
    assert data[2][header.index("mean_delay")] == "0.0000"


def test_metrics_mean_delay_is_the_mean_of_every_delay_so_far(tmp_path):
    # an 80-byte broadcast is a nonstandard carrier: the strict miner leaves it
    # waiting while bob's payments confirm at once, so the mean is not 0
    doc = _minimal(
        seed=3,
        ticks=10,
        actors=["alice", "bob"],
        genesis=[
            {"actor": "alice", "value": 50_000_000},
            {"actor": "bob", "coins": 3, "value": 50_000_000},
        ],
        miners=[
            {"id": "strict", "hashrate": 0.8, "accepts_nonstandard": False},
            {"id": "lax", "hashrate": 0.2},
        ],
        actions=[
            {"tick": 0, "op": "xcp_broadcast", "actor": "alice", "timestamp": 1, "value": 1,
             "text": "x" * 80},
            {"tick": 1, "op": "pay", "from": "bob", "to": "alice", "value": 1000},
            {"tick": 3, "op": "pay", "from": "bob", "to": "alice", "value": 1000},
        ],
    )
    log = run_scenario(doc).log
    out = tmp_path / "metrics.csv"
    export_metrics(log, out)
    with out.open(newline="", encoding="utf-8") as handle:
        header, *data = list(csv.reader(handle))
    column = header.index("mean_delay")

    delays: list[int] = []
    expected = []
    for tick in range(len(data)):
        for block in log.matching("host/block"):
            if block.tick == tick:
                delays += block.payload["delays"]
        expected.append(f"{sum(delays) / len(delays):.4f}" if delays else "")
    assert [row[column] for row in data] == expected
    assert expected[0] == "" and expected[1] == "0.0000"
    assert sorted(set(delays)) == [0, 7] and expected[-1] == "2.3333"


def test_metrics_carries_stake_columns(tmp_path):
    path = next(p for p in bundled_scenarios() if p.stem == "truthcoin_capture")
    result = run_scenario(path)
    out = tmp_path / "tc.csv"
    export_metrics(result.log, out)
    header = out.read_text(encoding="utf-8").splitlines()[0].split(",")
    assert "stake_attacker" in header
    assert "stake_honest_a" in header


# -------------------------------------------------------------------- cli


def _scenario_path(stem: str) -> str:
    return str(next(p for p in bundled_scenarios() if p.stem == stem))


def test_cli_run_writes_log_and_exits_zero(tmp_path, capsys):
    code = main(["run", _scenario_path("will_claim"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "digest" in out
    assert (tmp_path / "will_claim.log.jsonl").exists()


def test_cli_run_reports_assertion_failures(tmp_path, capsys):
    doc = json.loads(Path(_scenario_path("will_claim")).read_text(encoding="utf-8"))
    doc["assertions"] = [{"kind": "balance", "actor": "heir", "value": 1}]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["run", str(bad), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def _will_oz(condition, **fields):
    """An oz_contract action naming what will_claim declares."""
    condition = {"comparator": "eq", "threshold": 1, "source": "registry",
                 "beneficiary": "heir", **condition}
    return {**_oz_contract(**condition), "alice": "owner", "bob": "heir", "default": "owner",
            **fields}


def _mutated(stem, mutate):
    doc = json.loads(Path(_scenario_path(stem)).read_text(encoding="utf-8"))
    mutate(doc)
    return doc


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["actions"][1].pop("heir"), "scenario.actions[1]: missing field 'heir'"),
        (lambda d: d["genesis"][0].update(value=-1), "scenario.genesis[0].value: -1 does not fit u64"),
        (lambda d: d.update(tick_seconds="x"), "scenario.tick_seconds: expected int, got str"),
        (lambda d: d["assertions"][0].pop("event"), "scenario.assertions[0]: missing field"),
        (lambda d: d.update(miners=[{"hashrate": 1.0}]), "scenario.miners[0]: missing field 'id'"),
        (lambda d: d["actions"][0].update(amount="x"), "scenario.actions[0].amount: expected int"),
        (lambda d: d.update(miners=[{"id": "m", "hashrate": 2.0}]), "scenario.miners[0]: hash"),
        (lambda d: d["actors"].append("heir"), "scenario: actor 'heir' is declared twice"),
        (lambda d: d["sources"][0].pop("id"), "scenario.sources[0]: missing field 'id'"),
        (
            lambda d: d.update(miners=[{"id": "a", "hashrate": 0.5}]),
            "scenario: miner hashrates must sum to 1, got 0.5",
        ),
        (lambda d: d.update(miners=[]), "scenario: cannot mine without miners"),
        (lambda d: d["actors"].append(""), "scenario: actors[3] is empty"),
        (lambda d: d["genesis"][0].update(value=2**64),
         f"scenario.genesis[0].value: {2**64} does not fit u64"),
        (lambda d: d["genesis"][0].update(coins=0x10000),
         "scenario.genesis[0].coins: 65536 does not fit u16"),
        (lambda d: d["genesis"].append(dict(d["genesis"][0], coins=0xFFFF)),
         "scenario: genesis[1]: the genesis transaction holds at most 65535 outputs"),
        (lambda d: d["actions"].insert(0, {"tick": 0, "op": "xcp_broadcast", "actor": "owner",
                                           "timestamp": -1, "value": 0}),
         "scenario.actions[0].timestamp: -1 does not fit u64"),
        (lambda d: d["actions"].insert(0, {"tick": 0, "op": "xcp_bet", "actor": "owner",
                                           "feed": "owner", "comparator": "ge", "target": 0,
                                           "deadline": 0, "wager": 1, "counterwager": 1,
                                           "side": 256}),
         "scenario.actions[0].side: 256 does not fit u8"),
        (lambda d: d["actions"].insert(0, _will_oz({}, refund_locktime=-1)),
         "scenario.actions[0].refund_locktime: -1 does not fit u64"),
        (lambda d: d["actions"][1].update(heir="carol"),
         "scenario.actions[1].heir: unknown actor 'carol'"),
        (lambda d: d["actions"][0].update(source="almanac"),
         "scenario.actions[0].source: unknown source 'almanac'"),
        (lambda d: d["actions"].insert(0, _will_oz({"beneficiary": "carol"})),
         "scenario.actions[0].conditions[0].beneficiary: unknown actor 'carol'"),
        (lambda d: d["actions"].insert(0, _will_oz({"source": "almanac"})),
         "scenario.actions[0].conditions[0].source: unknown source 'almanac'"),
        (lambda d: d["actions"].insert(0, _will_oz({}, arbitrator="carol")),
         "scenario.actions[0].arbitrator: unknown actor 'carol'"),
        (lambda d: d["actions"].append({"tick": 0, "op": "balances", "actors": ["heir", "carol"]}),
         "scenario.actions[3].actors[1]: unknown actor 'carol'"),
        (lambda d: d["genesis"][0].update(actor="carol"),
         "scenario.genesis[0].actor: unknown actor 'carol'"),
        (lambda d: d.update(track_balances=["carol"]),
         "scenario.track_balances[0]: unknown actor 'carol'"),
        (lambda d: d["assertions"].insert(0, {"kind": "balance", "actor": "carol", "value": 0}),
         "scenario.assertions[0].actor: unknown actor 'carol'"),
        (lambda d: d.update(actors=["owner", "heir", 1]),
         "scenario.actors[2]: expected str, got int"),
        (lambda d: d.update(genesis=[{"actor": "owner", "coins": 3, "value": 2**63}],
                            actions=[{"tick": 0, "op": "pay", "from": "owner", "to": "heir",
                                      "value": 2**64}]),
         f"scenario.actions[0].value: {2**64} does not fit u64"),
    ],
    ids=[
        "claim_without_heir",
        "negative_genesis",
        "tick_seconds_string",
        "count_without_event",
        "miner_without_id",
        "amount_string",
        "hashrate_above_1",
        "duplicate_actor",
        "source_without_id",
        "hashrates_sum_to_half",
        "no_miners",
        "empty_actor",
        "genesis_value_past_u64",
        "genesis_coins_past_u16",
        "genesis_coins_summed_past_u16",
        "xcp_broadcast_timestamp_negative",
        "xcp_bet_side_past_u8",
        "oz_refund_locktime_negative",
        "unknown_actor",
        "unknown_source",
        "unknown_beneficiary",
        "unknown_condition_source",
        "unknown_arbitrator",
        "unknown_actor_in_a_list",
        "unknown_grant_actor",
        "unknown_tracked_actor",
        "unknown_balance_actor",
        "malformed_actors_report_themselves",
        "pay_past_u64",
    ],
)
def test_cli_run_names_the_field_of_a_malformed_scenario(tmp_path, capsys, mutate, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_mutated("will_claim", mutate)), encoding="utf-8")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    assert f"parse error: {message}" in capsys.readouterr().err


def test_cli_seed_flag_equals_editing_the_seed_in_the_file(tmp_path):
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(_mutated("will_claim", lambda d: d.update(seed=424242))))
    original = _scenario_path("will_claim")
    assert main(["run", original, "--seed", "424242", "--out", str(tmp_path / "a")]) == 0
    assert main(["run", str(edited), "--out", str(tmp_path / "b")]) == 0
    assert main(["run", original, "--out", str(tmp_path / "c")]) == 0
    logs = [(tmp_path / d / "will_claim.log.jsonl").read_bytes() for d in "abc"]
    assert logs[0] == logs[1] != logs[2]


def test_oz_contract_takes_an_arbitrator():
    # what each holds after staking from 2e8; the escrow pays 1e8 less two fees
    left = {"alice": 200_000_000 - 60_000_000, "bob": 200_000_000 - 40_000_000}
    for condition, winner in ((0, "bob"), (1, "bob"), (None, "alice")):

        def arbitrated(doc):
            doc["actors"].append("carol")
            create = next(a for a in doc["actions"] if a["op"] == "oz_contract")
            doc["actions"] = [
                dict(create, arbitrator="carol"),
                {"tick": 1, "op": "oz_arbitrate", "id": "z1", "arbitrator": "carol",
                 "condition": condition},
                {"tick": 1, "op": "oz_cosign", "id": "z1", "agent": winner},
            ]
            doc["assertions"] = [
                {"kind": "count", "event": "oz/contract", "value": 1},
                {"kind": "last_event", "event": "oz/arbitrated", "field": "condition",
                 "value": condition},
                {"kind": "count", "event": "oz/cosigned", "value": 1},
                {"kind": "balance", "actor": winner,
                 "value": left[winner] + 100_000_000 - 2 * 1000},
            ]

        result = run_scenario(_mutated("oraclize_milan", arbitrated))
        assert result.passed, result.failures


@pytest.mark.parametrize(
    "arbitrated, decision, reason",
    [
        (False, {}, "OraclizeError"),  # the oracle resolves this contract
        (True, {"arbitrator": "bob"}, "OraclizeError"),  # not the contract's arbitrator
        (True, {"condition": 2}, "OraclizeError"),  # the contract has two conditions
        (True, {"condition": -1}, "OraclizeError"),
        (True, {"fee": 200_000_000}, "ValueError"),  # more than the escrow holds
    ],
    ids=["oracle_resolved", "wrong_arbitrator", "past_the_last", "negative", "fee_over_escrow"],
)
def test_oz_arbitrate_refusal_is_an_event(arbitrated, decision, reason):
    def refused(doc):
        doc["actors"].append("carol")
        create = next(a for a in doc["actions"] if a["op"] == "oz_contract")
        if arbitrated:
            create["arbitrator"] = "carol"
        arbitrate = {"op": "oz_arbitrate", "id": "z1", "arbitrator": "carol", "condition": 0}
        doc["actions"] = [create, dict(arbitrate, tick=1, **decision)]
        cosign = {"tick": 2, "op": "oz_cosign", "id": "z1", "agent": "bob"}
        if arbitrated:  # a refused decision settles nothing: the arbitrator decides again
            doc["actions"] += [dict(arbitrate, tick=2), cosign]
        refusal = {"op": "oz_arbitrate", "reason": reason}
        doc["assertions"] = [
            {"kind": "count", "event": "run/refused", "where": refusal, "value": 1},
            {"kind": "count", "event": "run/refused", "value": 1},
            {"kind": "count", "event": "oz/arbitrated", "value": int(arbitrated)},
            {"kind": "count", "event": "oz/cosigned", "value": int(arbitrated)},
        ]

    result = run_scenario(_mutated("oraclize_milan", refused))
    assert result.passed, result.failures
    assert (result.log.events[-1].module, result.log.events[-1].kind) == ("run", "end")


def test_scalar_decision_resolves_to_the_stake_weighted_median():
    stakes = {"v1": 2000, "v2": 3000, "v3": 5000}
    # the median by stake (10) is neither the plain median (50) nor the mean (39)
    reports = {"v1": 50.0, "v2": 80.0, "v3": 10.0}

    def scalar(doc):
        decision = next(a for a in doc["actions"] if a["op"] == "tc_decision")
        decision.update(kind="scalar", min=0.0, max=100.0)
        for action in doc["actions"]:
            if action["op"] == "tc_commit":
                action["reports"] = {"d1": reports[action["actor"]]}
        doc["assertions"] = [
            {"kind": "last_event", "event": "tc/outcome", "field": "unresolvable",
             "value": False},
            {"kind": "last_event", "event": "tc/veto", "field": "outcome", "value": "confirmed"},
        ]

    result = run_scenario(_mutated("truthcoin_market", scalar))
    assert result.passed, result.failures
    ordered = sorted(stakes, key=reports.get)
    median = next(
        reports[v] for i, v in enumerate(ordered)
        if 2 * sum(stakes[u] for u in ordered[: i + 1]) >= sum(stakes.values())
    )
    [outcome] = result.log.matching("tc/outcome", {"decision": "d1"})
    assert outcome.payload["outcome"] == median == 10.0
    # two long shares of a scalar pay (outcome - min) / (max - min) each
    [redeem] = result.log.matching("tc/redeem")
    assert redeem.payload["payout"] == int(2 * 0.1 * 10**8)
    # the voter farthest from the outcome loses stake to the closest
    staked = {e.payload["actor"]: e.payload["stake"] for e in result.log.matching("tc/stake")}
    assert staked["v2"] < stakes["v2"] and staked["v3"] > stakes["v3"]
    assert sum(staked.values()) == sum(stakes.values())


def test_tc_peg_out_burns_the_amount_and_refuses_an_overdraw():
    def pegged_out(doc):
        doc["actions"] += [
            {"tick": 5, "op": "tc_peg_out", "actor": "trader", "amount": 300_000_000},
            {"tick": 5, "op": "tc_peg_out", "actor": "maker", "amount": 10**12},
            {"tick": 5, "op": "tc_peg_out", "actor": "maker", "amount": -1},
            {"tick": 5, "op": "tc_snapshot"},
        ]
        doc["assertions"] = [
            {"kind": "count", "event": "tc/peg_out", "value": 1},
            {"kind": "last_event", "event": "tc/peg_out", "field": "actor", "value": "trader"},
            {"kind": "count", "event": "run/refused", "where": {"op": "tc_peg_out",
             "reason": "InsufficientCSHError"}, "value": 1},
            {"kind": "last_event", "event": "run/refused", "field": "reason",
             "value": "ValueError"},
            {"kind": "count", "event": "run/refused", "value": 2},
        ]

    result = run_scenario(_mutated("truthcoin_market", pegged_out))
    assert result.passed, result.failures
    accounts = result.log.matching("tc/account")
    half = len(accounts) // 2
    before = {e.payload["actor"]: e.payload["csh"] for e in accounts[:half]}
    after = {e.payload["actor"]: e.payload["csh"] for e in accounts[half:]}
    # nothing trades between the two snapshots, so the supply falls by the balances
    assert sum(after.values()) == sum(before.values()) - 300_000_000
    assert after == dict(before, trader=before["trader"] - 300_000_000)


def _last(op, **change):
    return lambda doc: [a for a in doc["actions"] if a["op"] == op][-1].update(change)


@pytest.mark.parametrize(
    "mutate, op, trader_csh",
    [
        (_last("tc_market", b=1e308), "tc_market", [1_000_000_000]),
        (_last("tc_trade", shares=1e308), "tc_trade", [1_000_000_000]),
        # no sidechain, so the trader never holds CSH
        (_last("tc_init", severity=math.inf), "tc_init", []),
        (_last("tc_init", severity=-1), "tc_init", []),  # it would slash nothing
    ],
    ids=["market_b", "trade_shares", "init_severity", "init_severity_negative"],
)
def test_a_truthcoin_amount_past_the_float_range_is_refused(mutate, op, trader_csh):
    result = run_scenario(_mutated("truthcoin_market", mutate))
    assert (result.log.events[-1].module, result.log.events[-1].kind) == ("run", "end")
    assert result.log.matching("run/refused")[0].payload == {"op": op, "reason": "ValueError"}
    accounts = result.log.matching("tc/account", {"actor": "trader"})
    assert [e.payload["csh"] for e in accounts] == trader_csh


def _cosign_by_outsider(doc):
    doc["actors"].append("carol")
    _last("oz_cosign", agent="carol")(doc)


_OZ_WITHOUT_CONTRACT = [("oz_poll", "KeyError")] * 3 + [("oz_cosign", "KeyError")]


@pytest.mark.parametrize(
    "stem, mutate, refused, txs_at_1",
    [
        # the tick-1 poll comes before milan.temp's first entry
        ("oraclize_milan", lambda d: d["sources"][0]["entries"][0].update(time=1700010000),
         [("oz_poll", "NoDataError")], 1),
        # the escrow cannot pay the fee; the cosign then finds no settlement
        ("oraclize_milan", _last("oz_poll", fee=10**9),
         [("oz_poll", "ValueError"), ("oz_cosign", "KeyError")], 1),
        ("oraclize_milan", _cosign_by_outsider, [("oz_cosign", "BadWitnessError")], 1),
        ("oraclize_dead_oracle",
         lambda d: d["actions"].append({"tick": 6, "op": "oz_default", "id": "z1", "fee": 10**9}),
         [("oz_default", "ValueError")], 1),
        # a refused contract broadcasts nothing: no funding reaches block 1,
        # and every later op on it finds no contract
        ("oraclize_milan", _last("oz_contract", stakes=[0, 0], fee=0),
         [("oz_contract", "ValueError"), *_OZ_WITHOUT_CONTRACT], 0),
        # the escrow covers its own fee but not the refund's
        ("oraclize_milan", _last("oz_contract", stakes=[1500, 1000], fee=1500),
         [("oz_contract", "ValueError"), *_OZ_WITHOUT_CONTRACT], 0),
        # the maker then cannot fund the market, so nothing trades in it
        ("truthcoin_market", lambda d: d["actions"][1].update(amount=-5),
         [("tc_peg_in", "ValueError"), ("tc_market", "InsufficientCSHError"),
          ("tc_trade", "KeyError"), ("tc_redeem", "KeyError")], 0),
        # ops that need the registry or the sidechain, before the op that makes it
        ("will_claim", lambda d: d["actions"].insert(0, {"tick": 0, "op": "rk_post", "fact": "f"}),
         [("rk_post", "LookupError")], 1),
        ("will_claim", lambda d: d["actions"].insert(0, {"tick": 0, "op": "tc_ballot"}),
         [("tc_ballot", "LookupError")], 1),
        # one refusal per module error base that an op lets through
        ("orisi_election",
         lambda d: d["actions"].insert(3, {"tick": 0, "op": "orisi_finalize", "id": "e1"}),
         [("orisi_finalize", "QuorumNotReachedError")], 1),
        ("realitykeys_stake",  # right after the post, inside the objection window
         lambda d: d["actions"].insert(5, {"tick": 6, "op": "rk_finalize", "fact": "snow"}),
         [("rk_finalize", "TooEarlyError")], 2),
        ("oraclize_milan",
         lambda d: d["actions"].append({"tick": 6, "op": "oz_default", "id": "z1"}),
         [("oz_default", "AlreadySettledError")], 1),
    ],
    ids=["oz_poll_before_data", "oz_poll_fee", "oz_cosign_outsider", "oz_default_fee",
         "oz_zero_stakes", "oz_refund_short", "tc_peg_in_negative", "rk_before_registry",
         "tc_before_init", "orisi_finalize_before_poll", "rk_finalize_in_window",
         "oz_default_after_settlement"],
)
def test_a_refused_op_is_logged_and_the_run_goes_on(stem, mutate, refused, txs_at_1):
    result = run_scenario(_mutated(stem, mutate))
    assert (result.log.events[-1].module, result.log.events[-1].kind) == ("run", "end")
    logged = [(e.payload["op"], e.payload["reason"]) for e in result.log.matching("run/refused")]
    assert logged == refused
    [block] = result.log.matching("host/block", {"height": 1})
    assert block.payload["txs"] == txs_at_1


@pytest.mark.parametrize(
    "base",
    [will_oracle.WillError, realitykeys.RealityKeysError, orisi.OrisiError,
     truthcoin.TruthcoinError, oraclize.OraclizeError, counterparty.CounterpartyError],
    ids=lambda base: base.__name__,
)
def test_every_module_error_base_is_a_refusal(base):
    """The harness refuses an op on a ValueError or a LookupError and names
    no module, so each module's error base must be a ValueError."""
    assert issubclass(base, ValueError)


def test_a_refused_op_keeps_what_it_did_before_the_refusal():
    def unfunded(doc):  # bob cannot fund his stake, after alice's is broadcast
        next(a for a in doc["actions"] if a["op"] == "rk_temps")["stakes"][1] = 10**12

    log = run_scenario(_mutated("realitykeys_stake", unfunded)).log
    assert log.matching("run/refused")[0].payload == {
        "op": "rk_temps", "reason": "InsufficientFundsError"
    }
    [stake] = log.matching("rk/tx_submitted")
    [block] = log.matching("host/block", {"height": 1})
    assert (stake.tick, block.payload["txs"]) == (0, 1)


@pytest.mark.parametrize("human_agrees", [True, False, None], ids=["agrees", "disagrees", "absent"])
def test_an_objection_is_flipped_only_when_the_finalized_outcome_moves(human_agrees):
    def judge(doc):
        registry = next(a for a in doc["actions"] if a["op"] == "rk_registry")
        del registry["human_agrees"]
        if human_agrees is not None:
            registry["human_agrees"] = human_agrees

    log = run_scenario(_mutated("realitykeys_objection", judge)).log
    [objection] = log.matching("rk/objection", {"accepted": True})
    [posted] = log.matching("rk/result")
    [final] = log.matching("rk/finalized")
    moved = final.payload["outcome"] != posted.payload["outcome"]
    assert objection.payload["flipped"] is moved is (human_agrees is True)


@pytest.mark.parametrize(
    "stem, op, refused",
    [("oraclize_milan", "oz_contract", "oz_contract"), ("realitykeys_stake", "rk_temps", "rk_contract")],
)
def test_an_escrow_past_u64_is_refused(stem, op, refused):
    """Each stake fits u64, but the escrow output that holds both does not."""

    def rich(doc):
        for grant in doc["genesis"]:
            grant.update(value=2**64 - 1, coins=2)
        next(a for a in doc["actions"] if a["op"] == op)["stakes"] = [2**64 - 1, 2**64 - 1]

    log = run_scenario(_mutated(stem, rich)).log
    assert log.matching("run/refused")[0].payload == {"op": refused, "reason": "ValueError"}
    assert (log.events[-1].module, log.events[-1].kind) == ("run", "end")


@pytest.mark.parametrize("error", [TypeError, AttributeError])
def test_an_op_raising_a_harness_error_is_not_refused(monkeypatch, error):
    def broken(w, blocks=1):
        raise error("a bug in the harness")

    monkeypatch.setitem(scenario_module._OPS, "mine", broken)
    with pytest.raises(error):
        run_scenario(_minimal(actions=[{"tick": 0, "op": "mine"}]))


@pytest.mark.parametrize("comparator, threshold", [("gt", 0.5), ("eq", 1)])
def test_rk_fact_on_a_feed_of_another_kind_posts_no(comparator, threshold):
    def retyped(doc):  # the snow feed holds events, the threshold is a number
        fact = next(a for a in doc["actions"] if a["op"] == "rk_fact")
        fact.update(comparator=comparator, threshold=threshold)
        doc["assertions"] = [
            {"kind": "last_event", "event": "rk/result", "field": "outcome", "value": "no"}
        ]

    result = run_scenario(_mutated("realitykeys_stake", retyped))
    assert result.passed
    assert (result.log.events[-1].module, result.log.events[-1].kind) == ("run", "end")


_NO_ORDER = "event and label conditions take eq or ne, not an ordering"


@pytest.mark.parametrize(
    "stem, op, change, message",
    [
        ("realitykeys_stake", "rk_fact", {"key": "city.rain"},
         "source 'weather' has no key 'city.rain'"),
        ("realitykeys_stake", "rk_fact", {"source": "almanac"}, "unknown source 'almanac'"),
        ("orisi_election", "orisi_propose", {"key": "election.turnout"},
         "source 'returns' has no key 'election.turnout'"),
        ("oraclize_milan", "oz_contract", {"key": "milan.wind"},
         "source 'wolfram' has no key 'milan.wind'"),
        ("realitykeys_stake", "rk_fact", {"comparator": "lt", "threshold": True}, _NO_ORDER),
        ("orisi_election", "orisi_propose", {"comparator": "ge", "threshold": "candidate-a"},
         _NO_ORDER),
        ("oraclize_milan", "oz_contract", {"comparator": "le", "threshold": True}, _NO_ORDER),
    ],
    ids=["rk_key", "rk_source", "orisi_key", "oz_key", "rk_lt_event", "orisi_ge_label",
         "oz_le_event"],
)
def test_cli_run_refuses_a_condition_when_the_scenario_is_parsed(
    tmp_path, capsys, stem, op, change, message
):
    doc = _mutated(stem, lambda d: None)
    index, action = next((i, a) for i, a in enumerate(doc["actions"]) if a["op"] == op)
    (action["conditions"][0] if op == "oz_contract" else action).update(change)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    assert f"parse error: scenario: actions[{index}]: {message}" in capsys.readouterr().err


def test_cli_run_refuses_an_rk_fact_resolving_before_its_series(tmp_path, capsys):
    def early(doc):
        doc["sources"][0]["entries"] = [{"key": "city.snow", "time": 1700018000, "value": True}]
        doc["actions"][1]["resolution_time"] = 1700007200

    bad = tmp_path / "early.json"
    bad.write_text(json.dumps(_mutated("realitykeys_stake", early)), encoding="utf-8")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "parse error: scenario: actions[1]: "
        "weather: no entry for 'city.snow' at or before t=1700007200\n"
    )


def test_cli_run_rejects_malformed_script(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{", encoding="utf-8")
    code = main(["run", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_verify_compares_logs(tmp_path, capsys):
    main(["run", _scenario_path("will_claim"), "--out", str(tmp_path)])
    log = tmp_path / "will_claim.log.jsonl"
    twin = tmp_path / "twin.jsonl"
    twin.write_bytes(log.read_bytes())
    capsys.readouterr()
    assert main(["verify", str(log), str(twin)]) == 0
    assert capsys.readouterr().out == "identical\n"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)

    # the twin runs on past the log: it is longer, and its first extra line is named
    extra = '{"kind":"x","module":"m","payload":{},"tick":9}\n'
    twin.write_text("".join(lines) + extra, encoding="utf-8")
    n = len(lines) + 1
    for pair in ([log, twin], [twin, log]):
        assert main(["verify", *map(str, pair)]) == 1
        assert capsys.readouterr().out == (
            f"logs differ: {twin} is longer, from line {n}\n"
            f"{twin}: tick 9 m/x: {extra}"
        )

    # line 3 differs: both versions of it are printed, with its tick and module/kind
    changed = lines[2].replace('"delays":[0]', '"delays":[1]')
    assert changed != lines[2] and lines[2].startswith('{"kind":"block","module":"host"')
    twin.write_text("".join(lines[:2] + [changed] + lines[3:5]), encoding="utf-8")
    assert main(["verify", str(log), str(twin)]) == 1
    assert capsys.readouterr().out == (
        "logs differ at line 3\n"
        f"{log}: tick 0 host/block: {lines[2]}"
        f"{twin}: tick 0 host/block: {changed}"
    )


def test_cli_verify_and_metrics_refuse_a_malformed_log(tmp_path, capsys):
    main(["run", _scenario_path("will_claim"), "--out", str(tmp_path)])
    log = tmp_path / "will_claim.log.jsonl"
    capsys.readouterr()
    for name, text in (("junk.log", "not json\n"), ("nomodule.log", '{"kind":"x","tick":0}\n')):
        bad = tmp_path / name
        bad.write_text(text, encoding="utf-8")
        assert main(["verify", str(log), str(bad)]) == 2
        assert main(["metrics", str(bad), str(tmp_path / "m.csv")]) == 2
        assert f"error: {bad}: line 1: " in capsys.readouterr().err

    # canonical logs whose payloads the table cannot read: `metrics` names
    # the line and the field, and opens no CSV
    cases = {
        "tc/stake payload 'actor' missing or not a string": ("tc", "stake", {"stake": 5}),
        "host/block payload 'txs' missing or not an integer": (
            "host", "block", {"txs": "2", "delays": []}
        ),
        "host/block payload 'delays' missing or not a list of integers": (
            "host", "block", {"txs": 1, "delays": ["0"]}
        ),
        "host/balances payload 'balances' missing or not an object of integers": (
            "host", "balances", {"balances": {"alice": None}}
        ),
        "run/end payload 'ticks' missing or not an integer": ("run", "end", {"ticks": True}),
    }
    for number, (message, (module, kind, payload)) in enumerate(cases.items()):
        bad_log = EventLog()
        bad_log.append(0, "host", "block", {"txs": 0, "delays": []})
        bad_log.append(1, module, kind, payload)
        bad = tmp_path / f"payload{number}.log"
        bad_log.write(bad)
        out = tmp_path / f"payload{number}.csv"
        assert main(["metrics", str(bad), str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: line 2: {message}\n"
        assert captured.out == "" and not out.exists()


def test_metrics_refuses_a_negative_tick(tmp_path, capsys):
    # canonical, so `read` takes it; no row of the table could hold line 1
    bad = tmp_path / "negative.log"
    bad.write_bytes(
        b'{"kind":"tx_submitted","module":"x","payload":{},"tick":-1}\n'
        b'{"kind":"end","module":"run","payload":{"ticks":1},"tick":0}\n'
    )
    out = tmp_path / "negative.csv"
    with pytest.raises(LogFormatError, match=r"^line 1: tick -1 is negative$"):
        export_metrics(EventLog.read(bad), out)
    assert not out.exists()
    assert main(["metrics", str(bad), str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: line 1: tick -1 is negative\n"
    assert captured.out == "" and not out.exists()


def test_cli_verify_refuses_an_unreadable_log(tmp_path, capsys):
    main(["run", _scenario_path("will_claim"), "--out", str(tmp_path)])
    capsys.readouterr()
    missing = tmp_path / "nosuch.log"
    assert main(["verify", str(missing), str(tmp_path / "will_claim.log.jsonl")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


def test_cli_metrics_refuses_an_unreadable_log(tmp_path, capsys):
    missing = tmp_path / "nosuch.log"
    assert main(["metrics", str(missing), str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("kind", ["not_utf8", "too_deep"])
def test_cli_run_reports_an_unloadable_scenario_as_a_parse_error(tmp_path, capsys, kind):
    path = tmp_path / "broken.json"
    path.write_bytes(_UNLOADABLE[kind])
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"parse error: cannot load {path}: ")


def test_cli_run_refuses_an_out_dir_it_cannot_write(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "logs"
    assert main(["run", _scenario_path("will_claim"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out / 'will_claim.log.jsonl'}: ")
    assert captured.out == ""


def test_cli_metrics_refuses_an_out_path_it_cannot_write(tmp_path, capsys):
    main(["run", _scenario_path("will_claim"), "--out", str(tmp_path)])
    capsys.readouterr()
    out = tmp_path / "nosuch" / "m.csv"
    assert main(["metrics", str(tmp_path / "will_claim.log.jsonl"), str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.out == ""


def test_cli_metrics_writes_csv(tmp_path, capsys):
    main(["run", _scenario_path("counterparty_bet"), "--out", str(tmp_path)])
    code = main(
        ["metrics", str(tmp_path / "counterparty_bet.log.jsonl"), str(tmp_path / "m.csv")]
    )
    assert code == 0
    assert (tmp_path / "m.csv").read_text(encoding="utf-8").startswith("tick,")


def test_cli_orisi_params(capsys):
    assert main(["orisi-params", "4", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"m": 4, "n": 7, "threshold": 8, "total_keys": 11, "agent_keys": 4}
    assert main(["orisi-params", "0", "5"]) == 2


def test_cli_decode_payload_round_trips(capsys):
    key_txid = bytes(range(32))
    payload = encode_message(Send(asset="XCP", qty=77, dest="ab" * 32), key_txid)
    code = main(["decode-payload", payload.hex(), key_txid.hex()])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"type": "send", "asset": "XCP", "qty": 77, "dest": "ab" * 32}
    assert main(["decode-payload", payload.hex(), bytes(32).hex()]) == 2


def test_cli_classify_tx_era_split(capsys):
    tx = serialize_tx(Transaction(inputs=(), outputs=(TxOutput(0, DataCarrier(bytes(60))),)))
    assert main(["classify-tx", tx.hex(), "--era", "test2013"]) == 0
    assert json.loads(capsys.readouterr().out) == {"standard": True}
    assert main(["classify-tx", tx.hex(), "--era", "v090"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["standard"] is False
    assert doc["reason"] == "data_payload_too_large"


def _tx_with_nested_lock(levels):
    """A transaction whose one output is a pay-to-key inside `levels` time locks."""
    head = struct.pack("<HHQ", 0, 1, 0)  # no inputs; one output of value 0
    time_lock = b"\x05" + struct.pack("<Q", 0)  # TimeLocked tag, unlock height
    pay_to_key = b"\x01" + bytes(32)  # tag, pub
    return head + time_lock * levels + pay_to_key + struct.pack("<Q", 0)  # locktime


# has_redeem is the byte after u16 n_inputs, the outpoint and u16 n_signatures
_WITH_INPUT = serialize_tx(
    Transaction(
        inputs=(TxInput((bytes(32), 0), Witness(redeem=PayToKey(bytes(32)))),),
        outputs=(TxOutput(0, DataCarrier(b"x")),),
    )
)
_HAS_REDEEM = 2 + 32 + 4 + 2


@pytest.mark.parametrize(
    "tx_hex, message",
    [
        ("not hex", "non-hexadecimal"),
        (_WITH_INPUT[:-1].hex(), "need 8 bytes"),
        ((_WITH_INPUT + b"\x00").hex(), "1 trailing bytes"),
        (
            (_WITH_INPUT[:_HAS_REDEEM] + b"\x02" + _WITH_INPUT[_HAS_REDEEM + 1 :]).hex(),
            "flag byte 2",
        ),
        (_tx_with_nested_lock(MAX_LOCK_DEPTH + 1).hex(), "nested deeper than"),
        (_tx_with_nested_lock(5000).hex(), "nested deeper than"),
    ],
    ids=["not_hex", "truncated", "trailing_byte", "flag_2", "nested", "nested_5000"],
)
def test_cli_classify_tx_refuses_bytes_that_are_not_one_transaction(capsys, tx_hex, message):
    assert main(["classify-tx", tx_hex]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_cli_run_reports_an_ordering_check_on_values_that_do_not_order(tmp_path, capsys):
    check = {"kind": "last_event", "event": "will/claimed", "field": "accepted", "op": "<",
             "value": "x"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_mutated("will_claim", lambda d: d["assertions"].append(check))))
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL last will/claimed.accepted = True, wanted < 'x'" in out
    assert "1 assertion(s) failed" in out
