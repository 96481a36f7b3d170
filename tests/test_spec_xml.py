"""Tests for the Fig. 6 XML format: leniency layer, parsing, round-trip."""

from __future__ import annotations

import pytest

from repro.automata import AutomatonRuntime, SimpleEnvironment
from repro.errors import SpecificationError
from repro.messaging import Semantics
from repro.spec import (
    FIG6_CANONICAL,
    FIG6_TMAX,
    FIG6_TMIN,
    FIG6_VERBATIM,
    ControlParadigm,
    lenient_xml,
    parse_link_spec,
    serialize_link_spec,
)


# ----------------------------------------------------------------------
# leniency layer
# ----------------------------------------------------------------------
def test_lenient_quotes_bare_attributes():
    out = lenient_xml("<type length=16>integer</type>")
    assert 'length="16"' in out


def test_lenient_escapes_guard_bodies():
    out = lenient_xml('<label type="guard">x<tmax</label>')
    assert "x&lt;tmax" in out
    out = lenient_xml('<label type="guard">x>=tmin</label>')
    assert "x&gt;=tmin" in out


def test_lenient_preserves_wellformed_documents():
    doc = '<linkspec><das>x</das><label type="guard">x&lt;5</label></linkspec>'
    assert lenient_xml(doc) == doc


def test_lenient_does_not_touch_rule_bodies_structure():
    doc = '<field name="StateValue" init=0 semantics="state">StateValue=StateValue+ValueChange</field>'
    out = lenient_xml(doc)
    assert 'init="0"' in out
    assert ">StateValue=StateValue+ValueChange<" in out  # body not attribute-quoted


# ----------------------------------------------------------------------
# the paper's verbatim figure
# ----------------------------------------------------------------------
def test_fig6_verbatim_parses():
    link = parse_link_spec(FIG6_VERBATIM, parameters={"tmin": FIG6_TMIN, "tmax": FIG6_TMAX})
    assert link.das == "X-by-wire"
    mt = link.message_types()["msgslidingroof"]
    assert {e.name for e in mt.elements} == {"name", "movementevent", "fullclosure"}
    assert [e.name for e in mt.convertible_elements()] == ["movementevent"]
    assert mt.explicit_name_values() == (731,)
    auto = link.automaton("msgslidingroofreception")
    assert auto.initial == "statepassive"
    assert auto.error == "stateerror"
    assert len(auto.transitions) == 6
    assert link.transfer.has("movementstate")
    assert link.transfer.sources_for("movementstate") == {"ValueChange", "EventTime"}


def test_fig6_verbatim_field_widths():
    link = parse_link_spec(FIG6_VERBATIM, parameters={"tmin": 1, "tmax": 2})
    mt = link.message_types()["msgslidingroof"]
    assert mt.bit_width() == 16 + 16 + 16 + 1  # id + valuechange + eventtime + trigger


# ----------------------------------------------------------------------
# the canonical reconstruction
# ----------------------------------------------------------------------
def test_fig6_canonical_parses_and_is_consistent():
    link = parse_link_spec(FIG6_CANONICAL)
    assert link.das == "comfort"
    assert link.validate_against_automata() == []
    auto = link.automaton("msgSlidingRoofReception")
    assert auto.parameters == {"tmin": FIG6_TMIN, "tmax": FIG6_TMAX}
    assert auto.receive_messages() == {"msgSlidingRoof"}
    mt = link.message_types()["msgSlidingRoof"]
    assert mt.element("MovementEvent").semantics is Semantics.EVENT


def test_fig6_message_survives_repeated_codec_round_trips():
    mt = parse_link_spec(FIG6_CANONICAL).message_types()["msgSlidingRoof"]
    inst = mt.instance(MovementEvent={"ValueChange": 5, "EventTime": 123})
    total = 0
    for _ in range(2000):
        total += mt.decode(mt.encode(inst)).get("MovementEvent", "ValueChange")
    assert total == 10_000


def test_fig6_canonical_automaton_detects_timing_failures():
    link = parse_link_spec(FIG6_CANONICAL)
    auto = link.automaton("msgSlidingRoofReception")
    env = SimpleEnvironment()
    rt = AutomatonRuntime(auto, env)
    env.time = FIG6_TMIN  # legal
    assert rt.on_message("msgSlidingRoof") is True
    rt.poll()  # service completes -> passive
    env.time += FIG6_TMIN // 2  # too early
    assert rt.on_message("msgSlidingRoof") is False
    assert rt.in_error


def test_fig6_canonical_omission_timeout():
    link = parse_link_spec(FIG6_CANONICAL)
    auto = link.automaton("msgSlidingRoofReception")
    env = SimpleEnvironment()
    rt = AutomatonRuntime(auto, env)
    env.time = FIG6_TMAX
    rt.poll()
    assert rt.in_error


def test_fig6_canonical_conversion_rules_run():
    link = parse_link_spec(FIG6_CANONICAL)
    state = link.transfer.new_state("MovementState")
    state.apply({"ValueChange": 30, "EventTime": 500})
    state.apply({"ValueChange": 20, "EventTime": 900})
    assert state.values == {"StateValue": 50, "ObservationTime": 900}


def test_derived_ports_from_automata():
    link = parse_link_spec(FIG6_CANONICAL)
    port = link.port("msgSlidingRoof")
    assert port.is_input  # automaton receives it
    assert port.semantics is Semantics.EVENT  # from MovementEvent


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
def test_serialize_parse_roundtrip():
    link = parse_link_spec(FIG6_CANONICAL)
    text = serialize_link_spec(link)
    again = parse_link_spec(text)
    assert again.das == link.das
    assert set(again.message_types()) == set(link.message_types())
    mt1 = link.message_types()["msgSlidingRoof"]
    mt2 = again.message_types()["msgSlidingRoof"]
    assert mt1.elements == mt2.elements
    a1 = link.automaton("msgSlidingRoofReception")
    a2 = again.automaton("msgSlidingRoofReception")
    assert a1.locations == a2.locations
    assert a1.initial == a2.initial and a1.error == a2.error
    assert len(a1.transitions) == len(a2.transitions)
    assert a1.parameters == a2.parameters
    assert again.transfer.names() == link.transfer.names()
    # Conversion behaviour survives the round trip.
    s1, s2 = link.transfer.new_state("MovementState"), again.transfer.new_state("MovementState")
    for d, t in [(5, 1), (-2, 2)]:
        s1.apply({"ValueChange": d, "EventTime": t})
        s2.apply({"ValueChange": d, "EventTime": t})
    assert s1.values == s2.values


def test_roundtrip_preserves_port_specs():
    link = parse_link_spec(FIG6_CANONICAL)
    again = parse_link_spec(serialize_link_spec(link))
    p1, p2 = link.port("msgSlidingRoof"), again.port("msgSlidingRoof")
    assert p1.direction == p2.direction
    assert p1.semantics == p2.semantics
    assert p1.control == p2.control
    assert p1.queue_depth == p2.queue_depth


# ----------------------------------------------------------------------
# error paths
# ----------------------------------------------------------------------
def test_parse_rejects_non_linkspec_root():
    with pytest.raises(SpecificationError):
        parse_link_spec("<other/>")


def test_parse_rejects_garbage():
    with pytest.raises(SpecificationError):
        parse_link_spec("<linkspec><unclosed</linkspec>")


def test_parse_rejects_duplicate_messages():
    doc = """<linkspec><das>d</das>
      <message name="m"><element name="E" conv="yes">
        <field name="v"><type length="8">integer</type></field></element></message>
      <message name="m"><element name="E" conv="yes">
        <field name="v"><type length="8">integer</type></field></element></message>
    </linkspec>"""
    with pytest.raises(SpecificationError):
        parse_link_spec(doc)


def test_parse_rejects_missing_names():
    with pytest.raises(SpecificationError):
        parse_link_spec("<linkspec><message><element name='e'/></message></linkspec>")
    with pytest.raises(SpecificationError):
        parse_link_spec(
            "<linkspec><message name='m'><element name='e'>"
            "<field name='f'></field></element></message></linkspec>"
        )


def test_parse_automaton_requires_init():
    doc = """<linkspec><das>d</das>
      <timedautomaton name="a"><location name="s"/></timedautomaton></linkspec>"""
    with pytest.raises(SpecificationError):
        parse_link_spec(doc)


def test_parse_unknown_label_type_rejected():
    doc = """<linkspec><das>d</das>
      <timedautomaton name="a"><location name="s"/><init name="s"/>
      <transition><source name="s"/><target name="s"/>
      <label type="mystery">x</label></transition>
      </timedautomaton></linkspec>"""
    with pytest.raises(SpecificationError):
        parse_link_spec(doc)


def test_parse_explicit_port_with_timing():
    doc = """<linkspec><das>d</das>
      <message name="m"><element name="E" conv="yes">
        <field name="v"><type length="8">integer</type></field></element></message>
      <port message="m" direction="output" control="time-triggered" semantics="state"
            interaction="push" dacc="5000000">
        <tt period="10000000" phase="2000000" jitter="1000"/>
      </port>
    </linkspec>"""
    link = parse_link_spec(doc)
    p = link.port("m")
    assert p.control is ControlParadigm.TIME_TRIGGERED
    assert p.tt.period == 10_000_000 and p.tt.phase == 2_000_000
    assert p.temporal_accuracy == 5_000_000


def test_parse_port_unknown_message_rejected():
    doc = """<linkspec><das>d</das>
      <port message="ghost" direction="input"/></linkspec>"""
    with pytest.raises(SpecificationError):
        parse_link_spec(doc)
