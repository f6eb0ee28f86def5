"""Tests for the packed bitvector state core (repro.core)."""

import pytest

from repro.core import (
    LazyDecodedList,
    MarkingCodec,
    NameTable,
    PackedNet,
    PlaceTable,
    SignalTable,
    UnsafeNetError,
    bits_of_mask,
    pack_code,
    unpack_code,
)
from repro.petrinet import Marking, PetriNet, explore
from repro.stategraph import build_state_graph
from repro.stg import STG, SignalType, benchmark_by_name


# ---------------------------------------------------------------------- #
# Name tables
# ---------------------------------------------------------------------- #
def test_name_table_interning_is_stable_and_idempotent():
    table = NameTable(["a", "b"])
    assert table.index("a") == 0
    assert table.index("b") == 1
    assert table.intern("a") == 0  # idempotent
    assert table.intern("c") == 2
    assert table.names == ("a", "b", "c")
    assert len(table) == 3
    assert "b" in table and "z" not in table
    assert table.get("z") is None


def test_name_table_bits_and_masks():
    table = SignalTable(["x", "y", "z"])
    assert table.bit("x") == 1
    assert table.bit("z") == 4
    assert table.full_mask == 0b111
    assert table.mask_of(["x", "z"]) == 0b101
    assert table.names_in(0b101) == ["x", "z"]
    assert table.names_in(0) == []


def test_pack_unpack_code_roundtrip():
    code = (1, 0, 1, 1, 0)
    word = pack_code(code)
    assert word == 0b01101  # leftmost element is the lowest bit
    assert unpack_code(word, 5) == code
    assert bits_of_mask(word) == [0, 2, 3]


# ---------------------------------------------------------------------- #
# Marking codec
# ---------------------------------------------------------------------- #
def test_marking_codec_roundtrip():
    table = PlaceTable(["p0", "p1", "p2"])
    codec = MarkingCodec(table)
    marking = Marking({"p0": 1, "p2": 1})
    word = codec.encode(marking)
    assert word == 0b101
    assert codec.decode(word) == marking
    assert codec.decode_places(word) == ["p0", "p2"]


def test_marking_codec_rejects_non_safe_markings():
    codec = MarkingCodec(PlaceTable(["p"]))
    with pytest.raises(UnsafeNetError):
        codec.encode(Marking({"p": 2}))


# ---------------------------------------------------------------------- #
# Packed token game
# ---------------------------------------------------------------------- #
def _toggle_net():
    net = PetriNet("toggle")
    net.add_place("p", tokens=1)
    net.add_place("q")
    net.add_transition("t")
    net.add_transition("u")
    net.add_arc("p", "t")
    net.add_arc("t", "q")
    net.add_arc("q", "u")
    net.add_arc("u", "p")
    return net


def test_packed_net_token_game_matches_dict_token_game():
    net = _toggle_net()
    pnet = PackedNet(net)
    marking = pnet.initial
    dict_marking = net.initial_marking
    for _ in range(4):
        enabled = pnet.enabled_indices(marking)
        names = [pnet.transitions[i] for i in enabled]
        assert names == net.enabled_transitions(dict_marking)
        marking = pnet.fire(marking, enabled[0])
        dict_marking = net.fire(dict_marking, names[0])
        assert pnet.codec.decode(marking) == dict_marking


def test_packed_net_rejects_weighted_arcs():
    net = PetriNet("weighted")
    net.add_place("p", tokens=1)
    net.add_transition("t")
    net.add_arc("p", "t", weight=2)
    with pytest.raises(UnsafeNetError):
        PackedNet(net)


def test_packed_net_rejects_transition_without_input_place():
    # Always enabled: its second firing would mark q twice.
    net = PetriNet("sourced")
    net.add_place("q")
    net.add_transition("t")
    net.add_arc("t", "q")
    with pytest.raises(UnsafeNetError, match="transition t has no input place"):
        PackedNet(net)


def test_packed_net_rejects_transition_without_output_place():
    # Firing it destroys the token: the marking becomes empty.
    net = PetriNet("sunk")
    net.add_place("p", tokens=1)
    net.add_transition("t")
    net.add_arc("p", "t")
    with pytest.raises(UnsafeNetError, match="transition t has no output place"):
        PackedNet(net)


def test_packed_net_detects_unsafe_firing():
    net = PetriNet("unsafe")
    net.add_place("p", tokens=1)
    net.add_place("q", tokens=1)
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("t", "q")  # fires a second token onto marked q
    pnet = PackedNet(net)
    with pytest.raises(UnsafeNetError):
        pnet.fire(pnet.initial, pnet.transition_index("t"))


def test_explore_falls_back_on_non_safe_nets():
    # The general net layer keeps the dict token game, which reports the
    # bound of a net the packed core refuses.
    net = PetriNet("unsafe")
    net.add_place("p", tokens=1)
    net.add_place("q", tokens=1)
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("t", "q")
    graph = explore(net)
    assert graph.bound() == 2
    assert not graph.is_safe()


def test_explore_forced_packed_raises_instead_of_downgrading():
    # The State Graph has no dict engine to downgrade to: a reachable firing
    # that marks a place twice raises.
    stg = STG("unsafe")
    stg.add_signal("a", SignalType.OUTPUT, initial=0)
    stg.add_place("p", tokens=1)
    stg.add_place("q", tokens=1)
    stg.add_transition("a+")
    stg.add_arc("p", "a+")
    stg.add_arc("a+", "q")
    with pytest.raises(UnsafeNetError):
        build_state_graph(stg)


def test_packed_and_legacy_reachability_agree_on_benchmark():
    # The packed State Graph against the dict token game of the net layer.
    stg = benchmark_by_name("nowick").build()
    packed = build_state_graph(stg)
    legacy = explore(stg.net)
    assert packed.num_states == legacy.num_states
    assert [m.places for m in packed.markings] == [m.places for m in legacy.markings]
    assert packed.edges == legacy.edges
    assert legacy.is_safe()


def test_packed_graph_marking_lookup_handles_unsafe_markings():
    stg = benchmark_by_name("nowick").build()
    graph = build_state_graph(stg)
    assert graph.index_of(stg.net.initial_marking) == 0
    place = sorted(stg.net.initial_marking.places)[0]
    assert graph.index_of(Marking({place: 2})) is None  # unsafe: unreachable
    assert graph.index_of(Marking({"nonexistent": 1})) is None  # unknown place


# ---------------------------------------------------------------------- #
# Lazy decode adapter
# ---------------------------------------------------------------------- #
def test_lazy_decoded_list_decodes_once_and_supports_growth():
    calls = []

    def decode(word):
        calls.append(word)
        return word * 10

    packed = [1, 2]
    view = LazyDecodedList(packed, decode)
    assert view[0] == 10
    assert view[0] == 10
    assert calls == [1]  # cached
    packed.append(3)  # storage grows during construction
    assert len(view) == 3
    assert list(view) == [10, 20, 30]
    assert view[-1] == 30
    assert 20 in view
    assert view[1:] == [20, 30]
    with pytest.raises(IndexError):
        view[3]
    with pytest.raises(IndexError):
        view[-4]
