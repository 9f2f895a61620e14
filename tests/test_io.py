"""The direct node writer against ``json.dumps`` of the dict form."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brt.io import (
    _ints,
    dumps_canonical,
    dumps_with_nodes,
    nodes_json,
    structure_from_json,
    structure_to_json,
    valuation_to_json,
)
from brt.structures import graph_language, make_structure
from brt.valuation import make_valuation

from conftest import DEEP_SIG, TEST_SIGS, brute_level_nodes, sparse_with_upper


def _twin(f):
    return json.dumps(valuation_to_json(f), sort_keys=True, separators=(",", ":"))


def _check_writer(nodes):
    assert nodes_json(nodes) == [_twin(f) for f in nodes]


@pytest.mark.parametrize("sig", TEST_SIGS)
def test_nodes_json_matches_dumps_exhaustively(sig):
    for shift in (0, 1):
        everything = []
        for n in range(4):
            nodes = brute_level_nodes(sig, shift, n)
            _check_writer(nodes)
            everything += nodes
        # One call over every level: entries recur with other values and
        # other companions, all through one memo.
        _check_writer(everything)


@given(st.lists(sparse_with_upper(), max_size=6))
@settings(max_examples=200, deadline=None)
def test_nodes_json_matches_dumps_on_sparse_nodes(pairs):
    _check_writer([f for pair in pairs for f in pair])


def test_nodes_json_renders_equal_tuples_with_their_own_values():
    nodes = [make_valuation(DEEP_SIG, 0, 3, {(0,): 1, (2, 1): 1, (2, 1, 0): 1}),
             make_valuation(DEEP_SIG, 0, 3, {(0,): 1, (2, 1): 2}),
             make_valuation(DEEP_SIG, 1, 3, {(1,): 1, (2, 1): 1})]
    _check_writer(nodes)
    assert nodes_json([]) == []


def test_dumps_with_nodes_matches_dumps_canonical():
    nodes = brute_level_nodes(TEST_SIGS[1], 0, 2)
    dicts = [valuation_to_json(f) for f in nodes]
    obj = {"z": None, "count": 3, "b": True, "empty": [], "none": {}, "levels": (0, 2),
           "nested": [{"y": tuple(nodes[:2]), "x": "s"}, {}], "nodes": nodes,
           "tiers": [[], nodes[3:5], [nodes[0]]], "one": nodes[7]}
    want = {**obj, "nested": [{"y": dicts[:2], "x": "s"}, {}], "nodes": dicts,
            "tiers": [[], dicts[3:5], [dicts[0]]], "one": dicts[7]}
    assert dumps_with_nodes(obj) == dumps_canonical(want)
    assert dumps_with_nodes({}) == "{}\n"
    assert dumps_with_nodes(nodes[:1]) == dumps_canonical(dicts[:1])


def test_ints_reads_an_integer_list_whole_and_names_any_other_entry():
    assert _ints([], "levels") == () and _ints([3, 0, 7], "levels") == (3, 0, 7)
    for bad, shown in (([1, True], "true"), ([1, 2.5], "2.5"), ([[1]], "[1]"), (["1"], '"1"')):
        with pytest.raises(ValueError) as err:
            _ints(bad, "a tuple")
        assert str(err.value) == f"a tuple must be an integer, got {shown}"
    with pytest.raises(ValueError, match='^levels must be a list, got "0,1"$'):
        _ints("0,1", "levels")


@pytest.mark.parametrize("flag,shown", [("false", '"false"'), (0, "0"), (None, "null")])
def test_a_hypergraph_flag_must_be_a_boolean(flag, shown):
    """``bool("false")`` used to read as true, so a directed edge was taken
    for a sorted hypergraph tuple; a missing flag still means false."""
    obj = structure_to_json(make_structure(graph_language(), 2, {"e": [(1, 0)]}))
    assert structure_from_json(obj).hypergraph is False
    with pytest.raises(ValueError) as err:
        structure_from_json({**obj, "hypergraph": flag})
    assert str(err.value) == f"hypergraph must be a boolean, got {shown}"
    del obj["hypergraph"]
    assert structure_from_json(obj).hypergraph is False
