"""Signature and valuation-function behaviour, with enumeration oracles."""

import functools
import itertools
import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brt.errors import ESTIMATE_MAX, saturated_product
from brt.structures import graph_language, make_language, uniform_language
from brt.trees import (
    hashed_extension,
    immediate_successors,
    level_nodes,
    successors_at,
    zero_extension,
)
from brt.valuation import (
    Signature,
    ValuationFunction,
    comparable,
    count_level_nodes,
    count_tree_nodes,
    decreasing_tuples,
    extensions,
    make_valuation,
    meet,
    node_key,
    signature_from_language,
    tuple_colour,
    zero_valuation,
)

from conftest import (
    DEEP_SIG,
    FIG_SIG,
    GRAPH_SIG,
    TERNARY_SIG,
    TEST_SIGS,
    brute_extends,
    brute_extensions,
    brute_level_nodes,
    brute_meet_level,
    brute_node_less,
    brute_restrict,
    brute_slice,
    sparse_with_upper,
)


# --- signatures -----------------------------------------------------------------


def test_signature_from_one_binary():
    assert signature_from_language(graph_language()) == Signature((3,), 1)


def test_signature_from_one_ternary_only():
    assert signature_from_language(uniform_language(3)) == Signature((2, 3), 1)


def test_figure_signature_shape():
    sig = FIG_SIG
    assert (sig[1], sig[2], sig[3], sig[10]) == (1, 2, 1, 1)


def test_signature_rejects_nonpositive():
    with pytest.raises(ValueError):
        Signature((0, 2))


def test_signature_normalises_prefix():
    assert Signature((3, 1, 1), 1) == Signature((3,), 1)


def test_signature_countable_binaries_rejected():
    lang = make_language(countable_arities={2})
    with pytest.raises(ValueError):
        signature_from_language(lang)


def test_unaries_do_not_shape_signature():
    lang = make_language(("u0", 1), ("e", 2))
    assert signature_from_language(lang) == Signature((3,), 1)


@given(st.lists(st.integers(1, 5), max_size=6), st.integers(0, 8), st.integers(1, 8))
def test_shift_reads_through(prefix, i, j):
    sig = Signature(tuple(prefix), 1)
    assert sig.bound(i, j) == sig[i + j]


# --- the validating constructor ----------------------------------------------------


@pytest.mark.parametrize("shift, level, values, message", [
    (0, 3, {(0, 1): 1}, "tuple (0, 1) is not strictly decreasing"),
    (0, 3, {(1, 1): 1}, "tuple (1, 1) is not strictly decreasing"),
    (0, 3, {(3,): 1}, "tuple (3,) out of range for level 3"),
    (0, 2, {(2, 0): 1}, "tuple (2, 0) out of range for level 2"),
    (0, 3, {(0,): 2}, "value 2 at (0,) out of bounds"),
    (0, 3, {(1, 0): 3}, "value 3 at (1, 0) out of bounds"),
    (0, 3, {(0,): -1}, "value -1 at (0,) out of bounds"),
    (1, 3, {(0,): 3}, "value 3 at (0,) out of bounds"),
    (1, 3, {(1, 0): 1}, "value 1 at (1, 0) out of bounds"),
    (1, 2, {(2,): 1}, "tuple (2,) out of range for level 2"),
])
def test_make_valuation_rejects_bad_entries(shift, level, values, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_valuation(TERNARY_SIG, shift, level, values)


def test_direct_construction_rejects_unsorted_entries():
    with pytest.raises(ValueError, match="entries must be sorted"):
        ValuationFunction(TERNARY_SIG, 0, 3, (((1,), 1), ((0,), 1)))
    with pytest.raises(ValueError, match="entries must be sorted"):
        ValuationFunction(TERNARY_SIG, 0, 3, (((1, 0), 1), ((2,), 1)))


def test_make_valuation_accepts_the_shifted_bounds():
    f = make_valuation(TERNARY_SIG, 1, 3, {(2,): 2, (1, 0): 0})
    assert f.values == (((2,), 2),)


# --- restriction and slices -------------------------------------------------------


def test_restriction_truncates():
    f = make_valuation(GRAPH_SIG, 0, 2, {(0,): 2, (1,): 1})
    assert f.restrict(1).value_map() == {(0,): 2}
    assert f.restrict(0).is_zero


def test_single_slice_is_constant_zero_here():
    f = make_valuation(GRAPH_SIG, 0, 2, {(0,): 2, (1,): 1})
    s = f.slice_at((1,))
    assert s.shift == 1 and s.level == 1 and s.is_zero


def test_empty_slice_is_identity():
    f = make_valuation(GRAPH_SIG, 0, 3, {(2, 1): 0, (0,): 1})
    assert f.slice_at(()) is f


def test_slice_rejects_bad_tuples():
    f = make_valuation(GRAPH_SIG, 0, 3, {})
    with pytest.raises(ValueError):
        f.slice_at((1, 2))
    with pytest.raises(ValueError):
        f.slice_at((5,))


def _random_vf(sig, level, seed):
    rnd = itertools.count(seed)
    vals = {}
    for length in range(1, level + 1):
        for t in itertools.combinations(range(level - 1, -1, -1), length):
            vals[t] = (seed + sum(t) + 7 * len(t)) % sig[length]
    return make_valuation(sig, 0, level, vals)


@given(st.integers(0, 50), st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_slice_composition(seed, level, data):
    sig = TERNARY_SIG
    f = _random_vf(sig, level, seed)
    xs = data.draw(st.lists(st.integers(0, level - 1), min_size=1, max_size=2,
                            unique=True).map(lambda l: tuple(sorted(l, reverse=True))))
    rest = [v for v in range(xs[-1]) ]
    ys = data.draw(st.lists(st.sampled_from(rest or [0]), min_size=0, max_size=1,
                            unique=True).map(lambda l: tuple(sorted(l, reverse=True)))
                   if rest else st.just(()))
    if ys and ys[0] >= xs[-1]:
        ys = ()
    left = f.slice_at(xs).slice_at(ys) if ys else f.slice_at(xs)
    assert left == f.slice_at(xs + ys)


@given(st.integers(0, 50), st.integers(0, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_restrict_composition(seed, level, data):
    f = _random_vf(TERNARY_SIG, level, seed)
    m = data.draw(st.integers(0, level))
    l = data.draw(st.integers(0, m))
    assert f.restrict(m).restrict(l) == f.restrict(l)


# --- extensions -------------------------------------------------------------------


def pair_extensions(f, g):
    """The extensions of one node by one node: the 1x1 case of the tier form."""
    return [h for _, h in extensions([f], [g])]


def test_extensions_spec_examples():
    f = make_valuation(GRAPH_SIG, 0, 1, {(0,): 1})
    g = zero_valuation(GRAPH_SIG, 1, 1)
    exts = pair_extensions(f, g)
    assert [h.value((1,)) for h in exts] == [0, 1, 2]
    assert all(h.value((1, 0)) == 0 and h.restrict(1) == f for h in exts)

    sig = FIG_SIG
    f2 = zero_valuation(sig, 0, 1)
    g2 = make_valuation(sig, 1, 1, {(0,): 1})
    exts2 = pair_extensions(f2, g2)
    assert len(exts2) == 1 and exts2[0].value((1, 0)) == 1

    base = pair_extensions(zero_valuation(GRAPH_SIG, 0, 0), zero_valuation(GRAPH_SIG, 1, 0))
    assert len(base) == GRAPH_SIG[1] == 3


@given(st.integers(0, 40), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_extension_count_and_divergence(seed, level):
    sig = TERNARY_SIG
    f = _random_vf(sig, level, seed)
    g_vals = {t: (seed + t[0]) % sig[1 + len(t)]
              for length in range(1, level + 1)
              for t in itertools.combinations(range(level - 1, -1, -1), length)}
    g = make_valuation(sig, 1, level, g_vals)
    exts = pair_extensions(f, g)
    assert len(exts) == sig[1]
    for a, b in itertools.combinations(exts, 2):
        diff = {t for t in set(a.value_map()) | set(b.value_map())
                if a.value(t) != b.value(t)}
        assert diff == {(level,)}


def test_extensions_reject_mismatch():
    f = zero_valuation(GRAPH_SIG, 0, 1)
    with pytest.raises(ValueError):
        pair_extensions(f, zero_valuation(GRAPH_SIG, 0, 1))
    with pytest.raises(ValueError):
        pair_extensions(f, zero_valuation(GRAPH_SIG, 1, 2))
    with pytest.raises(ValueError):
        pair_extensions(f, zero_valuation(TERNARY_SIG, 1, 1))
    with pytest.raises(ValueError):
        extensions([f, zero_valuation(GRAPH_SIG, 0, 2)], [zero_valuation(GRAPH_SIG, 1, 1)])
    with pytest.raises(ValueError):
        extensions([f, zero_valuation(TERNARY_SIG, 0, 1)], [zero_valuation(GRAPH_SIG, 1, 1)])
    assert extensions([], [zero_valuation(GRAPH_SIG, 1, 1)]) == extensions([f], []) == []


@pytest.mark.parametrize("sig", TEST_SIGS + (DEEP_SIG,))
def test_tier_extensions_are_the_pairwise_ones_in_order(sig):
    for n in range(3):
        fs = brute_level_nodes(sig, 0, n)
        gs = brute_level_nodes(sig, 1, n)
        want = [(f, h) for f in fs for g in gs for h in brute_extensions(f, g)]
        assert extensions(fs, gs) == want


# --- counting ---------------------------------------------------------------------


def test_level_two_counts_against_brute_enumeration():
    assert count_level_nodes(GRAPH_SIG, 0, 2) == len(brute_level_nodes(GRAPH_SIG, 0, 2)) == 9
    assert count_level_nodes(TERNARY_SIG, 0, 2) == len(brute_level_nodes(TERNARY_SIG, 0, 2)) == 12


@pytest.mark.parametrize("sig", [GRAPH_SIG, TERNARY_SIG, FIG_SIG])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_count_formula_matches_enumeration(sig, n):
    assert count_level_nodes(sig, 0, n) == len(brute_level_nodes(sig, 0, n))


@pytest.mark.parametrize("sig", TEST_SIGS + (DEEP_SIG, Signature((1,), 3), Signature((), 1)))
def test_counts_are_exact_below_the_printable_limit_and_saturate_above(sig):
    # With bounds (1, 3, 3, ...) the exact level count has 3,902 digits at
    # level 13 and 7,810 at level 14.
    for shift in (0, 1, 2):
        total = 0
        for n in range(17):
            exact = math.prod(sig.bound(shift, l) ** math.comb(n, l) for l in range(1, n + 1))
            total += exact
            assert count_level_nodes(sig, shift, n) == min(exact, ESTIMATE_MAX)
            assert count_tree_nodes(sig, shift, n + 1) == min(total, ESTIMATE_MAX)


def test_tree_counts_of_one_node_per_level_are_not_summed_level_by_level():
    assert count_tree_nodes(Signature((), 1), 0, 10 ** 12) == 10 ** 12
    assert count_tree_nodes(Signature((3, 1, 2)), 3, 10 ** 5000) == ESTIMATE_MAX
    assert count_tree_nodes(Signature((3,)), 1, 0) == 0


def test_saturated_product_at_the_limit():
    assert saturated_product([(10, 4299), (9, 1)]) == 9 * 10 ** 4299
    assert saturated_product([(10, 4300)]) == ESTIMATE_MAX
    assert saturated_product([(10, 4299), (10, 1)]) == ESTIMATE_MAX
    assert saturated_product([(2, 14284)]) == 2 ** 14284
    assert saturated_product([(2, 14285)]) == ESTIMATE_MAX
    assert saturated_product([(1, 10 ** 30), (0, 0), (5, 2)]) == 25
    assert saturated_product([]) == 1

    def lazy():
        yield 3, 10 ** 30
        raise AssertionError("read past saturation")

    assert saturated_product(lazy()) == ESTIMATE_MAX


# --- the induced relation and node order -------------------------------------------


def test_tuple_colour_reads_definition():
    x1 = make_valuation(GRAPH_SIG, 0, 1, {(0,): 1})
    x0 = make_valuation(GRAPH_SIG, 0, 2, {(1,): 1})
    assert tuple_colour([x0, x1]) == 1
    x0b = make_valuation(GRAPH_SIG, 0, 2, {(1,): 2})
    assert tuple_colour([x0b, x1]) == 2


def test_tuple_colour_requires_distinct_levels():
    a = zero_valuation(GRAPH_SIG, 0, 1)
    b = make_valuation(GRAPH_SIG, 0, 1, {(0,): 1})
    with pytest.raises(ValueError):
        tuple_colour([a, b])


def test_node_less_level_dominates():
    small = make_valuation(GRAPH_SIG, 0, 1, {(0,): 2})
    big = zero_valuation(GRAPH_SIG, 0, 2)
    assert node_key(small) < node_key(big) and not node_key(big) < node_key(small)


def test_node_less_total_order_on_level():
    nodes = brute_level_nodes(TERNARY_SIG, 0, 2)
    for a, b in itertools.combinations(nodes, 2):
        assert (node_key(a) < node_key(b)) != (node_key(b) < node_key(a))
    for a, b, c in itertools.combinations(nodes, 3):
        if node_key(a) < node_key(b) < node_key(c):
            assert node_key(a) < node_key(c)


def test_meet_and_comparability():
    f = make_valuation(GRAPH_SIG, 0, 3, {(0,): 1, (2,): 1})
    g = make_valuation(GRAPH_SIG, 0, 3, {(0,): 1, (2,): 2})
    assert meet(f, g) == f.restrict(2)
    assert not comparable(f, g)
    assert comparable(f, f.restrict(1))


# --- entry-level primitives against their dict-and-restrict twins ------------------


def _agrees_with_twins(f, g):
    assert f.extends(g) == brute_extends(f, g)
    if (f.sig, f.shift) != (g.sig, g.shift):
        with pytest.raises(ValueError):
            meet(f, g)
        with pytest.raises(ValueError):
            comparable(f, g)
        return
    assert brute_node_less(f, g) == (node_key(f) < node_key(g))
    cut = brute_meet_level(f, g)
    assert meet(f, g) == f.restrict(cut)
    assert comparable(f, g) == (cut == min(f.level, g.level))


@pytest.mark.parametrize("sig", TEST_SIGS)
def test_primitives_match_twins_exhaustively(sig):
    trees = {shift: [f for n in range(4) for f in brute_level_nodes(sig, shift, n)]
             for shift in (0, 1)}
    pool = trees[0] + trees[1]
    for f, g in itertools.product(pool, repeat=2):
        _agrees_with_twins(f, g)
    twin_order = functools.cmp_to_key(
        lambda a, b: -1 if brute_node_less(a, b) else int(brute_node_less(b, a)))
    for nodes in trees.values():
        assert sorted(nodes, key=node_key) == sorted(nodes, key=twin_order)


@st.composite
def _node_pairs(draw):
    """A random sparse node and a second node: a restriction of it, an edit
    of its entries at some level, a fresh node at its level, or the same
    entries in another tree."""
    sig = draw(st.sampled_from(TEST_SIGS))
    shift = draw(st.integers(0, 1))

    def sparse(level, vals):
        for _ in range(draw(st.integers(0, 4)) if level else 0):
            t = tuple(sorted(draw(st.sets(st.integers(0, level - 1), min_size=1,
                                          max_size=min(level, 3))), reverse=True))
            vals[t] = draw(st.integers(0, sig.bound(shift, len(t)) - 1))
        return make_valuation(sig, shift, level, vals)

    f = sparse(draw(st.integers(0, 7)), {})
    level = draw(st.one_of(st.just(f.level), st.integers(0, 7)))
    kind = draw(st.sampled_from(("restriction", "edit", "sibling", "other tree")))
    if kind == "restriction":
        g = f.restrict(min(level, f.level))
    elif kind == "edit":
        g = sparse(level, {t: v for t, v in f.values if t[0] < level})
    elif kind == "sibling":
        g = sparse(f.level, {})
    else:
        sig2, shift2 = draw(st.sampled_from([(s, i) for s in TEST_SIGS for i in (0, 1)
                                             if (s, i) != (sig, shift)]))
        g = make_valuation(sig2, shift2, f.level,
                           {t: v % sig2.bound(shift2, len(t)) for t, v in f.values})
    return (f, g) if draw(st.booleans()) else (g, f)


@given(_node_pairs())
@settings(max_examples=300, deadline=None)
def test_primitives_match_twins_on_sparse_nodes(pair):
    _agrees_with_twins(*pair)


# --- derived nodes: the trusted constructor against the validating one --------------


def _check_derived(f, uppers, above=None):
    """Every node the library derives from ``f`` without validation equals its
    rebuild by ``make_valuation`` (so it is valid, sorted and zero-free), and
    restrictions, slices and extensions also equal their naive twins.
    ``uppers`` are nodes at ``f``'s level one shift up; ``above`` maps a level
    to the brute-force nodes there that extend ``f``."""
    twins = [(f.restrict(l), brute_restrict(f, l)) for l in range(f.level + 1)]
    twins += [(f.slice_at(x), brute_slice(f, x))
              for m in range(1, f.level + 1) for x in decreasing_tuples(f.level, m)]
    for g in uppers:
        exts = pair_extensions(f, g)
        assert len(exts) == f.sig.bound(f.shift, 1)
        twins += zip(exts, brute_extensions(f, g))
    top = f.level + 2
    twins.append((zero_extension(f, top), make_valuation(f.sig, f.shift, top, dict(f.values))))
    hashed = hashed_extension(f, top, ("twin", f.values))
    assert hashed.level == top and hashed.extends(f)
    for h in [h for h, _ in twins] + immediate_successors(f) + [hashed]:
        rebuilt = make_valuation(h.sig, h.shift, h.level, dict(h.values))
        assert h == rebuilt and hash(h) == hash(rebuilt)
    for h, twin in twins:
        assert h == twin
    for level, nodes in (above or {}).items():
        assert successors_at(f, level) == sorted(nodes, key=node_key)


@pytest.mark.parametrize("sig", TEST_SIGS)
def test_derived_nodes_match_validated_twins_exhaustively(sig):
    for shift in (0, 1):
        tree = {n: brute_level_nodes(sig, shift, n) for n in range(5)}
        for n in range(4):
            uppers = brute_level_nodes(sig, shift + 1, n)
            above = {}
            for m in {n + 1, 4}:
                for c in tree[m]:
                    above.setdefault(c.restrict(n), {}).setdefault(m, []).append(c)
            for f in tree[n]:
                _check_derived(f, uppers, above[f])


def test_extensions_interleave_lengths():
    f = make_valuation(DEEP_SIG, 0, 3, {(0,): 1, (2, 1, 0): 1})
    g = make_valuation(DEEP_SIG, 1, 3, {(1,): 2, (2, 0): 1})
    _check_derived(f, [g])


@given(sparse_with_upper())
@settings(max_examples=150, deadline=None)
def test_derived_nodes_match_validated_twins_on_sparse_nodes(pair):
    f, g = pair
    _check_derived(f, [g])


# --- the node representation --------------------------------------------------------


def test_nodes_are_slotted_and_frozen():
    f = make_valuation(DEEP_SIG, 0, 3, {(0,): 1, (2, 1, 0): 1})
    for node in (f, f.restrict(2), f.slice_at((2,)), level_nodes(GRAPH_SIG, 0, 2)[4],
                 pair_extensions(f, zero_valuation(DEEP_SIG, 1, 3))[1]):
        assert not hasattr(node, "__dict__")
        for fld in fields(ValuationFunction):
            with pytest.raises(FrozenInstanceError):
                setattr(node, fld.name, getattr(node, fld.name))
        assert node == make_valuation(node.sig, node.shift, node.level, dict(node.values))


@pytest.mark.parametrize("sig", TEST_SIGS + (DEEP_SIG,))
def test_enumerated_nodes_equal_and_hash_like_their_rebuilds(sig):
    for shift in (0, 1):
        for n in range(4):
            brute = brute_level_nodes(sig, shift, n)
            derived = level_nodes(sig, shift, n)
            assert set(derived) == set(brute) and len(derived) == len(brute)
            for f in brute + derived:
                rebuilt = make_valuation(f.sig, f.shift, f.level, dict(f.values))
                assert f == rebuilt and hash(f) == hash(rebuilt)


def test_equal_entries_under_different_signatures_differ():
    entries = {(0,): 1, (1,): 1}
    a = make_valuation(GRAPH_SIG, 0, 2, entries)
    b = make_valuation(TERNARY_SIG, 0, 2, entries)
    assert a.values == b.values and a != b
    assert len({a, b}) == 2
    c = a.restrict(1)
    d = b.restrict(1)
    assert c.values == d.values and c != d and len({c, d, a, b}) == 4


def test_enumerated_nodes_share_their_entries():
    # Slotted nodes whose entry pairs are shared hold a few hundred bytes
    # each; a fresh pair tuple per entry and an instance dict took over 600.
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        nodes = level_nodes(GRAPH_SIG, 0, 8)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(nodes) == 3 ** 8
    assert held / len(nodes) < 300
