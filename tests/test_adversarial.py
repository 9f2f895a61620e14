"""Sequence-tree colouring, persistent triple colouring, tree-likeness."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brt.adversarial import (
    GrowPrefix,
    OmegaSubtree,
    PersistentColouringContext,
    infinite_binary_language,
    is_tree_like,
    random_omega_subtree,
    seq_colour,
    seq_colour_witness,
    seq_weight,
    triple_colour,
    triple_colour_formula,
    triple_witness,
)
from brt.cli import radial_example
from brt.structures import ExtensionRequest, empty_prefix, uniform_language

from conftest import naive_is_tree_like


# --- sequence-tree colouring -----------------------------------------------------


def test_empty_sequence_has_colour_zero():
    assert seq_colour(()) == 0


def test_singleton_three_has_colour_three():
    assert seq_weight((3,)) == 4
    assert seq_colour((3,)) == 3


def test_full_tree_witness_from_the_construction():
    full = OmegaSubtree((), (0, 1, 2, 3))
    node = seq_colour_witness(full, 7, level=1)
    assert node == (7,)
    assert seq_colour(node) == 7


@given(st.lists(st.integers(0, 30), max_size=8))
@settings(max_examples=300)
def test_colour_total_on_random_nodes(entries):
    t = tuple(entries)
    c = seq_colour(t)
    assert c >= 0


def test_witness_level_guard():
    st_ = OmegaSubtree((5,), (1, 2))
    with pytest.raises(ValueError):
        seq_colour_witness(st_, 0)  # no level above weight 6 described
    with pytest.raises(ValueError):
        seq_colour_witness(OmegaSubtree((), (0, 2, 4)), 1, level=3)


def test_subtree_membership_is_chain_checked():
    sub = OmegaSubtree((1,), (1, 3), seed=5)
    node = seq_colour_witness(sub, 2)
    assert sub.contains(node)
    assert not sub.contains((0, 0, 0))  # wrong root
    filler = sub.child((1,), 0)
    wrong = filler[:-1] + (filler[-1] + 1,)  # corrupt the rule-filled entry
    assert not sub.contains(wrong)


def test_witness_persistence_over_random_descriptions():
    for seed in range(20):
        sub = random_omega_subtree(seed)
        for colour in range(6):
            node = seq_colour_witness(sub, colour)
            assert sub.contains(node)
            assert seq_colour(node) == colour


# --- triple colouring ---------------------------------------------------------------


def test_formula_zero_branch():
    assert triple_colour_formula((5,), 3) == 0  # level beyond the sequence


def test_formula_worked_example():
    assert triple_colour_formula((5,), 1) == 5


def test_formula_cut_is_minimal():
    assert triple_colour_formula((0, 0, 4, 9), 3) == 4  # cut 3: weight 7, minus 3


def test_triple_colour_validates_shape():
    ctx = PersistentColouringContext.fresh()
    ctx = ctx.grown(GrowPrefix(tuple(ExtensionRequest((), ()) for _ in range(3))))
    prefix = ctx.prefix.realize(ExtensionRequest.of((0,), {(0,): 1}))
    ctx2 = PersistentColouringContext(prefix)
    with pytest.raises(ValueError):
        triple_colour(ctx2, (0, 1, 3))  # 0-3 related


def test_witness_realizes_requested_colours():
    ctx = PersistentColouringContext.fresh()
    for p in range(6):
        while True:
            res = triple_witness(ctx, p)
            if isinstance(res, GrowPrefix):
                assert res.requests, "grow signal must name extensions"
                ctx = ctx.grown(res)
                continue
            assert triple_colour(ctx, res) == p
            break


def test_witness_signals_growth_on_small_prefix():
    ctx = PersistentColouringContext.fresh()
    out = triple_witness(ctx, 0)
    assert isinstance(out, GrowPrefix)
    assert len(out.requests) >= 1


def _context_with_witnesses(colours):
    """A context grown until identity mode finds a copy of each colour."""
    ctx = PersistentColouringContext.fresh()
    for p in range(colours):
        while isinstance(res := triple_witness(ctx, p), GrowPrefix):
            ctx = ctx.grown(res)
    return ctx


def test_an_explicit_identity_map_finds_the_same_witnesses():
    ctx = _context_with_witnesses(6)
    copies = [triple_witness(ctx, p) for p in range(6)]
    assert (ctx.size, copies) == (10, [(2, 3, v) for v in range(4, 10)])
    identity = {v: v for v in range(ctx.size)}
    assert [triple_witness(ctx, p, identity) for p in range(6)] == copies


@pytest.mark.parametrize("p", range(6))
def test_a_shifted_map_exhausts_its_data_without_a_witness(p):
    """A map cannot grow the prefix, so it reports running out of data."""
    ctx = _context_with_witnesses(6)
    shifted = {v: v + 1 for v in range(ctx.size - 1)}
    with pytest.raises(ValueError, match="embedding data exhausted without a witness"):
        triple_witness(ctx, p, shifted)


def test_passing_sequence_consistency():
    ctx = PersistentColouringContext.fresh()
    for p in range(4):
        while True:
            res = triple_witness(ctx, p)
            if isinstance(res, GrowPrefix):
                ctx = ctx.grown(res)
                continue
            break
    for v in range(ctx.size):
        s = ctx.passing_sequence(v)
        assert len(s) == v
        # recomputation from the raw structure matches the catalogue view
        raw = tuple(ctx.prefix.slot_choice((i,), v) for i in range(v))
        assert raw == s


# --- tree-likeness --------------------------------------------------------------------


def _plain_prefix(n):
    prefix = empty_prefix(infinite_binary_language())
    for _ in range(n):
        prefix = prefix.realize(ExtensionRequest((), ()))
    return prefix


def test_identity_passes_within_bound():
    prefix = _plain_prefix(5)
    f = {v: v for v in range(5)}
    verdict = is_tree_like(prefix, f, bound=4)
    assert verdict.status == "pass"
    assert verdict.checked > 0


def test_identity_passes_on_grown_generic_prefix():
    ctx = PersistentColouringContext.fresh()
    for p in range(3):
        while True:
            res = triple_witness(ctx, p)
            if isinstance(res, GrowPrefix):
                ctx = ctx.grown(res)
                continue
            break
    # grow realizations of every one-point extension the bound-2 sweep needs
    prefix = ctx.prefix
    f = {v: v for v in range(prefix.size)}
    verdict = is_tree_like(prefix, f, bound=2)
    assert verdict.status == "pass"


def test_radial_embedding_fails_fast():
    prefix = _plain_prefix(4)
    images = []
    for i in (1, 2, 3):
        prefix = prefix.realize(ExtensionRequest.of((0,), {(0,): i}))
        images.append(prefix.size - 1)
    f = dict(zip((1, 2, 3), images))
    verdict = is_tree_like(prefix, f, bound=8)
    assert verdict.status == "fail"
    xs, i, x = verdict.witness
    assert max(xs) < x


def test_tiny_bound_is_inconclusive():
    prefix = _plain_prefix(4)
    f = {v: v for v in range(4)}
    verdict = is_tree_like(prefix, f, bound=1)
    assert verdict.status == "inconclusive"
    assert verdict.checked == 0


def test_tree_like_requires_monotone_data():
    prefix = _plain_prefix(4)
    with pytest.raises(ValueError):
        is_tree_like(prefix, {0: 2, 1: 1}, bound=3)


def _verdicts_match(prefix, f, bound):
    got, want = is_tree_like(prefix, f, bound), naive_is_tree_like(prefix, f, bound)
    assert (got.status, got.witness, got.checked) == (want.status, want.witness, want.checked)
    return got


def test_tree_like_matches_twin_on_identity_and_radial_data():
    for n in range(9):
        prefix = _plain_prefix(n)
        for bound in range(n + 2):
            _verdicts_match(prefix, {v: v for v in range(n)}, bound)
    for m in range(6):
        grow, f = radial_example(m)
        prefix = PersistentColouringContext.fresh().grown(grow).prefix
        for bound in range(m + 3):
            _verdicts_match(prefix, f, bound)


def _random_prefix(rng, size):
    """A prefix of countably many binary colours (new vertices join earlier
    ones by colours 0-2) or of one ternary symbol, grown by random full-base
    requests, so extension types repeat and differ."""
    ternary = rng.random() < 0.5
    prefix = empty_prefix(uniform_language(3) if ternary else infinite_binary_language())
    density = rng.choice((0.1, 0.3, 0.6))
    for _ in range(size):
        base = tuple(range(prefix.size))
        slots = itertools.combinations(base, 2) if ternary else ((u,) for u in base)
        choices = {slot: 1 if ternary else rng.choice((1, 2))
                   for slot in slots if rng.random() < density}
        prefix = prefix.realize(ExtensionRequest.of(base, choices))
    return prefix


def _random_monotone_map(rng, size):
    dom = sorted(rng.sample(range(size), rng.randint(0, size)))
    images = sorted(rng.sample(range(size), len(dom)))
    return dict(zip(dom, images))


def test_tree_like_matches_twin_on_random_maps_into_grown_prefixes():
    """Failures land in subsets of one and two vertices, after varied
    numbers of checked triples."""
    rng = random.Random(11)
    statuses, sizes, counts = set(), set(), set()
    for _ in range(300):
        prefix = _random_prefix(rng, rng.randint(0, 9))
        f = _random_monotone_map(rng, prefix.size)
        verdict = _verdicts_match(prefix, f, rng.randint(0, prefix.size + 1))
        statuses.add(verdict.status)
        if verdict.status == "fail":
            sizes.add(len(verdict.witness[0]))
            counts.add(verdict.checked)
    assert statuses == {"pass", "fail", "inconclusive"}
    assert sizes == {1, 2}
    assert len(counts) >= 10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 8))
def test_tree_like_matches_twin_on_drawn_maps(seed, size):
    rng = random.Random(seed)
    prefix = _random_prefix(rng, size)
    _verdicts_match(prefix, _random_monotone_map(rng, prefix.size), rng.randint(0, size + 1))
