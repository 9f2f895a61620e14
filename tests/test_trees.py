"""Tree views: level enumeration, valuation trees, structural embeddings,
strong-subtree completion, and the bounded partition search."""

import functools
import gc
import itertools
import json
import math
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brt import cli, envelopes, trees, valuation
from brt.envelopes import build_enveloping, compute_envelope
from brt.errors import InfeasibleError
from brt.trees import (
    CompletedCoordinate,
    _tag_digest,
    _vf_label,
    ExplicitCoordinate,
    StrongSubtreeWitness,
    ValuationTree,
    build_valuation_tree,
    coordinate_nodes,
    derived_inner_tree,
    full_tree_witness,
    hashed_extension,
    immediate_successors,
    induced_tree_structure,
    level_nodes,
    seeded_witness,
    sort_nodes,
    structural_embedding,
    successors_at,
    tree_to_dot,
    val_contains,
    val_contains_all,
    zero_extension,
)
from brt.valuation import (
    Signature,
    adjacent_meets,
    count_level_nodes,
    count_tree_nodes,
    make_valuation,
    meet,
    tier_key,
    zero_valuation,
)

from conftest import (
    DEEP_SIG,
    FIG_SIG,
    GRAPH_SIG,
    TERNARY_SIG,
    TEST_SIGS,
    assert_strong_subtree,
    brute_completed_select,
    brute_meet_closed,
    brute_meet_closure,
    brute_structural_embedding,
    brute_tree_to_dot,
    brute_val_contains,
    brute_valuation_tree,
    is_structural,
    naive_digest,
    naive_hashed_extension,
    prefix_structure,
    tree_embeddings_brute,
)
from milliken import (
    ExhaustionReport,
    induced_colouring,
    milliken_search,
    snapshot,
    subtree_snapshots,
)


# --- level enumeration ---------------------------------------------------------


def test_level_one_counts():
    assert len(level_nodes(GRAPH_SIG, 0, 1)) == 3
    assert len(level_nodes(FIG_SIG, 0, 1)) == 1


def test_level_zero_is_the_empty_function():
    assert level_nodes(TERNARY_SIG, 0, 0) == [zero_valuation(TERNARY_SIG, 0, 0)]


def test_level_nodes_come_in_node_order():
    nodes = level_nodes(TERNARY_SIG, 0, 2)
    assert nodes == sort_nodes(nodes)


def test_level_enumeration_cap_guard():
    with pytest.raises(InfeasibleError) as exc:
        level_nodes(GRAPH_SIG, 0, 15, cap=1000)
    assert exc.value.estimate == count_level_nodes(GRAPH_SIG, 0, 15)
    assert exc.value.cap == 1000


# --- valuation trees --------------------------------------------------------------


def test_height_one_tree_is_single_root():
    tree = build_valuation_tree(full_tree_witness(GRAPH_SIG, 1, 1))
    assert tree.nodes == [zero_valuation(GRAPH_SIG, 0, 0)]


def test_figure_tree_shape():
    tree = build_valuation_tree(full_tree_witness(FIG_SIG, 3, 3))
    assert [len(t) for t in tree.nodes_by_level] == [1, 1, 2]
    assert len(tree.nodes) == 4


def test_graph_full_tree_node_count():
    tree = build_valuation_tree(full_tree_witness(GRAPH_SIG, 3, 3))
    assert len(tree.nodes) == 13 == count_tree_nodes(GRAPH_SIG, 0, 3)


@pytest.mark.parametrize("sig", TEST_SIGS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_node_count_independent_of_witness(sig, k):
    want = count_tree_nodes(sig, 0, k)
    for seed in range(6):
        tree = build_valuation_tree(seeded_witness(sig, k, k, seed))
        assert len(tree.nodes) == want


def test_monotone_nesting_in_the_dimension():
    """Seeded witnesses of dimensions 2 and 3 and one height share their
    levels and their first two coordinates."""
    for seed in range(4):
        small = set(build_valuation_tree(seeded_witness(GRAPH_SIG, 2, 3, seed)).nodes)
        big = set(build_valuation_tree(seeded_witness(GRAPH_SIG, 3, 3, seed)).nodes)
        assert small <= big


def test_val_membership_matches_materialisation():
    for seed in (0, 3):
        w = seeded_witness(TERNARY_SIG, 3, 3, seed, levels=(0, 2, 3))
        tree = build_valuation_tree(w)
        members = set(tree.nodes)
        universe = [f for m in range(3)
                    for f in level_nodes(TERNARY_SIG, 0, w.levels[m], cap=200_000)]
        for f in universe:
            assert val_contains(w, f) == (f in members)


def _membership_probes(nodes):
    """The nodes, and beside each node above level 0 the hashed extension of
    its restriction one level down, mostly off the tree."""
    return nodes + [hashed_extension(f.restrict(f.level - 1), f.level, ("probe",))
                    for f in nodes if f.level]


def _assert_membership_matches_twin(witness, probes, coord=0, height=None):
    for f in probes:
        assert (val_contains(witness, f, coord, height)
                == brute_val_contains(witness, f, coord, height))
    assert (val_contains_all(witness, probes, coord, height)
            == all(val_contains(witness, f, coord, height) for f in probes))


@given(st.sampled_from(TEST_SIGS + (DEEP_SIG,)), st.integers(1, 4), st.integers(0, 2),
       st.integers(0, 10 ** 6), st.booleans(), st.data())
@settings(max_examples=40, deadline=None, database=None)
def test_val_contains_matches_the_recursive_twin_on_witnesses(sig, k, extra, seed, full, data):
    """Full and seeded witnesses, the seeded ones on drawn levels, probed in
    the tree of each coordinate, whole or cut to fewer tiers."""
    if full:
        witness = full_tree_witness(sig, k, k + extra)
    else:
        levels = tuple(sorted(data.draw(st.sets(st.integers(0, 7), min_size=k + extra,
                                                max_size=k + extra))))
        witness = seeded_witness(sig, k, k + extra, seed, levels)
    tree = build_valuation_tree(witness)
    coord = data.draw(st.integers(0, k - 1))
    for _ in range(coord):
        tree = derived_inner_tree(tree)
    assert all(val_contains(witness, f, coord) for f in tree.nodes)
    height = data.draw(st.none() | st.integers(0, k - coord))
    _assert_membership_matches_twin(witness, _membership_probes(tree.nodes), coord, height)


@pytest.mark.parametrize("kind,n", [("graph", 6), ("ternary", 5)])
def test_val_contains_matches_the_recursive_twin_on_cascades(kind, n):
    """Probes around each envelope's image nodes and their restrictions to
    the envelope's levels."""
    for env in _cascade_envelopes(kind, n):
        probes = _membership_probes(list(env.stages[0].aligned))
        _assert_membership_matches_twin(env.witness, probes, 0, env.height)
        assert all(val_contains(env.witness, f, 0, env.height) for f in env.stages[0].slices)


@pytest.mark.parametrize("kind,n", [("graph", 6), ("ternary", 5)])
def test_val_contains_all_matches_one_node_at_a_time_on_cascades(kind, n):
    """Image nodes mixed with perturbed non-members, checked in one shared
    walk, node by node, and by the recursive twin; the empty list holds."""
    rng = random.Random(n)
    answers = set()
    for env in _cascade_envelopes(kind, n):
        w, h = env.witness, env.height
        probes = _membership_probes(list(env.stages[0].aligned))
        groups = [list(env.stages[0].slices), probes]
        groups += [rng.sample(probes, rng.randint(1, len(probes))) for _ in range(4)]
        for nodes in groups:
            want = all(val_contains(w, f, 0, h) for f in nodes)
            assert val_contains_all(w, nodes, 0, h) == want
            assert want == all(brute_val_contains(w, f, 0, h) for f in nodes)
            answers.add(want)
        assert val_contains_all(w, [], 0, h) and val_contains_all(w, [], 0, 0)
        assert not val_contains_all(w, env.stages[0].slices, 0, 0)
    assert answers == {True, False}


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_a_deep_witness_needs_no_recursion(capsys):
    """With sigma = 1 each tier holds one node, so a witness of dimension 150
    is cheap; the constructions once nested one call per coordinate, and
    checking membership of the node at tier 60 nested 60 calls."""
    witness = seeded_witness(Signature((1,)), 150, 150, 0)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        tree = build_valuation_tree(witness)
        member = val_contains(witness, tree.nodes_by_level[60][0])
        emb = structural_embedding(tree)
        code = cli.main(["val", "--sigma", "1", "--height", "150"])
    finally:
        sys.setrecursionlimit(old)
    assert len(tree.nodes) == 150 and member and len(emb) == 150
    out, err = capsys.readouterr()
    assert (code, err) == (0, "") and json.loads(out)["node_count"] == 150


def test_witness_height_must_cover_dimension():
    w = seeded_witness(GRAPH_SIG, 3, 2, 0)
    with pytest.raises(ValueError):
        build_valuation_tree(w)


def _assert_pairwise_tiers(witness):
    tree = build_valuation_tree(witness)
    assert tree.nodes_by_level == brute_valuation_tree(witness)
    return tree


@pytest.mark.parametrize("kind,n", [("graph", 6), ("ternary", 5)])
def test_valuation_tree_matches_pairwise_construction_on_envelopes(kind, n):
    built = 0
    for env in _cascade_envelopes(kind, n):
        if env.tree is not None:
            assert env.tree.nodes_by_level == brute_valuation_tree(env.witness)
            built += 1
    assert built == sum(math.comb(n, k) for k in (2, 3))


def test_valuation_tree_matches_pairwise_construction_on_a_height_five_envelope():
    env = compute_envelope(build_enveloping(prefix_structure("ternary", 6), 3), (0, 1, 4))
    assert env.height == 5 and len(env.tree.nodes) == 11_895
    assert env.tree.nodes_by_level == brute_valuation_tree(env.witness)


# --- envelope trees: the closed-form count and the lazy tree ---------------------------


def _assert_count_matches_tree(env):
    assert env.tree_nodes == count_tree_nodes(env.sig, 0, env.height)
    assert env.tree_nodes == len(env.tree.nodes)


@pytest.mark.parametrize("kind,n", [("graph", 6), ("ternary", 5)])
def test_envelope_tree_nodes_match_the_materialised_tree(kind, n):
    for env in _cascade_envelopes(kind, n):
        _assert_count_matches_tree(env)


def test_envelope_tree_nodes_match_on_a_height_five_envelope():
    env = compute_envelope(build_enveloping(prefix_structure("ternary", 6), 3), (0, 1, 4))
    assert env.height == 5 and env.tree_nodes == 11_895
    _assert_count_matches_tree(env)


@st.composite
def staged_envelopes(draw):
    kind = draw(st.sampled_from(["graph", "ternary"]))
    n = draw(st.integers(1, 9 if kind == "graph" else 7))
    k = draw(st.integers(1, min(3, n)))
    subset = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    return compute_envelope(build_enveloping(prefix_structure(kind, n), k), subset)


@given(staged_envelopes())
@settings(max_examples=30, deadline=None, database=None)
def test_envelope_tree_nodes_match_on_staged_prefixes(env):
    _assert_count_matches_tree(env)


def test_envelope_tree_is_dropped_exactly_above_the_cap(monkeypatch):
    envs = list(_cascade_envelopes("graph", 6))
    counts = sorted({count_tree_nodes(env.sig, 0, env.height) for env in envs})
    assert len(counts) > 1
    for cap in counts[:-1]:
        monkeypatch.setattr(envelopes, "MATERIALIZE_CAP", cap)
        for env in _cascade_envelopes("graph", 6):
            over = count_tree_nodes(env.sig, 0, env.height) > cap
            assert (env.tree is None) == over == (env.tree_nodes is None)
            if not over:
                assert env.tree_nodes == len(env.tree.nodes)


def test_envelope_without_witness_has_no_tree():
    emb = build_enveloping(prefix_structure("graph", 3), 1)
    env = compute_envelope(replace(emb, k=0), ())
    assert env.witness is None and env.tree is None and env.tree_nodes is None


def test_envelope_tree_is_built_on_first_access_only(envelope_tree_builds):
    envs = list(_cascade_envelopes("ternary", 5))
    assert all(env.tree_nodes is not None for env in envs)
    assert envelope_tree_builds == []
    for i, env in enumerate(envs, 1):
        tree = env.tree
        assert env.tree is tree and len(envelope_tree_builds) == i


@pytest.mark.parametrize("sig", TEST_SIGS + (DEEP_SIG,))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_valuation_tree_matches_pairwise_construction_on_full_and_seeded(sig, k):
    full = _assert_pairwise_tiers(full_tree_witness(sig, k, k))
    assert len(full.nodes) == count_tree_nodes(sig, 0, k)
    for seed in range(3):
        _assert_pairwise_tiers(seeded_witness(sig, k, k, seed))


@given(st.sampled_from(TEST_SIGS + (DEEP_SIG,)), st.integers(1, 4), st.integers(0, 2),
       st.integers(0, 10 ** 6), st.data())
@settings(max_examples=40, deadline=None)
def test_valuation_tree_matches_pairwise_construction_on_random_witnesses(
        sig, k, extra, seed, data):
    height = k + extra
    levels = tuple(sorted(data.draw(st.sets(st.integers(0, 7), min_size=height,
                                            max_size=height))))
    _assert_pairwise_tiers(seeded_witness(sig, data.draw(st.integers(1, k)), height, seed,
                                          levels))


# --- structural embeddings ----------------------------------------------------------


def test_identity_on_the_full_tree():
    tree = build_valuation_tree(full_tree_witness(GRAPH_SIG, 3, 3))
    emb = structural_embedding(tree)
    assert all(u == v for u, v in emb.items())


def test_height_two_graph_matching_by_singleton_value():
    for seed in range(5):
        tree = build_valuation_tree(seeded_witness(GRAPH_SIG, 2, 2, seed))
        emb = structural_embedding(tree)
        for u, img in emb.items():
            if u.level == 1:
                assert img.value((tree.levels[0],)) == u.value((0,))


@pytest.mark.parametrize("sig,height", [(FIG_SIG, 2), (FIG_SIG, 3), (GRAPH_SIG, 2)])
def test_structural_embedding_unique_by_oracle(sig, height):
    for seed in range(8):
        tree = build_valuation_tree(seeded_witness(sig, height, height, seed))
        found = [m for m in tree_embeddings_brute(tree) if is_structural(tree, m)]
        assert len(found) == 1
        assert found[0] == structural_embedding(tree)


def test_structural_embedding_preserves_induced_relations():
    for seed in range(4):
        tree = build_valuation_tree(seeded_witness(GRAPH_SIG, 3, 3, seed))
        emb = structural_embedding(tree)
        domain = sort_nodes(list(emb))
        source = induced_tree_structure(GRAPH_SIG, domain)
        image = induced_tree_structure(GRAPH_SIG, [emb[f] for f in domain])
        assert source.relations == image.relations


def test_derived_inner_tree_heights():
    tree = build_valuation_tree(seeded_witness(TERNARY_SIG, 3, 3, 1))
    inner = derived_inner_tree(tree)
    assert inner.height == 2 and inner.shift == 1


@pytest.mark.parametrize("sig", TEST_SIGS)
def test_derived_inner_tree_tiers_are_in_tier_order(sig):
    for seed in range(3):
        tree = build_valuation_tree(seeded_witness(sig, 4, 4, seed))
        inner = derived_inner_tree(tree)
        for m, tier in enumerate(inner.nodes_by_level):
            slices = {u.slice_at((tree.levels[m],)) for u in tree.nodes_by_level[m + 1]}
            assert tier == tuple(sorted(slices, key=tier_key))
            assert len({f.level for f in tier}) == 1


# --- strong subtree completion -------------------------------------------------------


def test_completion_of_already_strong_is_identity():
    w = seeded_witness(GRAPH_SIG, 1, 3, 2)
    tiers = coordinate_nodes(w.coords[0], w.levels)
    nodes = [f for t in tiers for f in t]
    done = CompletedCoordinate(GRAPH_SIG, 0, nodes)
    new_tiers = assert_strong_subtree(done, done.levels)
    assert [set(t) for t in new_tiers] == [set(t) for t in tiers]


def test_completion_fills_missing_directions():
    root = zero_valuation(GRAPH_SIG, 0, 0)
    leaf = make_valuation(GRAPH_SIG, 0, 2, {(0,): 2, (1, 0): 0, (1,): 1})
    done = CompletedCoordinate(GRAPH_SIG, 0, [root, leaf])
    tiers = assert_strong_subtree(done, (0, 2))
    assert leaf in tiers[1]
    assert len(tiers[1]) == 3  # one node above each level-1 direction


def test_completion_of_empty_is_empty():
    done = CompletedCoordinate(GRAPH_SIG, 0, [])
    assert done.root is None
    assert coordinate_nodes(done, ()) == []


def test_completion_rejects_non_meet_closed():
    a = make_valuation(GRAPH_SIG, 0, 2, {(0,): 1})
    b = make_valuation(GRAPH_SIG, 0, 2, {(0,): 2})
    with pytest.raises(ValueError):
        CompletedCoordinate(GRAPH_SIG, 0, [a, b])


def test_completion_onto_larger_level_set():
    leaf = make_valuation(GRAPH_SIG, 0, 2, {(1,): 1})
    done = CompletedCoordinate(GRAPH_SIG, 0, [leaf.restrict(0), leaf], (0, 1, 2, 4))
    tiers = assert_strong_subtree(done, (0, 1, 2, 4))
    assert leaf in tiers[2]


# --- indexed lookups against their scanning twins ----------------------------------


def _outcome(fn, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return (type(exc), str(exc))


def _select_agrees(coord, parent, direction, next_level):
    assert (_outcome(coord.select, parent, direction, next_level)
            == _outcome(brute_completed_select, coord, parent, direction, next_level))


def _cascade_envelopes(kind, n):
    """Every envelope of a 2- or 3-subset of the staged prefix of size ``n``."""
    for k in (2, 3):
        emb = build_enveloping(prefix_structure(kind, n), k)
        for subset in itertools.combinations(range(n), k):
            yield compute_envelope(emb, subset)


@pytest.mark.parametrize("kind,n", [("graph", 6), ("ternary", 5)])
def test_completed_select_matches_scan_on_cascades(kind, n, monkeypatch):
    asked = []
    real = CompletedCoordinate.select

    def recording(self, parent, direction, next_level):
        asked.append((self, parent, direction, next_level))
        return real(self, parent, direction, next_level)

    monkeypatch.setattr(CompletedCoordinate, "select", recording)
    envs = list(_cascade_envelopes(kind, n))
    monkeypatch.setattr(CompletedCoordinate, "select", real)
    assert asked and all(env.contained for env in envs)
    queries = set(asked)
    for coord, parent, direction, next_level in set(asked):
        # Next levels that skip set levels or lie below the direction.
        queries.update((coord, parent, direction, lvl) for lvl in coord.levels)
    for coord, parent, level, next_level in {(c, p, d.level, n) for c, p, d, n in asked}:
        # A direction the set may not carry.
        queries.add((coord, parent, hashed_extension(parent, level, ("off",)), next_level))
    for query in queries:
        _select_agrees(*query)


def _grown_nodes(draw, sig, growths):
    """Nodes of one tree grown by hashed extensions of restrictions of their
    own nodes."""
    shift = draw(st.integers(0, 1))
    nodes = [hashed_extension(zero_valuation(sig, shift, 0), draw(st.integers(0, 4)),
                              ("root", draw(st.integers(0, 9))))]
    for _ in range(draw(st.integers(0, growths))):
        f = draw(st.sampled_from(nodes))
        base = f.restrict(draw(st.integers(0, f.level)))
        nodes.append(hashed_extension(base, base.level + draw(st.integers(0, 3)),
                                      ("grow", draw(st.integers(0, 9)))))
    return nodes


@st.composite
def _completed_queries(draw):
    """A meet-closed node set grown by ``_grown_nodes``, a level set around
    it, and selection queries against it."""
    sig = draw(st.sampled_from(TEST_SIGS))
    nodes = _grown_nodes(draw, sig, 5)
    shift = nodes[0].shift
    closed = brute_meet_closure(nodes)
    levels = tuple(sorted({f.level for f in closed}
                          | set(draw(st.lists(st.integers(0, 7), max_size=2)))))
    coord = CompletedCoordinate(sig, shift, closed, levels)
    queries = []
    for _ in range(draw(st.integers(1, 8))):
        f = draw(st.sampled_from(sorted(closed, key=lambda g: (g.level, g.values))))
        direction = f.restrict(draw(st.integers(0, f.level)))
        if draw(st.booleans()):
            direction = hashed_extension(direction, direction.level + draw(st.integers(0, 2)),
                                         ("dir", draw(st.integers(0, 9))))
        queries.append((direction, draw(st.integers(0, 8))))
    return coord, queries


@given(_completed_queries())
@settings(max_examples=300, deadline=None, database=None)
def test_completed_select_matches_scan_on_random_sets(case):
    coord, queries = case
    # the root is the meet of every node, restricted to the first level
    assert coord.root == functools.reduce(meet, coord.nodes).restrict(coord.levels[0])
    for direction, next_level in queries:
        _select_agrees(coord, direction.restrict(0), direction, next_level)


@st.composite
def _node_sets(draw):
    """Node sets from ``_grown_nodes``: as grown, closed under meets, or
    closed and then missing one node."""
    sig = draw(st.sampled_from(TEST_SIGS + (DEEP_SIG,)))
    nodes = _grown_nodes(draw, sig, 7)
    shift = nodes[0].shift
    form = draw(st.sampled_from(["grown", "closed", "closed less one"]))
    if form != "grown":
        nodes = sorted(brute_meet_closure(nodes), key=tier_key)
    if form == "closed less one":
        del nodes[draw(st.integers(0, len(nodes) - 1))]
    return sig, shift, nodes


@given(_node_sets())
@settings(max_examples=300, deadline=None, database=None)
def test_adjacent_meets_close_a_node_set_like_all_pairs(case):
    """The depth-first closure equals the all-pairs closure, and completing
    a coordinate refuses exactly the sets the all-pairs check finds open."""
    sig, shift, nodes = case
    assert set(nodes) | set(adjacent_meets(nodes)) == brute_meet_closure(nodes)
    if brute_meet_closed(nodes):
        assert set(CompletedCoordinate(sig, shift, nodes).nodes) == set(nodes)
    else:
        with pytest.raises(ValueError, match="node set is not meet-closed"):
            CompletedCoordinate(sig, shift, nodes)


def test_each_closure_takes_one_meet_per_adjacent_pair(monkeypatch):
    """On the staged ternary prefix of size 5, each cascade stage and each
    completed coordinate computes at most n - 1 meet levels for its n nodes,
    counted wherever a module holds ``_meet_level``."""
    meets, calls = [], []
    real_level, real_stage = valuation._meet_level, envelopes._stage
    real_init = CompletedCoordinate.__init__

    def counting_level(f, g):
        meets.append(None)
        return real_level(f, g)

    def stage(*args):
        before = len(meets)
        out = real_stage(*args)
        calls.append(("stage", len(out.padded), len(meets) - before))
        return out

    def init(self, *args):
        before = len(meets)
        real_init(self, *args)
        calls.append(("coordinate", len(self.nodes), len(meets) - before))

    for module in (valuation, trees, envelopes):
        if hasattr(module, "_meet_level"):
            monkeypatch.setattr(module, "_meet_level", counting_level)
    monkeypatch.setattr(envelopes, "_stage", stage)
    monkeypatch.setattr(CompletedCoordinate, "__init__", init)
    envs = list(_cascade_envelopes("ternary", 5))
    assert envs and {kind for kind, _, _ in calls} == {"stage", "coordinate"}
    assert all(count <= n - 1 for _, n, count in calls)
    assert max(n for _, n, _ in calls) >= 5


@pytest.mark.parametrize("kind,n", [("graph", 6), ("ternary", 4)])
def test_structural_embedding_matches_scan_on_cascades(kind, n):
    for env in _cascade_envelopes(kind, n):
        assert structural_embedding(env.tree) == brute_structural_embedding(env.tree)


@given(st.sampled_from([(GRAPH_SIG, 5), (TERNARY_SIG, 4), (FIG_SIG, 5)]),
       st.integers(0, 10 ** 6), st.integers(1, 5))
@settings(max_examples=40, deadline=None, database=None)
def test_structural_embedding_matches_scan_on_seeded_trees(sig_height, seed, height):
    sig, top = sig_height
    height = min(height, top)
    tree = build_valuation_tree(seeded_witness(sig, height, height, seed))
    assert structural_embedding(tree) == brute_structural_embedding(tree)


def test_structural_embedding_rejects_duplicate_and_missing_candidates():
    tree = build_valuation_tree(seeded_witness(GRAPH_SIG, 3, 3, 5))
    top = tree.nodes_by_level[-1]
    for tier in (top + top[:1], top[1:]):
        bad = ValuationTree(tree.sig, tree.shift, tree.levels,
                            tree.nodes_by_level[:-1] + (tier,))
        for embed in (structural_embedding, brute_structural_embedding):
            with pytest.raises(RuntimeError, match="candidate not unique"):
                embed(bad)


# --- the collector pause ----------------------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda: level_nodes(GRAPH_SIG, 0, 4),
    lambda: successors_at(zero_valuation(TERNARY_SIG, 0, 1), 3),
    lambda: level_nodes(GRAPH_SIG, 0, 6, cap=10),
    lambda: successors_at(zero_valuation(GRAPH_SIG, 0, 0), 6, cap=10),
], ids=["level_nodes", "successors_at", "level_nodes-infeasible", "successors_at-infeasible"])
def test_enumeration_restores_gc_state(call, gc_before):
    try:
        call()
    except InfeasibleError:
        pass
    assert gc.isenabled() is gc_before


def test_successors_are_built_with_gc_paused(gc_before, monkeypatch):
    seen = []
    real = trees._derived

    def recording(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(trees, "_derived", recording)
    assert len(successors_at(zero_valuation(GRAPH_SIG, 0, 0), 2)) == 9
    assert seen and not any(seen)
    assert gc.isenabled() is gc_before


# --- induced colourings ---------------------------------------------------------------


def _copies_of_edge(sig, height):
    nodes = sort_nodes([f for m in range(height) for f in level_nodes(sig, 0, m)])
    g = induced_tree_structure(sig, nodes)
    copies = [t for t in itertools.combinations(range(len(nodes)), 2)
              if g.related("r2c1", t)]
    return nodes, copies


def test_constant_colouring_stays_constant():
    nodes, copies = _copies_of_edge(GRAPH_SIG, 2)
    w = seeded_witness(GRAPH_SIG, 2, 2, 4)
    out = induced_colouring(w, lambda copy: 7, copies)
    assert out == (7,) * len(copies)


def test_full_tree_witness_colours_directly():
    nodes, copies = _copies_of_edge(GRAPH_SIG, 2)
    w = full_tree_witness(GRAPH_SIG, 2, 2)
    chi = lambda copy: sum(f.level for f in copy) % 2
    direct = tuple(chi(tuple(nodes[v] for v in copy)) for copy in copies)
    assert induced_colouring(w, chi, copies) == direct


def test_induced_colouring_recompute_per_copy():
    nodes, copies = _copies_of_edge(GRAPH_SIG, 2)
    w = seeded_witness(GRAPH_SIG, 2, 2, 9)
    chi = lambda copy: sum(f.level for f in copy) % 2
    got = induced_colouring(w, chi, copies)
    tree = build_valuation_tree(w)
    emb = structural_embedding(tree)
    for colour, copy in zip(got, copies):
        assert colour == chi(tuple(emb[nodes[v]] for v in copy))


# --- bounded partition search ----------------------------------------------------------


def test_search_with_one_colour_returns_first_witness():
    out = milliken_search(FIG_SIG, 1, 1, depth=3, colouring=lambda s: 0, height=2)
    assert isinstance(out, StrongSubtreeWitness)
    assert out.levels == (0, 1)


def test_search_finds_level_homogeneous_selection():
    binary = __import__("brt.valuation", fromlist=["Signature"]).Signature((2,))
    parity = lambda snap: snap.nodes[0].level % 2
    out = milliken_search(binary, 1, 1, depth=4, colouring=parity, height=2)
    assert isinstance(out, StrongSubtreeWitness)
    levels = out.levels
    assert levels[0] % 2 == levels[1] % 2


def test_search_rejects_unbounded_branching():
    from brt.adversarial import OmegaSubtree
    omega = OmegaSubtree((), (0, 1))
    with pytest.raises(TypeError):
        milliken_search(omega, 1, 1, depth=3, colouring=lambda s: 0)


def test_search_exhaustion_reports_frontier():
    # parity of the level sum cannot be constant on height-2 subtrees of depth 2
    binary = __import__("brt.valuation", fromlist=["Signature"]).Signature((2,))
    chi = lambda snap: snap.nodes[0].level if len(snap.nodes) == 1 else 0
    out = milliken_search(binary, 1, 1, depth=2, colouring=chi, height=2)
    assert isinstance(out, ExhaustionReport)
    assert out.searched > 0 and "depth 2" in out.frontier


def test_subtree_snapshots_of_height_one_are_nodes():
    w = full_tree_witness(GRAPH_SIG, 1, 2)
    snap = snapshot(w)
    subs = list(subtree_snapshots(snap, 1))
    assert len(subs) == 1 + 3


# --- DOT --------------------------------------------------------------------------------


def _assert_distinct_labels(tree):
    for tier in tree.nodes_by_level:
        assert len({_vf_label(f) for f in tier}) == len(tier)


def test_dot_labels_separate_tuple_entries():
    """Joined without a separator, both entries would read ``210``."""
    sig = Signature((2, 3, 3))
    a = make_valuation(sig, 0, 22, {(21, 0): 1})
    b = make_valuation(sig, 0, 22, {(2, 1, 0): 1})
    assert (_vf_label(a), _vf_label(b)) == ("L22|21.0:1", "L22|2.1.0:1")


def test_dot_output_shape():
    tree = build_valuation_tree(full_tree_witness(GRAPH_SIG, 2, 2))
    dot = tree_to_dot(tree)
    assert dot.startswith("digraph")
    assert dot.count("->") == 3
    assert 'label="L0|0"' in dot


@pytest.mark.parametrize("sig", TEST_SIGS)
def test_dot_edges_match_the_tier_scan_on_full_trees(sig):
    for height in range(1, 5):
        tree = build_valuation_tree(full_tree_witness(sig, height, height))
        assert tree_to_dot(tree) == brute_tree_to_dot(tree)
        _assert_distinct_labels(tree)


@given(st.sampled_from(TEST_SIGS), st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None, database=None)
def test_dot_edges_match_the_tier_scan_on_seeded_trees(sig, height, seed):
    tree = build_valuation_tree(seeded_witness(sig, height, height, seed))
    assert tree_to_dot(tree, "seeded") == brute_tree_to_dot(tree, "seeded")
    _assert_distinct_labels(tree)


@pytest.mark.parametrize("kind,size,k", [("graph", 6, 3), ("ternary", 5, 2)])
def test_dot_edges_match_the_tier_scan_on_envelope_trees(kind, size, k):
    emb = build_enveloping(prefix_structure(kind, size), k)
    for subset in itertools.combinations(range(size), k):
        tree = compute_envelope(emb, subset).tree
        if tree is not None:
            assert tree_to_dot(tree, "envelope") == brute_tree_to_dot(tree, "envelope")
            _assert_distinct_labels(tree)


# --- seeded selections: the tag is hashed once per extension ---------------------


# tag entries: scalars, one-element and longer tuples, and stored entries
# (nested ``(tuple, value)`` pairs) as the seeded selections use them
_TAG_ITEMS = st.one_of(
    st.integers(-5, 10 ** 6), st.text(max_size=3), st.none(),
    st.tuples(st.integers(0, 9)), st.lists(st.integers(0, 9), max_size=3).map(tuple),
    st.lists(st.tuples(st.lists(st.integers(0, 9), min_size=1, max_size=2).map(tuple),
                       st.integers(1, 3)), max_size=2).map(tuple))


@settings(max_examples=100, deadline=None)
@given(st.lists(_TAG_ITEMS, max_size=5).map(tuple),
       st.lists(st.integers(0, 20), min_size=1, max_size=3).map(tuple), st.integers(1, 9))
def test_tag_digest_matches_the_per_slot_digest(tag, t, bound):
    """Empty, one-element and longer tags, nested tuples included."""
    assert _tag_digest(tag)(t, bound) == naive_digest(tag + (t,), bound)


@pytest.mark.parametrize("sig", TEST_SIGS + (DEEP_SIG,))
def test_seeded_selections_match_per_slot_digests(sig, monkeypatch):
    """Every root and selection of seeded witnesses, through a valuation
    tree build, equals its extension hashed slot by slot."""
    calls = []
    real = trees.hashed_extension

    def recording(f, level, tag):
        out = real(f, level, tag)
        calls.append((f, level, tag, out))
        return out

    monkeypatch.setattr(trees, "hashed_extension", recording)
    height = 2 if sig == DEEP_SIG else 3
    for seed in range(3):
        build_valuation_tree(seeded_witness(sig, height, height, seed))
    assert len(calls) > 10
    for f, level, tag, out in calls:
        assert out == naive_hashed_extension(f, level, tag)
