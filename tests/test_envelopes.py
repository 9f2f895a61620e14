"""Enveloping embeddings, the envelope cascade, and degree counting."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brt.envelopes import (
    BranchMarker,
    build_enveloping,
    compute_envelope,
    degree_upper_bound,
    envelope_height_bound,
    trace_invariants,
    verify_k_enveloping,
)
from brt.errors import InfeasibleError
from brt.structures import graph_language, make_language, make_structure, uniform_language
from brt.trees import level_nodes, sort_nodes, structural_embedding, tree_language
from brt.valuation import (
    Signature,
    ValuationFunction,
    comparable,
    make_valuation,
    meet,
    zero_valuation,
)

from conftest import (
    GRAPH_SIG,
    brute_meet_closure,
    is_structural,
    naive_cascade,
    naive_degree_upper_bound,
    naive_enveloping_images,
    naive_marker_levels,
    naive_verify_k_enveloping,
    prefix_structure,
    random_hypergraph,
    tree_embeddings_brute,
)


def path3():
    return make_structure(graph_language(), 3, {"e": [(0, 1), (1, 2)]},
                          hypergraph=True)


def naive_verify(emb, k=None):
    """Literal quantifier form of the enveloping conditions (small inputs):
    every slice tuple is enumerated, and constant zeros of every level up to
    the window top stand in for the zero family."""
    k = k or emb.k
    sig = emb.sig
    images = [emb.images[v] for v in sorted(emb.images)]
    top = max(emb.vertex_level.values(), default=0) + 1

    def decreasing(n, length):
        return itertools.combinations(range(n - 1, -1, -1), length)

    for f in images:
        for m in range(1, k):
            for xbar in decreasing(f.level, m):
                if not f.slice_at(xbar).is_zero and any(x not in emb.original
                                                        for x in xbar):
                    return False
    pool = images + [zero_valuation(sig, 0, l) for l in range(top)]
    for m in range(0, k):
        slices = []
        for g in pool:
            if m == 0:
                slices.append(g)
            else:
                slices.extend(g.slice_at(xbar) for xbar in decreasing(g.level, m))
        for s1, s2 in itertools.combinations(slices, 2):
            if comparable(s1, s2):
                continue
            if meet(s1, s2).level not in emb.branching:
                return False
    return True


# --- construction ---------------------------------------------------------------


def test_rank_function_on_the_graph_language():
    emb = build_enveloping(path3(), 1)
    assert emb.vertex_level == {0: 1, 1: 3, 2: 5}
    assert {m.vertices[0]: l for m, l in emb.marker_level.items()} == {0: 0, 1: 2, 2: 4}
    assert emb.original == {1, 3, 5}
    assert emb.branching == {0, 2, 4}


def test_path_image_entries():
    emb = build_enveloping(path3(), 1)
    img = emb.images[2]
    assert img.level == 5
    assert img.value_map() == {(3,): 1, (2,): 2}


def test_edgeless_images_are_constant_zero():
    edgeless = make_structure(graph_language(), 4, {}, hypergraph=True)
    emb = build_enveloping(edgeless, 2)
    assert all(f.is_zero for f in emb.images.values())


def test_embedding_preserves_and_reflects_edges():
    emb = build_enveloping(path3(), 2)
    for (a, b) in itertools.combinations(range(3), 2):
        want = path3().related("e", (a, b))
        top, low = emb.images[b], emb.images[a]
        assert (top.value((low.level,)) == 1) == want


def test_unary_languages_are_rejected():
    lang = graph_language().with_symbols(("u0", 1))
    s = make_structure(lang, 2, {}, hypergraph=True)
    with pytest.raises(ValueError):
        build_enveloping(s, 1)


# --- verification ------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["graph", "ternary"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_built_embeddings_verify(kind, k):
    structure = prefix_structure(kind, 8)
    emb = build_enveloping(structure, k)
    assert emb.verify().ok


def test_verifier_agrees_with_naive_oracle():
    for kind in ("graph", "ternary"):
        for n in (3, 5):
            for k in (1, 2):
                emb = build_enveloping(prefix_structure(kind, n), k)
                assert verify_k_enveloping(emb).ok == naive_verify(emb)


def test_path_slices_meet_at_branching_level():
    emb = build_enveloping(path3(), 1)
    f, g = emb.images[1], emb.images[2]
    assert not comparable(f, g)
    m = meet(f, g)
    assert m.level == 0 and 0 in emb.branching


def test_mutated_embedding_fails_with_witness():
    emb = build_enveloping(path3(), 1)
    img = emb.images[2]
    broken = make_valuation(emb.sig, 0, img.level, {(3,): 1})  # drop the marker entry
    mutated = replace(emb, images={**emb.images, 2: broken})
    verdict = mutated.verify()
    assert not verdict.ok
    assert verdict.kind == "first_branch_not_branching"
    assert verdict.witness is not None
    assert not naive_verify(mutated)


def test_prefix_mutation_breaks_condition_one():
    structure = prefix_structure("ternary", 6)
    emb = build_enveloping(structure, 2)
    victim = next(v for v in sorted(emb.images)
                  if any(len(t) >= 2 for t, _ in emb.images[v].values))
    img = emb.images[victim]
    t = next(t for t, _ in img.values if len(t) >= 2)
    bad_level = min(emb.branching - set(range(t[0], img.level)))
    vals = img.value_map()
    v = vals.pop(t)
    vals[(img.level - 1, bad_level)] = 1
    broken = make_valuation(emb.sig, 0, img.level, vals)
    mutated = replace(emb, images={**emb.images, victim: broken})
    verdict = mutated.verify()
    assert not verdict.ok


def test_monotone_k_consistency():
    for kind in ("graph", "ternary"):
        emb = build_enveloping(prefix_structure(kind, 8), 3)
        for smaller in (1, 2, 3):
            assert emb.verify(k=smaller).ok


# --- the one-pass walks against their twins ---------------------------------------


# The prefix sizes the tests above build embeddings of.
ENVELOPE_SIZES = (3, 5, 6, 8, 9, 10)
# Graph, ternary, mixed-arity and two-colour binary languages.
ENVELOPE_LANGUAGES = (
    graph_language(),
    uniform_language(3),
    make_language(("e", 2), ("t", 3)),
    make_language(("a", 2), ("b", 2)),
)
VERDICT_KINDS = {None, "nonzero_slice_off_original", "first_branch_not_branching",
                 "meet_not_branching"}


def _mutated(emb, rng, count):
    """``emb`` with ``count`` random entries of its images overwritten: each
    at a decreasing tuple of levels below the image's level, with a random
    value (zero drops the entry)."""
    sig, images = emb.sig, dict(emb.images)
    for _ in range(count):
        v = rng.choice(sorted(images))
        f = images[v]
        length = rng.randint(1, len(sig.prefix))
        if length > f.level:
            continue
        t = tuple(sorted(rng.sample(range(f.level), length), reverse=True))
        vals = f.value_map()
        vals[t] = rng.randrange(sig.bound(0, length))
        images[v] = make_valuation(sig, 0, f.level, vals)
    return replace(emb, images=images)


def _assert_walks_match_twins(emb):
    assert (emb.vertex_level, emb.marker_level) == naive_marker_levels(
        emb.sig, emb.k, emb.structure.size)
    assert emb.images == naive_enveloping_images(emb)
    # The images skip the validating constructor; each must pass it unchanged.
    assert all(f == make_valuation(f.sig, 0, f.level, dict(f.values))
               for f in emb.images.values())
    for j in (1, 2, 3):
        assert verify_k_enveloping(emb, j) == naive_verify_k_enveloping(emb, j)


def _assert_cascade_matches_twin(emb, subset):
    env = compute_envelope(emb, subset)
    twin = naive_cascade(emb, subset)
    assert len(env.stages) == len(twin)
    for got, want in zip(env.stages, twin):
        assert (got.slices, got.padded, got.meets, got.aligned) == (
            want.slices, want.padded, want.meets, want.aligned)
        assert set(got.meets) == brute_meet_closure(got.padded)
        assert list(got.provenance.items()) == list(want.provenance.items())


@pytest.mark.parametrize("kind", ["graph", "ternary"])
@pytest.mark.parametrize("n", ENVELOPE_SIZES)
def test_one_pass_walks_match_their_twins(kind, n):
    structure = prefix_structure(kind, n)
    rng = random.Random(n)
    for k in (1, 2, 3):
        emb = build_enveloping(structure, k)
        _assert_walks_match_twins(emb)
        subsets = list(itertools.combinations(range(n), k))
        for subset in subsets if len(subsets) <= 12 else rng.sample(subsets, 12):
            _assert_cascade_matches_twin(emb, subset)


def test_verifier_matches_twin_on_mutated_embeddings():
    kinds = set()
    for kind in ("graph", "ternary"):
        for n in ENVELOPE_SIZES:
            for k in (1, 2, 3):
                emb = build_enveloping(prefix_structure(kind, n), k)
                for seed in range(6):
                    mutated = _mutated(emb, random.Random(seed), 1 + seed % 3)
                    for j in (1, 2, 3):
                        got = verify_k_enveloping(mutated, j)
                        assert got == naive_verify_k_enveloping(mutated, j)
                        kinds.add(got.kind)
    assert kinds == VERDICT_KINDS


@settings(max_examples=40, deadline=None)
@given(lang=st.sampled_from(ENVELOPE_LANGUAGES), n=st.integers(1, 7), k=st.integers(1, 3),
       density=st.sampled_from([0.2, 0.5, 0.9]), seed=st.integers(0, 2 ** 32 - 1),
       mutations=st.integers(1, 4), data=st.data())
def test_one_pass_walks_match_twins_on_drawn_hypergraphs(lang, n, k, density, seed,
                                                          mutations, data):
    rng = random.Random(seed)
    emb = build_enveloping(random_hypergraph(lang, n, rng, density), k)
    _assert_walks_match_twins(emb)
    mutated = _mutated(emb, rng, mutations)
    for j in (1, 2, 3):
        assert verify_k_enveloping(mutated, j) == naive_verify_k_enveloping(mutated, j)
    if k <= n and emb.verify().ok:
        subset = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                                    unique=True))
        _assert_cascade_matches_twin(emb, tuple(sorted(subset)))


# --- the height bound ----------------------------------------------------------------


def test_height_bound_values():
    assert envelope_height_bound(0) == 0
    assert envelope_height_bound(1) == 2
    assert envelope_height_bound(2) == 17
    assert envelope_height_bound(3) == 64


def test_height_bound_closed_form():
    for k in range(1, 9):
        assert envelope_height_bound(k) == (2 * k - 2) * (2 ** (k + 1) - 1) + (k + 1)


# --- the cascade ----------------------------------------------------------------------


def test_path_envelope_worked_example():
    emb = build_enveloping(path3(), 2)
    env = compute_envelope(emb, (0, 1))
    assert env.levels == (0, 1, 3)
    assert env.height == 3
    assert env.contained
    stage0 = env.stages[0]
    z0 = zero_valuation(emb.sig, 0, 0)
    z1 = zero_valuation(emb.sig, 0, 1)
    z3 = zero_valuation(emb.sig, 0, 3)
    assert set(stage0.meets) == {z0, z1, emb.images[1], z3}
    assert all(f.is_zero for f in env.stages[1].slices)


def test_single_vertex_envelope_is_low():
    emb = build_enveloping(path3(), 1)
    for v in range(3):
        env = compute_envelope(emb, (v,))
        assert env.height <= envelope_height_bound(1) == 2
        assert env.levels == env.stages[0].levels()
        assert env.contained


def test_empty_subset_gives_empty_envelope():
    emb = build_enveloping(path3(), 1)
    emb0 = replace(emb, k=0)
    env = compute_envelope(emb0, ())
    assert env.height == 0 and env.stages == () and env.contained


def test_envelope_rejects_wrong_subset_size():
    emb = build_enveloping(path3(), 2)
    with pytest.raises(ValueError):
        compute_envelope(emb, (0,))


def test_envelope_rejects_unverified_embedding():
    emb = build_enveloping(path3(), 1)
    broken = make_valuation(emb.sig, 0, emb.images[2].level, {(3,): 1})
    mutated = replace(emb, images={**emb.images, 2: broken})
    with pytest.raises(ValueError):
        compute_envelope(mutated, (2,))


def test_copy_of_verified_embedding_is_verified_afresh():
    emb = build_enveloping(path3(), 1)
    assert emb.verify().ok
    broken = make_valuation(emb.sig, 0, emb.images[2].level, {(3,): 1})
    mutated = replace(emb, images={**emb.images, 2: broken})
    assert not mutated.verify().ok
    assert not verify_k_enveloping(mutated).ok
    with pytest.raises(ValueError):
        compute_envelope(mutated, (2,))
    assert emb.verify().ok


@pytest.mark.parametrize("kind", ["graph", "ternary"])
def test_random_envelopes_contain_and_bound(kind):
    rng = random.Random(11)
    structure = prefix_structure(kind, 10)
    embs = {k: build_enveloping(structure, k) for k in (1, 2, 3)}
    for _ in range(25):
        k = rng.randint(1, 3)
        subset = tuple(sorted(rng.sample(range(10), k)))
        env = compute_envelope(embs[k], subset)
        assert env.contained
        assert env.height <= envelope_height_bound(k)
        assert all(trace_invariants(env, embs[k]).values())


def test_trace_invariant_extends_calls_do_not_depend_on_node_hashes(monkeypatch):
    calls = []
    real_extends = ValuationFunction.extends

    def counting(self, other):
        calls.append(None)
        return real_extends(self, other)

    def traced():
        emb = build_enveloping(prefix_structure("ternary", 6), 3)
        envs = [compute_envelope(emb, s) for s in itertools.combinations(range(6), 3)]
        calls.clear()
        verdicts = [trace_invariants(env, emb) for env in envs]
        return verdicts, len(calls)

    monkeypatch.setattr(ValuationFunction, "extends", counting)
    want = traced()
    assert all(all(v.values()) for v in want[0]) and want[1] > 0
    real_hash = ValuationFunction.__hash__
    for salt in (1, 2, 3):
        monkeypatch.setattr(ValuationFunction, "__hash__",
                            lambda self, salt=salt: hash((salt, real_hash(self))))
        assert traced() == want


def test_mixed_arity_language_envelopes():
    from brt.structures import empty_prefix, generic_extend, make_language
    mixed = make_language(("e", 2), ("t", 3))
    prefix = empty_prefix(mixed)
    while prefix.size < 8:
        prefix = generic_extend(prefix, 1)
    s = prefix.structure
    rng = random.Random(7)
    for k in (1, 2, 3):
        emb = build_enveloping(s, k)
        assert emb.verify().ok
        for _ in range(8):
            subset = tuple(sorted(rng.sample(range(8), k)))
            env = compute_envelope(emb, subset)
            assert env.contained
            assert all(trace_invariants(env, emb).values())


def test_envelope_membership_matches_materialised_tree():
    from brt.trees import val_contains
    emb = build_enveloping(path3(), 2)
    env = compute_envelope(emb, (0, 1))
    members = set(env.tree.nodes)
    universe = [f for lvl in env.levels for f in level_nodes(emb.sig, 0, lvl)]
    for f in universe:
        assert val_contains(env.witness, f, 0, env.height) == (f in members)


def test_envelope_coordinates_are_strong_subtrees():
    from conftest import assert_strong_subtree
    emb = build_enveloping(path3(), 2)
    env = compute_envelope(emb, (0, 1))
    for coord in env.witness.coords:
        tiers = assert_strong_subtree(coord, env.levels)
        assert [f.level for tier in tiers for f in tier][0] == env.levels[0]
    for st, coord in zip(env.stages, env.witness.coords):
        flat = [f for tier in __import__("brt.trees", fromlist=["coordinate_nodes"])
                .coordinate_nodes(coord, env.levels) for f in tier]
        assert set(st.aligned) <= set(flat)


def test_stage_level_counts_decay():
    emb = build_enveloping(prefix_structure("graph", 9), 3)
    env = compute_envelope(emb, (2, 5, 8))
    bound = envelope_height_bound(3)
    for st in env.stages:
        assert len(st.levels()) <= bound - st.index


def test_envelope_tree_admits_unique_structural_embedding():
    emb = build_enveloping(path3(), 2)
    env = compute_envelope(emb, (0, 1))
    assert env.tree is not None
    emb_map = structural_embedding(env.tree)
    found = [m for m in tree_embeddings_brute(env.tree) if is_structural(env.tree, m)]
    assert len(found) == 1 and found[0] == emb_map
    assert {emb.images[v] for v in (0, 1)} <= set(env.tree.nodes)


# --- degree counting --------------------------------------------------------------------


def brute_edge_count(sig, height):
    """Independent counter: test all increasing node pairs for the defining
    identity directly, without building a structure."""
    nodes = sort_nodes([f for m in range(height) for f in level_nodes(sig, 0, m)])
    count = 0
    for i, j in itertools.combinations(range(len(nodes)), 2):
        a, b = nodes[i], nodes[j]
        if a.level == b.level:
            continue
        top, low = (a, b) if a.level > b.level else (b, a)
        if top.value((low.level,)) == 1:
            count += 1
    return count


def test_degree_single_vertex():
    lang = tree_language(GRAPH_SIG)
    point = make_structure(lang, 1, {}, hypergraph=True)
    assert degree_upper_bound(point, 2, GRAPH_SIG) == 4


def test_degree_edge_matches_brute_force():
    lang = tree_language(GRAPH_SIG)
    edge = make_structure(lang, 2, {"r2c1": [(0, 1)]}, hypergraph=True)
    assert degree_upper_bound(edge, 2, GRAPH_SIG) == 1 == brute_edge_count(GRAPH_SIG, 2)
    assert degree_upper_bound(edge, 3, GRAPH_SIG) == brute_edge_count(GRAPH_SIG, 3)


def test_degree_infeasible_at_the_bound_height():
    lang = tree_language(GRAPH_SIG)
    edge = make_structure(lang, 2, {"r2c1": [(0, 1)]}, hypergraph=True)
    with pytest.raises(InfeasibleError) as exc:
        degree_upper_bound(edge, envelope_height_bound(2), GRAPH_SIG)
    assert exc.value.estimate >= 3 ** 16


def _degree_under_order(a, height, sig, key):
    """Copy count with an alternative within-level node enumeration."""
    from brt.structures import enumerate_embeddings
    from brt.trees import induced_tree_structure

    nodes = [f for m in range(height) for f in level_nodes(sig, 0, m)]
    nodes.sort(key=key)
    lang = tree_language(sig)
    # reuse the induced-structure builder but on an explicitly ordered list
    import itertools as _it
    from brt.valuation import tuple_colour
    rels = {}
    for arity in (2,):
        for combo in _it.combinations(range(len(nodes)), arity):
            chosen = [nodes[i] for i in combo]
            if len({f.level for f in chosen}) != arity:
                continue
            colour = tuple_colour(sorted(chosen, key=lambda f: -f.level))
            if 1 <= colour <= sig[arity - 1] - 2:
                rels.setdefault(f"r{arity}c{colour}", []).append(combo)
    g = make_structure(lang, len(nodes), rels, hypergraph=True)
    return len(enumerate_embeddings(a, g))


def test_degree_counts_independent_of_tiebreak_order():
    """The within-level enumeration is underdetermined; the worked
    copy-count values must not depend on which total order is chosen."""
    lang = tree_language(GRAPH_SIG)
    point = make_structure(lang, 1, {}, hypergraph=True)
    edge = make_structure(lang, 2, {"r2c1": [(0, 1)]}, hypergraph=True)
    pair = make_structure(lang, 2, {}, hypergraph=True)
    forward = lambda f: (f.level, f.values)
    backward = lambda f: (f.level, tuple((t, -v) for t, v in f.values))
    for a in (point, edge, pair):
        for height in (2, 3):
            assert (_degree_under_order(a, height, GRAPH_SIG, forward)
                    == _degree_under_order(a, height, GRAPH_SIG, backward)
                    == degree_upper_bound(a, height, GRAPH_SIG))


def _tree_structures(sig, size):
    """Every hypergraph on ``size`` vertices over the tree language of
    ``sig``: each vertex set of a related arity takes no symbol or one."""
    lang = tree_language(sig)
    sets = [s for arity in range(2, size + 1) if lang.symbols_of_arity(arity)
            for s in itertools.combinations(range(size), arity)]
    for names in itertools.product(*([None, *lang.symbols_of_arity(len(s))] for s in sets)):
        rels = {}
        for s, name in zip(sets, names):
            if name:
                rels.setdefault(name, []).append(s)
        yield make_structure(lang, size, rels, hypergraph=True)


@pytest.mark.parametrize("sig,heights", [(GRAPH_SIG, range(6)), (Signature((2, 3)), range(4))])
def test_degree_count_matches_the_embedding_search_on_small_structures(sig, heights):
    """Every structure of up to 3 vertices, against the search over the
    induced tree hypergraph."""
    for size in range(4):
        for a in _tree_structures(sig, size):
            for h in heights:
                assert degree_upper_bound(a, h, sig) == naive_degree_upper_bound(a, h, sig)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_degree_count_matches_the_embedding_search_on_drawn_structures(size, height, seed):
    """Signature (3, 4): one binary colour, two ternary ones, and vertex
    sets of one arity that share a top vertex and its lower levels."""
    sig = Signature((3, 4))
    a = random_hypergraph(tree_language(sig), size, random.Random(seed), density=0.5)
    assert degree_upper_bound(a, height, sig) == naive_degree_upper_bound(a, height, sig)


def test_degree_count_closed_forms():
    """Heights the search cannot reach: a point is any node, (3^h - 1)/2 of
    them; an edge is a node at level l below one at level m with value 1 at
    (l,), 3^l * 3^(m-1) pairs; the TERNARY triple at height 4; a pair in a
    tree of one node per level."""
    lang = tree_language(GRAPH_SIG)
    point = make_structure(lang, 1, {}, hypergraph=True)
    edge = make_structure(lang, 2, {"r2c1": [(0, 1)]}, hypergraph=True)
    for h in range(13):
        assert degree_upper_bound(point, h, GRAPH_SIG) == (3 ** h - 1) // 2
        assert degree_upper_bound(edge, h, GRAPH_SIG) == sum(
            3 ** (l + m - 1) for m in range(h) for l in range(m))
    assert degree_upper_bound(edge, 5, GRAPH_SIG) == 1210
    ternary = Signature((2, 3))
    triple = make_structure(tree_language(ternary), 3, {"r3c1": [(0, 1, 2)]}, hypergraph=True)
    assert degree_upper_bound(triple, 4, ternary) == 2744
    # one node per level: any increasing map, at a height of 10^5 levels
    pair = make_structure(lang, 2, {}, hypergraph=True)
    assert degree_upper_bound(pair, 10 ** 5, Signature()) == 10 ** 5 * (10 ** 5 - 1) // 2
