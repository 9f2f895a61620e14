"""Structures, embeddings, and the staged generic prefixes."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brt.adversarial import GrowPrefix, PersistentColouringContext
from brt.errors import LanguageMismatchError
from brt.structures import (
    EnumeratedStructure,
    _derived,
    ExtensionRequest,
    countable_symbol_name,
    empty_prefix,
    enumerate_embeddings,
    forbidden_sets,
    gaifman_irreducible,
    generic_extend,
    graph_language,
    is_covered,
    make_language,
    make_structure,
    uniform_language,
)
from brt.trees import induced_tree_structure, level_nodes
from brt.valuation import Signature

from conftest import (
    LOOKUP_LANGUAGES,
    brute_embeddings,
    brute_induced_relations,
    lookup_structures,
    naive_enumerate_embeddings,
    naive_is_covered,
    naive_realize,
    naive_related,
    naive_slot_choice,
    naive_with_symbol,
    random_covered_structure,
    random_general_structure,
    random_hypergraph,
)


def graph(size, edges):
    return make_structure(graph_language(), size, {"e": edges}, hypergraph=True)


# --- embeddings -------------------------------------------------------------------


def test_single_vertex_into_edgeless():
    a = graph(1, [])
    b = graph(3, [])
    assert enumerate_embeddings(a, b) == [(0,), (1,), (2,)]


def test_edge_into_path():
    a = graph(2, [(0, 1)])
    b = graph(3, [(0, 1), (1, 2)])
    assert enumerate_embeddings(a, b) == [(0, 1), (1, 2)]


def test_identity_embedding_present():
    a = graph(2, [(0, 1)])
    assert enumerate_embeddings(a, a) == [(0, 1)]


def test_language_mismatch_raises():
    a = graph(1, [])
    b = make_structure(uniform_language(3), 2, {}, hypergraph=True)
    for search in (enumerate_embeddings, naive_enumerate_embeddings):
        with pytest.raises(LanguageMismatchError, match="embedding between different languages"):
            search(a, b)


def test_embeddings_reflect_relations():
    a = graph(2, [])  # non-edge
    b = graph(3, [(0, 1)])
    assert enumerate_embeddings(a, b) == [(0, 2), (1, 2)]


def test_embedding_composition_closure():
    structures = [graph(2, []), graph(2, [(0, 1)]), graph(3, [(0, 1)]),
                  graph(3, [(0, 1), (1, 2)]), graph(4, [(0, 1), (2, 3)]),
                  graph(4, [(0, 1), (1, 2), (0, 2)])]
    for a, b, c in itertools.product(structures, repeat=3):
        ab = enumerate_embeddings(a, b)
        bc = enumerate_embeddings(b, c)
        ac = set(enumerate_embeddings(a, c))
        for e1 in ab:
            for e2 in bc:
                assert tuple(e2[v] for v in e1) in ac


def test_embeddings_monotone():
    a = graph(2, [(0, 1)])
    b = graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for e in enumerate_embeddings(a, b):
        assert all(x < y for x, y in zip(e, e[1:]))


# --- the indexed search against the subset scan -----------------------------------

SEARCH_LANGUAGES = [
    graph_language(),
    make_language(("a", 2), ("b", 2)),
    make_language(("u", 1), ("w", 1)),
    uniform_language(3),
    make_language(("u", 1), ("e", 2), ("t", 3)),
    make_language(countable_arities={1, 3}).with_symbols(("u2", 1), ("r3c1", 3), ("r3c4", 3)),
    make_language(("e", 2), countable_arities={2}).with_symbols(("r2c5", 2)),
]


@st.composite
def structure_pairs(draw):
    """A target ``b`` and a source ``a`` in one language: ``a`` is ``b``
    itself, a scanned induced piece of ``b`` (so embeddings exist), an
    independent random structure, an empty structure or one larger than
    ``b``.  A non-hypergraph may repeat vertices in a tuple, so a relation
    of any arity can have a one-vertex support."""
    lang = draw(st.sampled_from(SEARCH_LANGUAGES))
    hyper = draw(st.booleans())
    injective = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from([0.15, 0.35, 0.6, 0.9]))

    def make(size):
        if hyper:
            return random_hypergraph(lang, size, rng, density)
        return random_general_structure(lang, size, rng, density, injective)

    b = make(draw(st.integers(0, 8)))
    kind = draw(st.sampled_from(["same", "piece", "random", "empty", "larger"]))
    if kind == "same":
        return b, b
    if kind == "piece":
        vs = draw(st.sets(st.integers(0, max(b.size - 1, 0)), max_size=min(b.size, 5)))
        rels = brute_induced_relations(b, vs)
        return EnumeratedStructure(lang, len(vs), rels, hyper), b
    if kind == "empty":
        return make(0), b
    if kind == "larger":
        return make(b.size + draw(st.integers(1, 2))), b
    return make(draw(st.integers(0, 5))), b


@settings(max_examples=400, deadline=None)
@given(structure_pairs())
def test_search_matches_subset_scan(pair):
    """The bit-mask search against the per-candidate search and the subset scan."""
    a, b = pair
    assert enumerate_embeddings(a, b) == naive_enumerate_embeddings(a, b) == brute_embeddings(a, b)


@pytest.mark.parametrize("seed", range(6))
def test_mask_search_matches_the_twin_on_large_sources(seed):
    """Sources nearly as large as the target: late vertices leave more sets
    unrelated than the target has supports in their window, so the search
    counts the target's supports inside the image instead."""
    rng = random.Random(seed)
    lang = make_language(("u", 1), ("e", 2), ("t", 3))
    b = random_hypergraph(lang, 13, rng, rng.choice((0.05, 0.15, 0.3)))
    for a in (b, b.induced(v for v in range(13) if v % 4), b.induced(range(1, 12))):
        assert enumerate_embeddings(a, b) == naive_enumerate_embeddings(a, b)
    g = random_general_structure(lang, 10, rng, 0.1)
    for a in (g, g.induced(range(2, 10))):
        assert enumerate_embeddings(a, g) == naive_enumerate_embeddings(a, g)


def test_one_ternary_tuple_into_the_ternary_tree_hypergraph_is_quick():
    """Each embedding is one ternary support of the tree hypergraph on the
    231 nodes below height 4.  Testing each candidate image on its own,
    the search tried all two million triples for these, for seconds."""
    sig = Signature((2, 3))
    b = induced_tree_structure(sig, [f for m in range(4) for f in level_nodes(sig, 0, m)])
    a = make_structure(b.language, 3, {"r3c1": [(0, 1, 2)]}, hypergraph=True)
    start = time.perf_counter()
    maps = enumerate_embeddings(a, b)
    elapsed = time.perf_counter() - start
    assert len(maps) == 2744
    assert maps == sorted(s for s in b._index.by_size[3] if b.related("r3c1", s))
    assert elapsed < 1.0


@settings(max_examples=300, deadline=None)
@given(structure_pairs(), st.data())
def test_type_on_matches_scanned_induced_type(pair, data):
    _, b = pair
    vs = data.draw(st.lists(st.integers(0, max(b.size - 1, 0)), unique=True,
                            max_size=b.size))
    want = brute_induced_relations(b, vs)
    assert b.type_on(vs) == want
    assert b.induced(vs).relations == want


# --- predicates -------------------------------------------------------------------


def test_one_ternary_tuple_spans_everything():
    f = make_structure(uniform_language(3), 3, {"r3": [(0, 1, 2)]}, hypergraph=True)
    assert gaifman_irreducible(f) and is_covered(f)


def test_path_is_reducible():
    p = graph(3, [(0, 1), (1, 2)])
    assert not gaifman_irreducible(p)
    assert not is_covered(p)


def test_single_vertex_vacuous():
    v = graph(1, [])
    assert gaifman_irreducible(v) and not is_covered(v)


# --- relation lookups against their scanning twins ------------------------------------


@settings(max_examples=200, deadline=None)
@given(lookup_structures())
def test_related_matches_scan(s):
    # every vertex tuple of every length up to one past the arity, one
    # vertex past the structure included, and a name outside the language
    names = [name for name, _ in s.language.symbols] + ["zz"]
    for length in range(1, max(a for _, a in s.language.symbols) + 2):
        for t in itertools.product(range(s.size + 1), repeat=length):
            for name in names:
                assert s.related(name, t) == naive_related(s, name, t)


@settings(max_examples=200, deadline=None)
@given(lookup_structures())
def test_is_covered_matches_scan(s):
    for k in range(s.size + 1):
        for vs in itertools.combinations(range(s.size), k):
            part = s.induced(vs)
            assert is_covered(part) == naive_is_covered(part)


def _assert_slot_choices_match_scan(prefix):
    n = prefix.size
    for v in range(n):
        for k in range(3):
            for slot in itertools.combinations(range(n), k):
                assert prefix.slot_choice(slot, v) == naive_slot_choice(prefix, slot, v)


def _randomly_grown(lang, rng, size):
    """A prefix grown by requests with random bases and choices; a countable
    arity draws symbol indices with gaps, so indices and ranks differ."""
    prefix = empty_prefix(lang)
    for _ in range(size):
        base = tuple(v for v in range(prefix.size) if rng.random() < 0.6)
        choices = {}
        for slot in [()] + [c for k in (1, 2) for c in itertools.combinations(base, k)]:
            arity = len(slot) + 1
            if arity in lang.countable_arities:
                choices[slot] = rng.choice((0, 1, 3, 4, 7))
            elif lang.arity_count(arity):
                choices[slot] = rng.randint(0, lang.arity_count(arity))
        prefix = prefix.realize(ExtensionRequest.of(base, {k: c for k, c in choices.items() if c}))
    return prefix


GROWN_LANGUAGES = LOOKUP_LANGUAGES + (make_language(countable_arities={1, 2}),)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GROWN_LANGUAGES), st.integers(0, 2 ** 32 - 1), st.integers(0, 7))
def test_slot_choice_matches_scan_on_grown_prefixes(lang, seed, size):
    _assert_slot_choices_match_scan(_randomly_grown(lang, random.Random(seed), size))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from((0, 1, 2, 5, 9)), max_size=8), max_size=8))
def test_colour_between_matches_scan_on_countable_binary_prefixes(colours):
    """Countable-binary prefixes grown through the colouring context: the
    ``i``-th new vertex joins each earlier vertex ``j`` by colour ``colours[i][j]``."""
    ctx = PersistentColouringContext.fresh()
    requests = []
    for row in colours:
        n = len(requests)
        choices = {(j,): c for j, c in enumerate(row[:n]) if c}
        requests.append(ExtensionRequest.of(range(n), choices))
    ctx = ctx.grown(GrowPrefix(tuple(requests)))
    _assert_slot_choices_match_scan(ctx.prefix)
    for a, b in itertools.permutations(range(ctx.size), 2):
        assert ctx.colour_between(a, b) == naive_slot_choice(ctx.prefix, (min(a, b),), max(a, b))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SEARCH_LANGUAGES), st.integers(0, 2 ** 32 - 1), st.integers(0, 8),
       st.sampled_from([0.15, 0.5, 0.9]))
def test_hypergraph_index_matches_the_general_path(lang, seed, size, density):
    """A hypergraph's index, one shared pattern per symbol, against the
    index of the same tuples read as a general structure."""
    h = random_hypergraph(lang, size, random.Random(seed), density)
    g = EnumeratedStructure(h.language, h.size, h.relations)
    assert h._index.patterns == g._index.patterns
    assert h._index.by_size == g._index.by_size
    assert h._index.name_order == g._index.name_order
    assert len({id(p) for p in h._index.patterns.values()}) == len(h.relations)


# --- hypergraph invariants ----------------------------------------------------------


def test_hypergraph_rejects_double_membership():
    lang = make_language(("a", 2), ("b", 2))
    with pytest.raises(ValueError):
        make_structure(lang, 2, {"a": [(0, 1)], "b": [(0, 1)]}, hypergraph=True)


def test_hypergraph_rejects_repeats():
    with pytest.raises(ValueError):
        make_structure(graph_language(), 2, {"e": [(1, 1)]}, hypergraph=True)


def test_induced_preserves_hypergraph_flag():
    h = random_hypergraph(graph_language(), 6, __import__("random").Random(3))
    part = h.induced([1, 3, 4])
    assert part.hypergraph and part.size == 3


# --- generic prefixes ----------------------------------------------------------------


def test_one_round_from_empty_gives_a_vertex():
    p = generic_extend(empty_prefix(graph_language()), 1)
    assert p.size >= 1


def test_zero_rounds_identity():
    p = generic_extend(empty_prefix(graph_language()), 3)
    assert generic_extend(p, 0) == p


def test_edge_and_nonedge_eventually_realized_over_each_vertex():
    p = empty_prefix(graph_language())
    for _ in range(16):
        p = generic_extend(p, 1)
    realized = p.realized()
    for v in (0, 1):
        assert ((v,), ()) in realized                       # unrelated extension
        assert ((v,), (((v,), 1),)) in realized             # edge extension
    # and the log is what realizes them: re-running adds no duplicates
    again = generic_extend(p, 4)
    entries = [(b, c) for b, c, _ in again.log]
    assert len(entries) == len(set(entries))


def test_extension_never_rewires_existing_vertices():
    p = empty_prefix(graph_language())
    snapshots = []
    for _ in range(12):
        p = generic_extend(p, 1)
        snapshots.append(p.structure)
    for small, big in zip(snapshots, snapshots[1:]):
        assert big.induced(range(small.size)).relations == small.relations


def test_targeted_realize_and_find_vertex():
    p = empty_prefix(graph_language())
    p = p.realize(ExtensionRequest.of((), {}))
    p = p.realize(ExtensionRequest.of((), {}))
    req = ExtensionRequest.of((0,), {(0,): 1})
    assert p.find_vertex(req) is None
    p = p.realize(req)
    assert p.find_vertex(req) == 2
    assert p.structure.related("e", (0, 2))


def test_find_vertex_compares_the_unary_slot():
    p = empty_prefix(make_language(("u", 1), ("w", 1), ("e", 2)))
    p = p.realize(ExtensionRequest.of((), {(): 1}))
    p = p.realize(ExtensionRequest.of((), {(): 2}))
    assert p.find_vertex(ExtensionRequest.of((), {(): 2})) == 1
    assert p.find_vertex(ExtensionRequest.of((), {(): 1})) == 0
    assert p.find_vertex(ExtensionRequest.of((), {})) is None
    p = p.realize(ExtensionRequest.of((0,), {(): 1, (0,): 1}))
    assert p.find_vertex(ExtensionRequest.of((0,), {(): 2, (0,): 1})) is None
    assert p.find_vertex(ExtensionRequest.of((0,), {(): 1, (0,): 1})) == 2
    assert p.find_vertex(ExtensionRequest.of((0,), {(): 2})) == 1


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GROWN_LANGUAGES), st.integers(0, 2 ** 32 - 1), st.integers(1, 7))
def test_find_vertex_matches_scan_on_grown_prefixes(lang, seed, size):
    """Each vertex's own type over a random base below it, asked for again:
    the answer is the first vertex above the base that carries the same
    symbol (or none) on every slot, the unary slot included."""
    rng = random.Random(seed)
    prefix = _randomly_grown(lang, rng, size)
    for v in range(prefix.size):
        base = tuple(u for u in range(v) if rng.random() < 0.6)
        slots = [()] + [c for k in (1, 2) for c in itertools.combinations(base, k)]
        want = {s: naive_slot_choice(prefix, s, v) for s in slots}
        request = ExtensionRequest.of(base, {s: c for s, c in want.items() if c})
        first = next(u for u in range(max(base, default=-1) + 1, prefix.size)
                     if all(naive_slot_choice(prefix, s, u) == c for s, c in want.items()))
        assert prefix.find_vertex(request) == first <= v


def test_colour_of_is_the_index_for_countable_arities_and_the_rank_otherwise():
    lang = make_language(("b", 2), ("a", 2), ("u", 1), ("t", 3), countable_arities={4})
    assert [lang.colour_of(n) for n in ("a", "b", "u", "t")] == [1, 2, 1, 1]
    lang = lang.with_symbols(("r4c7", 4), ("r4c2", 4))
    assert (lang.colour_of("r4c7"), lang.colour_of("r4c2")) == (7, 2)
    assert [lang.arity_of(n) for n in ("a", "u", "t", "r4c7")] == [2, 1, 3, 4]
    for lookup in (lang.colour_of, lang.arity_of):
        with pytest.raises(KeyError):
            lookup("missing")
    with pytest.raises(ValueError):
        lang.with_symbols(("q", 4)).colour_of("q")


def test_forbidden_family_blocks_realization():
    bad = make_structure(graph_language(), 2, {"e": [(0, 1)]}, hypergraph=True)
    p = empty_prefix(graph_language(), (bad,))
    p = p.realize(ExtensionRequest.of((), {}))
    with pytest.raises(ValueError):
        p.realize(ExtensionRequest.of((0,), {(0,): 1}))
    for _ in range(6):
        p = generic_extend(p, 1)
    assert p.structure.rel("e") == frozenset()


def test_forbidden_sets_keep_the_given_order():
    """Each given set whose induced type is a member, in the order given;
    sets of no member's size and sets the member does not match drop out."""
    lang = make_language(("e", 2), ("t", 3))
    m = make_structure(lang, 4, {"e": [(0, 1), (2, 3), (1, 3)], "t": [(1, 2, 3)]},
                       hypergraph=True)
    edge = make_structure(lang, 2, {"e": [(0, 1)]}, hypergraph=True)
    sets = [(2, 3), (0, 2), (1, 2, 3), (0, 1), (3,), (1, 3)]
    assert forbidden_sets(m, sets, (edge,)) == [(2, 3), (0, 1), (1, 3)]
    assert forbidden_sets(m, sets, ()) == []
    full = make_structure(lang, 3, {"e": [(0, 2), (1, 2)], "t": [(0, 1, 2)]}, hypergraph=True)
    assert forbidden_sets(m, sets, (full, edge)) == [(2, 3), (1, 2, 3), (0, 1), (1, 3)]


def test_forbidden_family_must_be_covered():
    path = make_structure(graph_language(), 3, {"e": [(0, 1), (1, 2)]}, hypergraph=True)
    with pytest.raises(ValueError):
        empty_prefix(graph_language(), (path,))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_freeness_matches_scanned_types(seed):
    """The forbidden sets among the supports at a new vertex against scanning
    every vertex set at it: a one-point extension is free exactly when
    ``forbidden_sets`` finds none."""
    rng = random.Random(seed)
    lang = make_language(("u", 1), ("e", 2), ("t", 3))
    family = tuple(random_covered_structure(lang, rng.choice((1, 2, 3)), rng, True)
                   for _ in range(rng.randrange(1, 4)))
    candidate = random_hypergraph(lang, rng.randrange(1, 9), rng, rng.choice((0.2, 0.5)))
    new = candidate.size - 1
    want = not any(new in sub and brute_induced_relations(candidate, sub) == f.relations
                   for f in family
                   for sub in itertools.combinations(range(candidate.size), f.size))
    supports = sorted({t for _, t in candidate.relation_items() if new in t})
    assert (not forbidden_sets(candidate, supports, family)) == want


def test_seeded_extension_mode_is_reproducible():
    p = empty_prefix(graph_language())
    a = generic_extend(p, 8, seed=42)
    b = generic_extend(p, 8, seed=42)
    c = generic_extend(p, 8, seed=43)
    assert a == b
    assert a.structure.hypergraph
    assert {entry for entry in a.log} != {entry for entry in c.log} or a == c


# --- growth by appending against the whole rebuild ---------------------------------


def _forbidden_family(lang, rng):
    """Up to two covered hypergraphs of two or three vertices, over the
    language with two binary and one ternary countable symbol added."""
    lang = lang.with_symbols(*((countable_symbol_name(arity, index), arity)
                               for arity, index in ((2, 1), (2, 3), (3, 1))
                               if arity in lang.countable_arities))
    sizes = [k for k in (2, 3) if lang.arity_count(k)]
    return tuple(random_covered_structure(lang, rng.choice(sizes), rng, True)
                 for _ in range(rng.randint(0, 2) if sizes else 0))


def _random_request(prefix, rng):
    """A request over a random base; its slots may leave the base, and a
    finite arity may be asked for one symbol more than it has."""
    lang = prefix.language
    base = tuple(v for v in range(prefix.size) if rng.random() < 0.6)
    pool = base if rng.random() < 0.8 else tuple(range(prefix.size))
    choices = {}
    for slot in [()] + [c for k in (1, 2) for c in itertools.combinations(pool, k)]:
        arity = len(slot) + 1
        if arity in lang.countable_arities:
            choices[slot] = rng.choice((0, 1, 3, 4, 7))
        elif lang.arity_count(arity):
            choices[slot] = rng.randint(0, lang.arity_count(arity) + (rng.random() < 0.05))
    return ExtensionRequest.of(base, {k: c for k, c in choices.items() if c})


def _assert_same_prefix(got, want):
    assert got == want
    s, t = got.structure, want.structure
    assert s.relations == t.relations
    assert s.language.symbols == t.language.symbols
    assert s.language._place == t.language._place
    assert s._index.patterns == t._index.patterns
    # equal patterns are one tuple, as in a rebuilt index
    assert (len({id(p) for p in s._index.patterns.values()})
            == len(set(s._index.patterns.values())))
    assert ({k: sorted(v) for k, v in s._index.by_size.items()}
            == {k: sorted(v) for k, v in t._index.by_size.items()})
    assert s._index.name_order == t._index.name_order


REBUILT_LANGUAGES = GROWN_LANGUAGES + (make_language(("e", 2), countable_arities={3}),
                                      # names of one natural order: "e1" == "e01"
                                      make_language(("e1", 2), ("e01", 2), ("t", 3)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(REBUILT_LANGUAGES), st.integers(0, 2 ** 32 - 1), st.integers(0, 9))
def test_realize_matches_the_whole_rebuild(lang, seed, steps):
    """At every step of a random growth, in finite and countable languages,
    with and without a forbidden family: the same prefix, index and
    language, or the same ``ValueError`` from both."""
    rng = random.Random(seed)
    prefix = empty_prefix(lang, _forbidden_family(lang, rng))
    for _ in range(steps):
        request = _random_request(prefix, rng)
        try:
            want = naive_realize(prefix, request)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                prefix.realize(request)
            assert str(got.value) == str(exc)
            continue
        got = prefix.realize(request)
        _assert_same_prefix(got, want)
        prefix = got


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(REBUILT_LANGUAGES), st.integers(0, 2 ** 32 - 1), st.integers(0, 6),
       st.integers(0, 6))
def test_batch_realize_matches_the_fold(lang, seed, steps, batch):
    """One ``realize`` call over a batch of requests against folding the
    whole rebuild over them, from a randomly grown prefix, in finite and
    countable languages, with and without a forbidden family.  A request's
    base may name vertices of the batch, or now and then the vertex it
    makes.  The same prefix, log, index and language, or both raise: with
    the fold's message when the fold fails at the last request only."""
    rng = random.Random(seed)
    prefix = empty_prefix(lang, _forbidden_family(lang, rng))
    for _ in range(steps):
        try:
            prefix = naive_realize(prefix, _random_request(prefix, rng))
        except ValueError:
            pass
    requests, want, failed = [], prefix, None
    for _ in range(batch):
        request = _random_request(want, rng)
        if rng.random() < 0.05:
            request = ExtensionRequest.of(request.base + (want.size,), dict(request.choices))
        requests.append(request)
        if failed is None:
            try:
                want = naive_realize(want, request)
            except ValueError as exc:
                failed = (str(exc), len(requests))
    if failed is None:
        _assert_same_prefix(prefix.realize(*requests), want)
        return
    with pytest.raises(ValueError) as got:
        prefix.realize(*requests)
    if failed[1] == len(requests):
        assert str(got.value) == failed[0]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("a", "b", "a10", "a9", "a01", "r2c5", "r2c10",
                                           "r2c05", "u3", "u12", "r3c2", "e")),
                          st.integers(1, 3)), max_size=8),
       st.lists(st.lists(st.tuples(st.sampled_from(("z", "a2", "a09", "r2c7", "r2c005", "u0",
                                                    "r3c1", "b")),
                                   st.integers(1, 3)), max_size=4), max_size=3),
       st.sets(st.integers(1, 3)))
def test_with_symbol_matches_the_resort(symbols, batches, countable):
    """Placing several symbols per call by bisection gives the language, the
    order and the colours of appending them one at a time and re-sorting
    everything each time."""
    names = {}
    for name, arity in symbols:
        names.setdefault(name, arity)
    lang = make_language(*names.items(), countable_arities=countable)
    for batch in batches:
        got, want = lang.with_symbols(*batch), lang
        for name, arity in batch:
            want = naive_with_symbol(want, name, arity)
        assert got == want and got.symbols == want.symbols
        assert got._place == want._place
        lang = got


@pytest.mark.parametrize("added,message", [
    ({"e": [(0, 1, 2)]}, "tuple (0, 1, 2) has wrong arity for e"),
    ({"e": [(1, 3)]}, "tuple (1, 3) out of range"),
    ({"t": [(2, 2, 2)]}, "hypergraph tuple (2, 2, 2) not injective"),
    ({"e": [(2, 0)]}, "hypergraph tuple (2, 0) not sorted"),
    ({"e": [(0, 1)]}, "tuple (0, 1) does not contain the new vertex 2"),
    ({"e": [(0, 2)], "f": [(0, 2)]}, "vertex set (0, 2) in two relations of arity 2"),
])
def test_derived_validates_the_new_tuples(added, message):
    lang = make_language(("e", 2), ("f", 2), ("t", 3))
    parent = make_structure(lang, 2, {"e": [(0, 1)]}, hypergraph=True)
    with pytest.raises(ValueError) as exc:
        _derived(parent, lang, [added])
    assert str(exc.value) == message
    grown = _derived(parent, lang, [{"f": [(0, 2)], "t": [(0, 1, 2)]}])
    assert grown == make_structure(lang, 3, {"e": [(0, 1)], "f": [(0, 2)], "t": [(0, 1, 2)]},
                                   hypergraph=True)


@pytest.mark.parametrize("grown,message", [
    ([{"e": [(0, 3)]}, {"f": [(0, 3)]}], "tuple (0, 3) out of range"),
    ([{"e": [(0, 2)]}, {"e": [(2, 4)]}], "tuple (2, 4) out of range"),
    ([{"e": [(0, 2)]}, {"e": [(1, 2)]}], "tuple (1, 2) does not contain the new vertex 3"),
    ([{"e": [(0, 2)]}, {"t": [(1, 2, 3)], "f": [(2, 3)], "e": [(2, 3)]}],
     "vertex set (2, 3) in two relations of arity 2"),
])
def test_derived_checks_each_vertex_against_its_own_size(grown, message):
    """Each vertex of a growth is validated as if it were the last one:
    against the vertex set that ends at it, with its own new vertex."""
    lang = make_language(("e", 2), ("f", 2), ("t", 3))
    parent = make_structure(lang, 2, {"e": [(0, 1)]}, hypergraph=True)
    with pytest.raises(ValueError) as exc:
        _derived(parent, lang, grown)
    assert str(exc.value) == message
    grown = _derived(parent, lang, [{"f": [(0, 2)]}, {"e": [(2, 3)], "t": [(0, 1, 3)]}])
    assert grown == make_structure(lang, 4, {"e": [(0, 1), (2, 3)], "f": [(0, 2)],
                                             "t": [(0, 1, 3)]}, hypergraph=True)


@pytest.mark.parametrize("added,message", [
    ({"e": [(0, 1, 2)]}, "tuple (0, 1, 2) has wrong arity for e"),
    ({"e": [(1, 3)]}, "tuple (1, 3) out of range"),
    ({"t": [(2, 2, 2)]}, "hypergraph tuple (2, 2, 2) not injective"),
    ({"e": [(2, 0)]}, "hypergraph tuple (2, 0) not sorted"),
    ({"e": [(0, 2)], "f": [(0, 2)]}, "vertex set (0, 2) in two relations of arity 2"),
])
def test_direct_construction_validates_like_derived(added, message):
    """The rows of ``test_derived_validates_the_new_tuples`` that every
    structure shares, through the dataclass on the grown vertex set."""
    lang = make_language(("e", 2), ("f", 2), ("t", 3))
    relations = tuple((name, tuple(tuples)) for name, tuples in added.items())
    with pytest.raises(ValueError) as exc:
        EnumeratedStructure(lang, 3, relations, hypergraph=True)
    assert str(exc.value) == message
