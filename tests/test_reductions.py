"""Unary products, the encoding bijection, and bad-tuple stripping."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brt.errors import InfeasibleError
from brt.io import dumps_canonical, structure_to_json
from brt.reductions import (
    decode_structure,
    encode_structure,
    encoded_language,
    is_bad,
    is_transversal,
    lift_embedding,
    strip_bad,
    symbol_catalogue,
    tuple_pattern,
    unary_expand,
)
from brt.structures import (
    EnumeratedStructure,
    enumerate_embeddings,
    graph_language,
    make_language,
    make_structure,
)

from conftest import (
    brute_induced_relations,
    brute_strip_bad,
    lookup_structures,
    naive_encode_structure,
    naive_tuple_pattern,
    random_covered_structure,
    random_general_structure,
    random_hypergraph,
)

BIN = make_language(("E", 2))
BINTER = make_language(("E", 2), ("T", 3))


# --- unary product ----------------------------------------------------------------


def base3():
    return make_structure(graph_language(), 3, {"e": [(0, 1)]}, hypergraph=True)


def test_product_vertex_order():
    up = unary_expand(base3(), 2)
    assert up.pairs == ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1))


def test_product_unaries_and_relations():
    up = unary_expand(base3(), 2)
    s = up.structure
    assert s.rel("u0") == {(0,), (1,), (3,)}
    assert s.rel("u1") == {(2,), (4,)}
    # (0,0)-(1,0) and (0,0)-(1,1) project to the base edge (0,1)
    assert s.rel("e") == {(0, 1), (0, 2)}


def test_countable_unary_mode():
    up = unary_expand(base3(), None)
    assert up.pairs == ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))
    assert up.structure.rel("u2") == {(5,)}


def test_transversal_detection():
    up = unary_expand(base3(), 2)
    assert is_transversal(up, (0, 1, 3))
    assert not is_transversal(up, (1, 2))


def test_identity_lift_is_identity():
    up = unary_expand(base3(), 2)
    assert lift_embedding(up, (0, 1, 2)) == tuple(range(len(up.pairs)))


def test_lift_is_an_embedding_and_composes():
    base = make_structure(graph_language(), 4, {"e": [(0, 1), (2, 3)]},
                          hypergraph=True)
    up = unary_expand(base, 2)
    endos = [e for e in enumerate_embeddings(base, base)]
    product_embeds = set(map(tuple, enumerate_embeddings(up.structure, up.structure)))
    for psi in endos:
        lifted = lift_embedding(up, psi)
        assert lifted in product_embeds
    for p1, p2 in itertools.product(endos, repeat=2):
        composed = tuple(p2[v] for v in p1)
        l1, l2 = lift_embedding(up, p1), lift_embedding(up, p2)
        assert lift_embedding(up, composed) == tuple(l2[v] for v in l1)


def test_transversal_projection_is_base_embedding():
    base = make_structure(graph_language(), 4, {"e": [(0, 1), (2, 3)]},
                          hypergraph=True)
    up = unary_expand(base, 2)
    base_embeds = set(enumerate_embeddings(base, base))
    for combo in itertools.combinations(range(len(up.pairs)), base.size):
        sub = up.structure.induced(combo)
        if sub.rel("e") and is_transversal(up, combo):
            proj = tuple(up.projection(x) for x in combo)
            if all(a < b for a, b in zip(proj, proj[1:])):
                edges_match = all(
                    base.related("e", (proj[i], proj[j])) == sub.related("e", (i, j))
                    for i, j in itertools.combinations(range(base.size), 2))
                if edges_match:
                    assert proj in base_embeds


def test_product_cap():
    with pytest.raises(InfeasibleError):
        unary_expand(base3(), None, size_cap=3)


def test_product_rejects_unary_base():
    lang = graph_language().with_symbols(("u0", 1))
    s = make_structure(lang, 2, {}, hypergraph=True)
    with pytest.raises(ValueError):
        unary_expand(s, 2)


# --- encoding bijection ------------------------------------------------------------


def test_directed_edge_encoding():
    a = make_structure(BIN, 2, {"E": [(0, 1)]})
    enc = encode_structure(a)
    assert enc.relations == (("enc(E:01)", ((0, 1),)),)
    assert decode_structure(enc, BIN) == a


def test_symmetric_edge_pattern():
    a = make_structure(BIN, 2, {"E": [(0, 1), (1, 0)]})
    assert tuple_pattern(a, (0, 1)) == frozenset({("E", (0, 1)), ("E", (1, 0))})
    enc = encode_structure(a)
    (name, _), = enc.relations
    assert name == "enc(E:01|E:10)"


def test_relationless_encodes_to_relationless():
    a = make_structure(BINTER, 4, {})
    assert encode_structure(a).relations == ()


def test_encode_rejects_non_injective():
    a = make_structure(BIN, 2, {"E": [(1, 1)]})
    with pytest.raises(ValueError):
        encode_structure(a)


def test_encoded_language_counts():
    lang = encoded_language(BIN)
    # two (symbol, permutation) pairs -> three nonempty subsets
    assert len(lang.symbols_of_arity(2)) == 3
    assert len(symbol_catalogue(BINTER, 3)) == 6
    assert len(encoded_language(BINTER).symbols_of_arity(3)) == 2 ** 6 - 1


def test_unaries_pass_through_encoding():
    lang = make_language(("E", 2), ("u0", 1))
    a = make_structure(lang, 2, {"E": [(1, 0)], "u0": [(0,)]})
    enc = encode_structure(a)
    assert enc.rel("u0") == {(0,)}
    assert decode_structure(enc, lang) == a


@pytest.mark.parametrize("lang", [BIN, BINTER])
def test_roundtrip_on_random_structures(lang):
    rng = random.Random(7)
    target = encoded_language(lang)
    for _ in range(50):
        size = rng.randint(0, 6)
        a = random_general_structure(lang, size, rng, density=0.25)
        enc = encode_structure(a, target)
        assert decode_structure(enc, lang) == a
        assert encode_structure(decode_structure(enc, lang), target) == enc


def _all_binary_structures(max_size):
    out = []
    for size in range(max_size + 1):
        pool = list(itertools.permutations(range(size), 2))
        for bits in itertools.product([0, 1], repeat=len(pool)):
            rels = {"E": [t for t, b in zip(pool, bits) if b]}
            out.append(make_structure(BIN, size, rels))
    return out


def test_embedding_transfer_exhaustive_small():
    target = encoded_language(BIN)
    structures = _all_binary_structures(3)
    encoded = {s.canonical_key(): encode_structure(s, target) for s in structures}
    for a, b in itertools.product(structures, repeat=2):
        if a.size > b.size:
            continue
        direct = enumerate_embeddings(a, b)
        via = enumerate_embeddings(encoded[a.canonical_key()],
                                   encoded[b.canonical_key()])
        assert direct == via


def test_embedding_transfer_sampled_size_four():
    rng = random.Random(23)
    target = encoded_language(BINTER)
    for _ in range(60):
        a = random_general_structure(BINTER, rng.randint(0, 4), rng, 0.3)
        b = random_general_structure(BINTER, rng.randint(a.size, 4), rng, 0.3)
        assert enumerate_embeddings(a, b) == enumerate_embeddings(
            encode_structure(a, target), encode_structure(b, target))


@settings(max_examples=200, deadline=None)
@given(lookup_structures())
def test_tuple_pattern_matches_scan(a):
    # tuples that repeat a vertex have a support shorter than their arity
    for k in range(1, a.size + 1):
        for xs in itertools.combinations(range(a.size), k):
            assert tuple_pattern(a, xs) == naive_tuple_pattern(a, xs)


@settings(max_examples=200, deadline=None)
@given(lookup_structures())
def test_encode_structure_matches_scan(a):
    try:
        want = naive_encode_structure(a)
    except ValueError:
        with pytest.raises(ValueError):
            encode_structure(a)
        return
    got = encode_structure(a)
    assert got == want
    assert dumps_canonical(structure_to_json(got)) == dumps_canonical(structure_to_json(want))


# --- stripping -----------------------------------------------------------------------


TER = make_language(("T", 3))


def test_strip_double_ternary_family():
    bad = make_structure(TER, 3, {"T": [(0, 1, 2), (2, 1, 0)]})
    m = make_structure(TER, 3, {"T": [(0, 1, 2), (2, 1, 0)]})
    stripped = strip_bad(m, (bad,))
    assert stripped.rel("T") == frozenset()


def test_strip_keeps_good_tuples():
    bad = make_structure(TER, 3, {"T": [(0, 1, 2), (2, 1, 0)]})
    m = make_structure(TER, 4, {"T": [(0, 1, 2), (2, 1, 0), (1, 2, 3)]})
    stripped = strip_bad(m, (bad,))
    assert stripped.rel("T") == {(1, 2, 3)}


def test_strip_empty_family_is_identity():
    m = make_structure(TER, 4, {"T": [(0, 1, 2)]})
    assert strip_bad(m, ()) == m


def test_strip_already_free_is_identity():
    bad = make_structure(TER, 3, {"T": [(0, 1, 2), (2, 1, 0)]})
    m = make_structure(TER, 4, {"T": [(0, 1, 2)]})
    assert strip_bad(m, (bad,)) == m


def test_strip_requires_covered_members():
    path = make_structure(BIN, 3, {"E": [(0, 1), (1, 2)]})
    m = make_structure(BIN, 3, {"E": [(0, 1)]})
    with pytest.raises(ValueError):
        strip_bad(m, (path,))


def test_strip_rejects_single_vertex_members():
    lang = make_language(("E", 2), ("u0", 1))
    point = make_structure(lang, 1, {"u0": [(0,)]})
    m = make_structure(lang, 2, {})
    with pytest.raises(ValueError):
        strip_bad(m, (point,))


def test_is_bad_checks_induced_type():
    bad = make_structure(TER, 3, {"T": [(0, 1, 2), (2, 1, 0)]})
    m = make_structure(TER, 5, {"T": [(1, 2, 4), (4, 2, 1), (0, 2, 3)]})
    assert is_bad(m, (1, 2, 4), (bad,))
    assert not is_bad(m, (0, 2, 3), (bad,))


def test_copy_isomorphism_types_reports_pre_strip_views():
    from brt.reductions import copy_isomorphism_types
    bad = make_structure(BIN, 2, {"E": [(0, 1), (1, 0)]})
    # two disjoint edges twice over; the second copy hides a stripped
    # doubled pair between its components
    m = make_structure(BIN, 8, {"E": [(0, 1), (2, 3),
                                      (4, 5), (6, 7), (4, 6), (6, 4)]})
    a = make_structure(BIN, 4, {"E": [(0, 1), (2, 3)]})
    types = copy_isomorphism_types(m, (bad,), a)
    assert len(types) == 2
    keys = [t.canonical_key() for t in types]
    assert keys == sorted(keys)
    assert a.relations in [t.relations for t in types]
    richer = next(t for t in types if t.relations != a.relations)
    assert richer.related("E", (0, 2)) and richer.related("E", (2, 0))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_strip_output_is_free_exhaustively(seed):
    rng = random.Random(seed)
    families = [
        (make_structure(TER, 3, {"T": [(0, 1, 2), (2, 1, 0)]}),),
        (make_structure(BIN, 2, {"E": [(0, 1)]}),),
        (make_structure(BIN, 2, {"E": [(0, 1), (1, 0)]}),
         make_structure(TER, 3, {"T": [(1, 0, 2)]})),
    ]
    langs = [TER, BIN, make_language(("E", 2), ("T", 3))]
    for family, lang in zip(families, langs):
        m = random_general_structure(lang, 10, rng, density=0.3)
        g = strip_bad(m, family)
        for f in family:
            for sub in itertools.combinations(range(g.size), f.size):
                assert g.induced(sub).relations != f.relations
        # unaries and language untouched
        assert g.language == m.language


STRIP_LANGUAGE = make_language(("u", 1), ("E", 2), ("F", 2), ("T", 3))


@settings(max_examples=225, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(("hypergraph", "injective", "repeated")),
       st.integers(1, 3))
def test_strip_matches_scanned_strip(seed, kind, members):
    """``is_bad`` and ``strip_bad`` against stripping by scanned induced types,
    on hypergraphs and on general structures whose tuples may repeat vertices
    (a support smaller than the tuple's arity).  Half the families also hold
    the type of a support of ``m``, so that some tuples are certainly bad."""
    rng = random.Random(seed)
    hyper, injective = kind == "hypergraph", kind != "repeated"
    family = tuple(random_covered_structure(STRIP_LANGUAGE, rng.choice((2, 3)), rng, hyper,
                                            injective)
                   for _ in range(members))
    n, density = rng.randrange(2, 9), rng.choice((0.3, 0.6))
    if hyper:
        m = random_hypergraph(STRIP_LANGUAGE, n, rng, density)
    else:
        m = random_general_structure(STRIP_LANGUAGE, n, rng, density, injective)
    supports = sorted({tuple(sorted(set(t))) for _, t in m.relation_items()
                       if 2 <= len(set(t)) <= 3})
    if supports and rng.random() < 0.5:
        s = rng.choice(supports)
        family += (EnumeratedStructure(STRIP_LANGUAGE, len(s), brute_induced_relations(m, s),
                                       hyper),)
    assert strip_bad(m, family) == brute_strip_bad(m, family)
    for size in (2, 3):
        for sub in itertools.combinations(range(m.size), size):
            want = any(f.size == size and brute_induced_relations(m, sub) == f.relations
                       for f in family)
            assert is_bad(m, sub, family) == want
