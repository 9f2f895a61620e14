"""Shared fixtures: test signatures, random structures, brute-force oracles."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import random
import re
from math import comb

import pytest

from brt.structures import (
    GenericPrefix,
    countable_symbol_name,
    empty_prefix,
    enumerate_embeddings,
    generic_extend,
    graph_language,
    make_language,
    make_structure,
    uniform_language,
)
from hypothesis import strategies as st

from brt import envelopes
from brt.errors import LanguageMismatchError
from brt.reductions import encoded_language, encoded_symbol_name
from brt.envelopes import (
    BranchMarker,
    Verdict,
    envelope_height_bound,
    marker_colours,
    trace_invariants,
)
from brt.io import valuation_to_json
from brt.trees import (
    _slots,
    _vf_label,
    coordinate_nodes,
    derived_inner_tree,
    immediate_successors,
    induced_tree_structure,
    level_nodes,
    tree_language,
    zero_extension,
)
from brt.valuation import (
    Signature,
    comparable,
    make_valuation,
    meet,
    tuple_sort_key,
    zero_valuation,
)
from brt.adversarial import TreeLikeVerdict

GRAPH_SIG = Signature((3,))
TERNARY_SIG = Signature((2, 3))
FIG_SIG = Signature((1, 2))
TEST_SIGS = (GRAPH_SIG, TERNARY_SIG, FIG_SIG)
# Singletons, pairs and triples all carry values: merging an extension's
# entries must interleave lengths, which no signature of TEST_SIGS needs.
DEEP_SIG = Signature((2, 3, 2))


@st.composite
def sparse_with_upper(draw):
    """A random sparse node and a random sparse node one shift up at its level."""
    sig = draw(st.sampled_from(TEST_SIGS + (DEEP_SIG,)))
    shift = draw(st.integers(0, 1))
    level = draw(st.integers(0, 3 if sig == DEEP_SIG else 6))

    def sparse(shift):
        vals = {}
        for _ in range(draw(st.integers(0, 6)) if level else 0):
            t = tuple(sorted(draw(st.sets(st.integers(0, level - 1), min_size=1,
                                          max_size=min(level, 3))), reverse=True))
            vals[t] = draw(st.integers(0, sig.bound(shift, len(t)) - 1))
        return make_valuation(sig, shift, level, vals)

    return sparse(shift), sparse(shift + 1)


def brute_level_nodes(sig, shift, n):
    """Independent enumeration of level-``n`` nodes: assign every admissible
    value to every decreasing tuple, one product over the raw tuple list."""
    tuples = []
    for length in range(1, n + 1):
        tuples.extend(tuple(sorted(c, reverse=True))
                      for c in itertools.combinations(range(n), length))
    out = []
    for values in itertools.product(*(range(sig[shift + len(t)]) for t in tuples)):
        out.append(make_valuation(sig, shift, n,
                                  {t: v for t, v in zip(tuples, values) if v}))
    return sorted(set(out), key=lambda f: f.values)


def brute_node_less(f, g):
    """The node order by a dict diff: lower level first; at equal levels, the
    lower value at the (length, lex)-least tuple where the two nodes differ."""
    if (f.sig, f.shift) != (g.sig, g.shift):
        raise TypeError("node order only compares nodes of the same tree")
    if f.level != g.level:
        return f.level < g.level
    fm, gm = f.value_map(), g.value_map()
    diffs = [t for t in set(fm) | set(gm) if fm.get(t, 0) != gm.get(t, 0)]
    if not diffs:
        return False
    t = min(diffs, key=tuple_sort_key)
    return fm.get(t, 0) < gm.get(t, 0)


def brute_extends(f, g):
    """``f`` extends ``g`` when restricting ``f`` to ``g``'s level gives ``g``."""
    return f.level >= g.level and f.restrict(g.level) == g


def brute_meet_level(f, g):
    """Level of the meet by a dict diff: the lower level, cut at the leading
    coordinate of every tuple where the two nodes differ."""
    if (f.sig, f.shift) != (g.sig, g.shift):
        raise ValueError("meet requires nodes of the same tree")
    cut = min(f.level, g.level)
    fm, gm = f.value_map(), g.value_map()
    for t in set(fm) | set(gm):
        if fm.get(t, 0) != gm.get(t, 0):
            cut = min(cut, t[0])
    return cut


def brute_restrict(f, level):
    """Restriction through the validating constructor."""
    return make_valuation(f.sig, f.shift, level, {t: v for t, v in f.values if t[0] < level})


def brute_slice(f, xbar):
    """The slice by its definition, through the validating constructor: the
    value of ``xbar + t`` at ``t``, one shift up per coordinate of ``xbar``."""
    m = len(xbar)
    return make_valuation(f.sig, f.shift + m, xbar[-1],
                          {t[m:]: v for t, v in f.values if len(t) > m and t[:m] == xbar})


def brute_extensions(f, g):
    """One-level extensions by a dict merge through the validating constructor."""
    n = f.level
    base = dict(f.values)
    base.update({(n,) + t: v for t, v in g.values})
    return [make_valuation(f.sig, f.shift, n + 1, {**base, (n,): c})
            for c in range(f.sig[f.shift + 1])]


def brute_valuation_tree(witness):
    """The valuation tree's tiers by the pairwise construction: every node of
    a tier extended by every node of the inner tree's tier, one pair at a
    time through ``brute_extensions``, then the witness's selection above
    each extension, the inner trees built by recursion; each tier in
    (level, entries) order."""

    def levels(offset, k):
        if k == 0:
            return []
        inner = levels(offset + 1, k - 1)
        out = [{witness.root(offset): None}]
        for m in range(k - 1):
            nxt = {}
            for f in out[m]:
                for g in inner[m]:
                    for h in brute_extensions(f, g):
                        nxt[witness.select(offset, f, h)] = None
            out.append(nxt)
        return out

    return tuple(tuple(sorted(d, key=lambda f: (f.level, f.values)))
                 for d in levels(0, witness.dimension))


def brute_val_contains(witness, node, coord=0, height=None):
    """Membership in the valuation tree of coordinates ``coord, …`` cut to
    ``height`` tiers, by recursion: one call per slice that must lie in an
    inner tree."""
    if height is None:
        height = witness.dimension - coord
    if height <= 0:
        return False
    levels = witness.levels[:height]
    if node.level not in levels:
        return False
    s = node.restrict(levels[0])
    if s != witness.root(coord):
        return False
    for j in range(levels.index(node.level)):
        nxt = node.restrict(levels[j + 1])
        if witness.coords[coord].select(s, node.restrict(levels[j] + 1), levels[j + 1]) != nxt:
            return False
        if not brute_val_contains(witness, nxt.slice_at((levels[j],)), coord + 1, height - 1):
            return False
        s = nxt
    return True


def brute_meet_closure(nodes):
    """The meet closure by all pairs, repeated until no new meet appears."""
    closed = set(nodes)
    while True:
        new = {meet(f, g) for f, g in itertools.combinations(closed, 2)} - closed
        if not new:
            return closed
        closed |= new


def brute_meet_closed(nodes):
    """Whether the meet of every two of the nodes lies among them."""
    members = set(nodes)
    return all(meet(f, g) in members for f, g in itertools.combinations(members, 2))


def brute_completed_select(coord, parent, direction, next_level):
    """Completed-coordinate selection by a scan of the node set in tier order:
    the first node at or above ``next_level`` extending the direction,
    restricted to ``next_level``; the all-zero extension when none does."""
    for u in coord.nodes:
        if u.level >= next_level and u.extends(direction):
            return u.restrict(next_level)
    return zero_extension(direction, next_level)


def brute_structural_embedding(tree, cap=50_000):
    """The structural embedding with each image found by scanning the whole
    tier for nodes extending the parent's image with the right singleton
    value and top slice."""
    sig, shift, k = tree.sig, tree.shift, tree.height
    if k == 0:
        return {}
    emb = {zero_valuation(sig, shift, 0): tree.root}
    if k == 1:
        return emb
    inner = brute_structural_embedding(derived_inner_tree(tree), cap)
    for m in range(k - 1):
        for u in level_nodes(sig, shift, m + 1, cap):
            parent_img = emb[u.restrict(m)]
            slice_img = inner[u.slice_at((m,))]
            x = u.value((m,))
            lvl = tree.levels[m]
            cands = [c for c in tree.nodes_by_level[m + 1]
                     if c.extends(parent_img) and c.value((lvl,)) == x
                     and c.slice_at((lvl,)) == slice_img]
            if len(cands) != 1:
                raise RuntimeError("structural embedding candidate not unique")
            emb[u] = cands[0]
    return emb


def brute_tree_to_dot(tree, name="valtree"):
    """DOT output with each node's children found by scanning the next tier
    for the nodes extending it."""
    lines = [f"digraph {name} {{", "  node [shape=box];"]
    ids = {}
    for j, tier in enumerate(tree.nodes_by_level):
        for i, f in enumerate(tier):
            ids[f] = f"n{j}_{i}"
            lines.append(f'  {ids[f]} [label="{_vf_label(f)}"];')
    for j in range(tree.height - 1):
        for f in tree.nodes_by_level[j]:
            for c in tree.nodes_by_level[j + 1]:
                if c.extends(f):
                    lines.append(f"  {ids[f]} -> {ids[c]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# The CLI's node-list outputs in their dict form, rendered through
# ``valuation_to_json``; ``dumps_canonical`` of each is the expected output.


def tree_report(nodes):
    return {"count": len(nodes), "nodes": [valuation_to_json(f) for f in nodes]}


def val_report(tree):
    return {"levels": list(tree.levels),
            "height": tree.height,
            "node_count": len(tree.nodes),
            "nodes": [[valuation_to_json(f) for f in tier] for tier in tree.nodes_by_level]}


def envelope_report(env, emb):
    return {
        "k": env.k,
        "subset": list(env.subset),
        "levels": list(env.levels),
        "height": env.height,
        "height_bound": envelope_height_bound(env.k),
        "contained": env.contained,
        "invariants": trace_invariants(env, emb),
        "trace": [{"stage": stage.index,
                   "levels": list(stage.levels()),
                   "slices": [valuation_to_json(f) for f in stage.slices],
                   "padded": [valuation_to_json(f) for f in stage.padded],
                   "meets": [valuation_to_json(f) for f in stage.meets],
                   "aligned": [valuation_to_json(f) for f in stage.aligned]}
                  for stage in env.stages],
        "tree_nodes": len(env.tree.nodes) if env.tree is not None else None,
    }


@pytest.fixture
def envelope_tree_builds(monkeypatch):
    """The arguments of each ``build_valuation_tree`` call that an envelope
    makes during the test, one tuple per call."""
    built = []
    real = envelopes.build_valuation_tree

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(envelopes, "build_valuation_tree", counting)
    return built


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_before(request):
    """Run the test with the cyclic collector enabled or disabled, and put
    back the state it found afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def random_general_structure(lang, size, rng, density=0.35, injective=True):
    """A random structure with (possibly asymmetric) relations, injective
    unless ``injective`` is false."""
    rels = {}
    for name, arity in lang.symbols:
        if injective:
            pool = itertools.permutations(range(size), arity)
        else:
            pool = itertools.product(range(size), repeat=arity)
        rels[name] = [t for t in pool if rng.random() < density]
    return make_structure(lang, size, rels)


def random_hypergraph(lang, size, rng, density=0.35):
    """A random hypergraph: each vertex set independently lands in at most
    one symbol of its arity."""
    rels = {}
    for arity in sorted({a for _, a in lang.symbols}):
        names = lang.symbols_of_arity(arity)
        for vs in itertools.combinations(range(size), arity):
            if rng.random() < density:
                rels.setdefault(rng.choice(names), []).append(vs)
    return make_structure(lang, size, rels, hypergraph=True)


def brute_induced_relations(s, vertices):
    """The induced type on a vertex set by a full scan of the relation
    tuples, built as a structure; the oracle for ``type_on``."""
    vs = sorted(vertices)
    rank = {v: i for i, v in enumerate(vs)}
    keep = set(vs)
    rels = {}
    for name, tuples in s.relations:
        kept = [tuple(rank[v] for v in t) for t in tuples if set(t) <= keep]
        if kept:
            rels[name] = kept
    return make_structure(s.language, len(vs), rels, hypergraph=s.hypergraph).relations


def brute_embeddings(a, b):
    """All monotone embeddings by the subset scan: every increasing vertex
    tuple of ``b`` whose induced type is ``a``'s."""
    return [combo for combo in itertools.combinations(range(b.size), a.size)
            if brute_induced_relations(b, combo) == a.relations]


def naive_enumerate_embeddings(a, b):
    """The embedding search that tests each candidate image on its own: when
    vertex ``i`` gets image ``w`` it compares the supports whose largest
    vertex is ``i`` with the supports whose largest vertex is ``w`` inside the
    image, and drops the branch at the first mismatch; the twin of the
    bit-mask search."""
    if a.language != b.language:
        raise LanguageMismatchError("embedding between different languages")
    n, m = a.size, b.size
    a_pat, b_pat = a._index.patterns, b._index.patterns
    sizes = sorted(set(a._index.by_size) | set(b._index.by_size))
    # supports of a with their patterns, and supports of b, by largest vertex
    a_top: list[list] = [[] for _ in range(n)]
    for s, pat in a_pat.items():
        a_top[s[-1]].append((s, pat))
    b_top: list[list] = [[] for _ in range(m)]
    for s in b_pat:
        b_top[s[-1]].append(s)
    # at step i: every set of earlier source vertices plus i, with a's
    # pattern on it (None when unrelated); built on first use
    lookups = [sum(comb(i, k - 1) for k in sizes) for i in range(n)]
    subsets: list[list | None] = [None] * n
    phi: list[int] = []
    image: set[int] = set()
    out: list[tuple[int, ...]] = []

    def consistent(i: int, w: int) -> bool:
        if lookups[i] <= len(a_top[i]) + len(b_top[w]):
            if subsets[i] is None:
                subsets[i] = [(rest + (i,), a_pat.get(rest + (i,)))
                              for k in sizes
                              for rest in itertools.combinations(range(i), k - 1)]
            checks = subsets[i]
        else:
            # a's supports at i map to distinct supports of b at w, so equal
            # counts rule out extra supports of b inside the image
            checks = a_top[i]
            inside = sum(all(v in image for v in s[:-1]) for s in b_top[w])
            if inside != len(checks):
                return False
        return all(b_pat.get(tuple([phi[v] for v in s])) == pat for s, pat in checks)

    def extend(i: int, lo: int) -> None:
        if i == n:
            out.append(tuple(phi))
            return
        for w in range(lo, m - n + i + 1):
            phi.append(w)
            image.add(w)
            if consistent(i, w):
                extend(i + 1, w + 1)
            image.discard(w)
            phi.pop()

    extend(0, 0)
    return out


def brute_strip_bad(m, family):
    """Forbidden-family stripping with one scanned induced type per subset."""
    def bad(sub):
        return any(f.size == len(sub) and brute_induced_relations(m, sub) == f.relations
                   for f in family)

    rels = {}
    for name, tuples in m.relations:
        support = [sorted(set(t)) for t in tuples]
        rels[name] = [t for t, sup in zip(tuples, support)
                      if m.language.arity_of(name) == 1
                      or not any(bad(sub) for size in range(2, len(sup) + 1)
                                 for sub in itertools.combinations(sup, size))]
    return make_structure(m.language, m.size, rels, hypergraph=m.hypergraph)


# --- relation lookups by scanning the relations: the oracles for the
# support-index lookups ``related``, ``slot_choice``, ``tuple_pattern``,
# ``encode_structure`` and ``is_covered``


def naive_related(s, name, t):
    """Membership in the named relation's tuple set; hypergraph tuples are
    sorted first."""
    if s.hypergraph:
        t = tuple(sorted(t))
    return t in s.rel(name)


def naive_slot_choice(prefix, slot, v):
    """The slot's symbol by trying every symbol of its arity: the name's
    index for a countable arity, else the 1-based rank; 0 if none."""
    arity = len(slot) + 1
    for j, name in enumerate(prefix.language.symbols_of_arity(arity), 1):
        if naive_related(prefix.structure, name, slot + (v,)):
            if arity in prefix.language.countable_arities:
                return int(re.split(r"(\d+)", name)[-2])
            return j
    return 0


def naive_tuple_pattern(a, xs):
    """The (symbol, permutation) pairs realised on an increasing tuple, by
    trying every symbol of its arity along every permutation."""
    n = len(xs)
    out = set()
    for name in a.language.symbols_of_arity(n):
        for perm in itertools.permutations(range(n)):
            if tuple(xs[p] for p in perm) in a.rel(name):
                out.add((name, perm))
    return frozenset(out)


def naive_encode_structure(a, target=None):
    """The hypergraph encoding by scanning every vertex set of every arity
    above one for its pattern."""
    for name, t in a.relation_items():
        if a.language.arity_of(name) >= 2 and len(set(t)) != len(t):
            raise ValueError(f"relation tuple {t} is not injective")
    if target is None:
        target = encoded_language(a.language)
    rels = {name: list(tuples) for name, tuples in a.relations
            if a.language.arity_of(name) == 1}
    for arity in sorted({arity for _, arity in a.language.symbols if arity >= 2}):
        for xs in itertools.combinations(range(a.size), arity):
            pattern = naive_tuple_pattern(a, xs)
            if pattern:
                rels.setdefault(encoded_symbol_name(pattern), []).append(xs)
    return make_structure(target, a.size, rels, hypergraph=True)


def naive_is_covered(f):
    """Whether some relation tuple has every vertex of ``f`` among its entries."""
    return any(set(t) == set(range(f.size)) for _, t in f.relation_items())


# Unary, binary, ternary and mixed languages for the lookup comparisons.
LOOKUP_LANGUAGES = (
    make_language(("u", 1), ("w", 1)),
    make_language(("a", 2), ("b", 2)),
    uniform_language(3),
    make_language(("u", 1), ("e", 2), ("t", 3)),
)


@st.composite
def lookup_structures(draw, kinds=("hypergraph", "injective", "general")):
    """A random structure over a lookup language: a hypergraph, a structure
    with injective relations, or one whose tuples may repeat vertices."""
    lang = draw(st.sampled_from(LOOKUP_LANGUAGES))
    kind = draw(st.sampled_from(kinds))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(0, 5))
    density = draw(st.sampled_from([0.15, 0.4, 0.8]))
    if kind == "hypergraph":
        return random_hypergraph(lang, size, rng, density)
    return random_general_structure(lang, size, rng, density, injective=kind == "injective")


def random_covered_structure(lang, size, rng, hypergraph, injective=True):
    """A random structure covered by one relation tuple: the full vertex set
    lands in a random symbol of arity ``size``.  A general structure's other
    tuples may repeat vertices unless ``injective``."""
    if hypergraph:
        other = random_hypergraph(lang, size, rng, 0.5)
    else:
        other = random_general_structure(lang, size, rng, 0.5, injective)
    full = tuple(range(size))
    rels = {name: [t for t in ts if not hypergraph or t != full]
            for name, ts in other.relations}
    rels.setdefault(rng.choice(lang.symbols_of_arity(size)), []).append(full)
    return make_structure(lang, size, rels, hypergraph=hypergraph)


# --- the enveloping walks one vertex, one slice pass and one meet pair at a
# time: the oracles for ``build_enveloping``, ``verify_k_enveloping`` and the
# cascade slicing of ``compute_envelope``


def naive_marker_levels(sig, k, n):
    """Vertex and marker levels, markers drawn only for the tuple lengths
    whose bound within ``k`` shifts is at least 3."""
    lengths = [m for m in range(1, len(sig.prefix) + 1)
               if max(sig[m + i] for i in range(k)) >= 3]
    markers = [BranchMarker(s, xs) for m in lengths for s in marker_colours(sig, k, m)
               for xs in itertools.combinations(range(n - 1, -1, -1), m)]
    ranked = sorted([(m.sort_key(), m) for m in markers] + [((v, 1), v) for v in range(n)])
    vertex_level = {item: r for r, (_, item) in enumerate(ranked) if isinstance(item, int)}
    marker_level = {item: r for r, (_, item) in enumerate(ranked)
                    if isinstance(item, BranchMarker)}
    return vertex_level, marker_level


def naive_enveloping_images(emb):
    """Each vertex image by its own pass over every relation tuple, keeping
    the tuples whose largest vertex it is; a colour is the symbol's 1-based
    rank among the symbols of its arity."""
    s, sig, k = emb.structure, emb.sig, emb.k
    images = {}
    for v in range(s.size):
        vals = {}
        for name, tup in s.relation_items():
            if max(tup) != v:
                continue
            arity = s.language.arity_of(name)
            colour = s.language.symbols_of_arity(arity).index(name) + 1
            rest = tuple(sorted((x for x in tup if x != v), reverse=True))
            vals[tuple(emb.vertex_level[x] for x in rest)] = colour
            for m in range(min(k, arity - 1)):
                if sig[m + 1] < 2:
                    continue
                marker = BranchMarker(colour, rest[m:])
                key = tuple(emb.vertex_level[x] for x in rest[:m]) + (emb.marker_level[marker],)
                vals[key] = sig[m + 1] - 1
        images[v] = make_valuation(sig, 0, emb.vertex_level[v], vals)
    return images


def naive_verify_k_enveloping(emb, k=None):
    """The enveloping verdict with condition one checked on every proper
    prefix, then a separate pass collecting the nonzero slices."""
    if k is None:
        k = emb.k
    for v in sorted(emb.images):
        f = emb.images[v]
        for t, _ in f.values:
            for plen in range(1, min(k, len(t))):
                xbar = t[:plen]
                if any(x not in emb.original for x in xbar):
                    return Verdict(False, "nonzero_slice_off_original", (v, xbar))
    out = {}
    for v, f in emb.images.items():
        for t, _ in f.values:
            for m in range(0, min(k, len(t))):
                xbar = t[:m]
                if (v, xbar) not in out:
                    out[(v, xbar)] = f.slice_at(xbar) if xbar else f
    slices = [(v, xbar, s) for (v, xbar), s in sorted(out.items())]
    for v, xbar, s in slices:
        fz = s.first_branch_level()
        if fz is not None and fz not in emb.branching:
            return Verdict(False, "first_branch_not_branching", (v, xbar, fz))
    for (v1, x1, s1), (v2, x2, s2) in itertools.combinations(slices, 2):
        if len(x1) == len(x2) and not comparable(s1, s2):
            lvl = meet(s1, s2).level
            if lvl not in emb.branching:
                return Verdict(False, "meet_not_branching", (v1, x1, v2, x2, lvl))
    return Verdict(True)


def naive_cascade(emb, subset):
    """The cascade stages, each later stage slicing every meet at the level
    of every lower meet, one pair at a time; ``aligned`` restricts the meets
    to the union of the stage level sets."""
    sig = emb.sig
    images = [emb.images[v] for v in subset]
    stages = [envelopes._stage(sig, 0, {f: (v, ()) for v, f in zip(subset, images)})]
    while len(stages[-1].levels()) > 1:
        prev = stages[-1]
        sliced = {}
        for f in prev.meets:
            for g in prev.meets:
                if g.level < f.level:
                    s = f.slice_at((g.level,))
                    if s not in sliced:
                        p = prev.provenance.get(f)
                        sliced[s] = None if p is None else (p[0], p[1] + (g.level,))
        stages.append(envelopes._stage(sig, len(stages), sliced))
    level_set = sorted({l for st in stages for l in st.levels()})
    for st in stages:
        st.aligned = envelopes._dedup(f.restrict(l) for f in st.meets
                                      for l in level_set if l <= f.level)
    return stages


_PREFIX_CACHE: dict = {}


def generic_prefix(kind: str, size: int) -> GenericPrefix:
    """Deterministic staged prefix with at least ``size`` vertices."""
    key = (kind, size)
    if key not in _PREFIX_CACHE:
        lang = graph_language() if kind == "graph" else uniform_language(3)
        prefix = empty_prefix(lang)
        while prefix.size < size:
            prefix = generic_extend(prefix, 1)
        _PREFIX_CACHE[key] = prefix
    return _PREFIX_CACHE[key]


def prefix_structure(kind: str, size: int):
    return generic_prefix(kind, max(size, 1)).structure.induced(range(size))


def assert_strong_subtree(coord, levels, cap=100_000):
    """Check the strong-subtree conditions on a materialised coordinate."""
    tiers = coordinate_nodes(coord, levels, cap)
    assert len(tiers) == len(levels)
    for j, tier in enumerate(tiers):
        assert tier, "every selected level must be populated"
        for f in tier:
            assert f.level == levels[j]
    # rooted
    assert len(tiers[0]) == 1
    # meets stay inside
    flat = [f for tier in tiers for f in tier]
    for f, g in itertools.combinations(flat, 2):
        assert meet(f, g) in flat
    # one subtree node above each immediate-successor direction
    for j in range(len(levels) - 1):
        for s in tiers[j]:
            for t in immediate_successors(s, cap):
                above = [u for u in tiers[j + 1] if u.extends(t)]
                assert len(above) == 1
    return tiers


def tree_embeddings_brute(tree, cap=50_000):
    """All height-preserving, parent-compatible injections of the full tree
    prefix into ``tree``; used as the uniqueness oracle."""
    sig, shift, k = tree.sig, tree.shift, tree.height
    domain = [level_nodes(sig, shift, m, cap) for m in range(k)]
    results = []

    def extend(m, mapping):
        if m == k:
            results.append(dict(mapping))
            return
        source, target = domain[m], tree.nodes_by_level[m]
        for image in itertools.permutations(target, len(source)):
            ok = True
            for u, img in zip(source, image):
                if m and mapping[u.restrict(m - 1)] != img.restrict(tree.levels[m - 1]):
                    ok = False
                    break
            if ok:
                mapping.update(zip(source, image))
                extend(m + 1, mapping)

    extend(0, {})
    return results


def is_structural(tree, mapping):
    """The defining identity of structural embeddings, checked on all
    decreasing-level tuples of every length."""
    domain = sorted(mapping, key=lambda f: -f.level)
    for length in range(2, len(domain) + 1):
        for combo in itertools.combinations(domain, length):
            if len({f.level for f in combo}) != length:
                continue
            xs = sorted(combo, key=lambda f: -f.level)
            want = xs[0].value(tuple(f.level for f in xs[1:]))
            got = mapping[xs[0]].value(tuple(mapping[f].level for f in xs[1:]))
            if want != got:
                return False
    return True


# --- each structural fact recomputed where it is used: the oracles for the
# level-profile copy count, the memoised tree-likeness check, prefix growth
# by appending and the once-seeded tag digests


_TREE_HYPERGRAPHS: dict = {}


def naive_degree_upper_bound(a, height, sig):
    """The copy count by search: the hypergraph induced on every node below
    ``height`` (``induced_tree_structure``, built once per signature and
    height), and the monotone embeddings of ``a``, relabelled into the tree
    language, enumerated into it."""
    lang = tree_language(sig)
    rels = {countable_symbol_name(a.language.arity_of(name), a.language.colour_of(name)):
            list(tuples) for name, tuples in a.relations}
    relabelled = make_structure(lang, a.size, rels, hypergraph=True)
    if (sig, height) not in _TREE_HYPERGRAPHS:
        nodes = [f for m in range(height) for f in level_nodes(sig, 0, m)]
        _TREE_HYPERGRAPHS[sig, height] = induced_tree_structure(sig, nodes)
    return len(enumerate_embeddings(relabelled, _TREE_HYPERGRAPHS[sig, height]))


def naive_is_tree_like(prefix, f, bound):
    """The tree-likeness check with every type recomputed per subset, per
    later vertex and per checked triple."""
    structure = prefix.structure
    tp = structure.type_on
    dom = sorted(f)
    if any(f[a] >= f[b] for a, b in zip(dom, dom[1:])):
        raise ValueError("embedding data must be monotone")
    checked = 0
    window = [v for v in dom if v < bound]
    for r in range(1, len(window) + 1):
        for xs in itertools.combinations(window, r):
            xs_range = range(xs[-1] + 1, min(bound, structure.size))
            if not xs_range:
                continue
            image = tuple(f[v] for v in xs)
            init = tuple(range(f[xs[0]]))
            pivots = [tp(init + (f[v],)) for v in xs]
            later = [(tp(image + (f[y],)), tp(init + (f[y],)))
                     for y in dom if xs[-1] < y < bound]
            for x in xs_range:
                over_xs = tp(xs + (x,))
                for i in range(len(xs)):
                    checked += 1
                    if (over_xs, pivots[i]) not in later:
                        return TreeLikeVerdict("fail", (xs, i, x), checked)
    if checked == 0:
        return TreeLikeVerdict("inconclusive", None, 0)
    return TreeLikeVerdict("pass", None, checked)


def naive_with_symbol(lang, name, arity):
    """The language plus one symbol, re-sorted and re-ranked from scratch."""
    if any(n == name for n, _ in lang.symbols):
        return lang
    return dataclasses.replace(lang, symbols=lang.symbols + ((name, arity),))


def naive_realize(prefix, request):
    """A one-point extension rebuilt whole: every tuple revalidated, every
    name re-sorted and the support index rebuilt by ``make_structure``, and
    every vertex set at the new vertex scanned for a forbidden member."""
    if any(not 0 <= v < prefix.size for v in request.base):
        raise ValueError("extension base must be existing vertices")
    lang, new = prefix.language, prefix.size
    rels = {name: set(tuples) for name, tuples in prefix.structure.relations}
    for slot, idx in request.choices:
        if idx == 0:
            continue
        arity = len(slot) + 1
        if arity in lang.countable_arities:
            name = countable_symbol_name(arity, idx)
            lang = naive_with_symbol(lang, name, arity)
        else:
            pool = lang.symbols_of_arity(arity)
            if not 1 <= idx <= len(pool):
                raise ValueError(f"no symbol #{idx} of arity {arity}")
            name = pool[idx - 1]
        rels.setdefault(name, set()).add(tuple(sorted(slot + (new,))))
    candidate = make_structure(lang, new + 1, rels, hypergraph=True)
    if any(brute_induced_relations(candidate, sub + (new,)) == f.relations
           for f in prefix.forbidden
           for sub in itertools.combinations(range(new), f.size - 1)):
        raise ValueError("requested extension is not forbidden-family-free")
    entry = (request.base, request.choices, new)
    return dataclasses.replace(prefix, structure=candidate, log=prefix.log + (entry,))


def naive_digest(tag, bound):
    """The digest of one slot, hashing the whole tag's ``repr`` each time."""
    h = hashlib.blake2b(repr(tag).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big") % bound


def naive_hashed_extension(f, level, tag):
    """``hashed_extension`` with one full-tag digest per new slot, built
    through the validating constructor."""
    return make_valuation(f.sig, f.shift, level, {
        t: naive_digest(tag + (t,), f.sig.bound(f.shift, len(t))) if v is None else v
        for t, v in _slots(f, level)})
