"""Enveloping embeddings and bounded-height envelopes.

An embedding of a finite hypergraph prefix into the shift-0 node hypergraph
is ``k``-enveloping when the levels split into originals (carrying vertex
images) and branching levels (reserved formal markers) so that short nonzero
slices live on original levels only and incomparable short slices always meet
at branching levels.  Such control lets every ``k``-element subset of the
image be enclosed in a valuation tree whose height is bounded by a function
of ``k`` alone: the envelope cascade below constructs that tree and keeps its
full trace for independent re-checking.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import comb

from .errors import check_size
from .structures import (
    EnumeratedStructure,
    countable_symbol_name,
    make_structure,
)
from .trees import (
    DEFAULT_CAP,
    CompletedCoordinate,
    StrongSubtreeWitness,
    ValuationTree,
    build_valuation_tree,
    tree_language,
    val_contains_all,
)
from .valuation import (
    Signature,
    ValuationFunction,
    _derived,
    _meet_level,
    adjacent_meets,
    count_tree_nodes,
    decreasing_tuples,
    meet,
    signature_from_language,
    tier_key,
    tuple_sort_key,
    zero_valuation,
)

# Envelopes whose valuation tree has more nodes than this are not
# materialised: ``Envelope.tree`` and ``Envelope.tree_nodes`` are ``None``.
MATERIALIZE_CAP = 20_000


@dataclass(frozen=True)
class BranchMarker:
    """Formal symbol reserving a branching level below its leading vertex."""

    colour: int
    vertices: tuple[int, ...]

    def sort_key(self) -> tuple:
        return (self.vertices[0], 0, self.vertices, self.colour)


def _int_sort_key(v: int) -> tuple:
    return (v, 1)


def marker_colours(sig: Signature, k: int, length: int) -> range:
    """Marker colours of a tuple length: empty unless its bound, within a
    window of ``k`` shifts, leaves room for a reserved non-relation value."""
    return range(1, max(sig[length + i] for i in range(k)) - 1)


@dataclass
class Verdict:
    """Outcome of an enveloping check; carries the first violation found."""

    ok: bool
    kind: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class EnvelopingEmbedding:
    """A vertex-by-vertex embedding into the shift-0 tree, with its level
    bookkeeping: the rank function on vertices and markers, the split into
    original and branching levels, and the per-vertex image nodes."""

    k: int
    sig: Signature
    structure: EnumeratedStructure
    vertex_level: dict[int, int]
    marker_level: dict[BranchMarker, int]
    images: dict[int, ValuationFunction]
    original: frozenset[int]
    branching: frozenset[int]

    @cached_property
    def _verdict(self) -> Verdict:
        # Kept in the instance dict, not in a field, so that a copy made by
        # ``dataclasses.replace`` checks its own images afresh.
        return verify_k_enveloping(self)

    def verify(self, k: int | None = None) -> Verdict:
        """The enveloping check at the embedding's own ``k`` (computed once),
        or at a given ``k``."""
        return self._verdict if k is None else verify_k_enveloping(self, k)


def build_enveloping(structure: EnumeratedStructure, k: int) -> EnvelopingEmbedding:
    """Construct a ``k``-enveloping embedding of a finite hypergraph prefix.

    Levels are allocated by ranking vertices together with branching markers:
    a marker sits immediately below its leading vertex.  A vertex image reads
    each of its relations twice: the relation colour on the fully original
    tuple, and a reserved top value on the tuple that trades the relation
    tail for its marker; a (sorted) tuple is read by its last vertex's image.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not structure.hypergraph:
        raise ValueError("the source must be a hypergraph")
    if structure.language.arity_count(1) or structure.language.countable_unaries:
        raise ValueError("unary relations are handled by the product reduction")
    sig = signature_from_language(structure.language)
    n = structure.size

    markers = [BranchMarker(s, xs)
               for m in range(1, len(sig.prefix) + 1)
               for s in marker_colours(sig, k, m)
               for xs in itertools.combinations(range(n - 1, -1, -1), m)]
    ranked = sorted([(m.sort_key(), m) for m in markers]
                    + [(_int_sort_key(v), v) for v in range(n)])
    vertex_level: dict[int, int] = {}
    marker_level: dict[BranchMarker, int] = {}
    for rank, (_, item) in enumerate(ranked):
        if isinstance(item, BranchMarker):
            marker_level[item] = rank
        else:
            vertex_level[item] = rank

    vals: list[dict[tuple[int, ...], int]] = [{} for _ in range(n)]
    for name, tup in structure.relation_items():
        colour = structure.language.colour_of(name)
        rest = tup[-2::-1]
        entries = vals[tup[-1]]
        entries[tuple(vertex_level[x] for x in rest)] = colour
        for m in range(min(k, len(tup) - 1)):
            if sig[m + 1] < 2:
                continue
            marker = BranchMarker(colour, rest[m:])
            key = tuple(vertex_level[x] for x in rest[:m]) + (marker_level[marker],)
            entries[key] = sig[m + 1] - 1
    # The structure was validated when it was read or made, so each image
    # needs only its entries in (length, lex) order.
    images = {v: _derived(sig, 0, vertex_level[v],
                          tuple(sorted(vals[v].items(), key=lambda e: tuple_sort_key(e[0]))))
              for v in range(n)}

    return EnvelopingEmbedding(
        k, sig, structure, vertex_level, marker_level, images,
        frozenset(vertex_level.values()), frozenset(marker_level.values()))


def verify_k_enveloping(emb: EnvelopingEmbedding, k: int | None = None) -> Verdict:
    """Check the enveloping conditions over the vertex images.

    Condition one: every proper prefix (shorter than ``k``) of a stored tuple
    uses original levels only.  Condition two: every nonzero short slice
    first branches at a branching level (its meet with any taller constant
    zero), and incomparable same-length nonzero slices meet at branching
    levels.  These are exactly the quantified conditions restricted to the
    finite window; the naive quantifier form is used as a test oracle.  One
    walk over the stored-tuple prefixes checks condition one in full and
    collects the slices that can be nonzero, keyed by (vertex, prefix).
    """
    if k is None:
        k = emb.k
    sliced: dict[tuple[int, tuple], ValuationFunction] = {}
    for v in sorted(emb.images):
        f = emb.images[v]
        for t, _ in f.values:
            for m in range(min(k, len(t))):
                xbar = t[:m]
                if (v, xbar) in sliced:
                    continue
                if not emb.original.issuperset(xbar):
                    return Verdict(False, "nonzero_slice_off_original", (v, xbar))
                sliced[(v, xbar)] = f.slice_at(xbar) if xbar else f
    slices = [(v, xbar, s) for (v, xbar), s in sorted(sliced.items())]
    for v, xbar, s in slices:
        fz = s.first_branch_level()
        if fz is not None and fz not in emb.branching:
            return Verdict(False, "first_branch_not_branching", (v, xbar, fz))
    for (v1, x1, s1), (v2, x2, s2) in itertools.combinations(slices, 2):
        if len(x1) != len(x2):
            continue
        # Comparable slices meet at the lower of their levels.
        lvl = _meet_level(s1, s2)
        if lvl == min(s1.level, s2.level):
            continue
        if lvl not in emb.branching:
            return Verdict(False, "meet_not_branching", (v1, x1, v2, x2, lvl))
    return Verdict(True)


def envelope_height_bound(k: int) -> int:
    """Upper bound on envelope height: the level-count recursion summed out.

    Stage zero sees at most ``2k-1`` levels and each later stage at most
    doubles-minus-one its predecessor; the bound is the sum over ``k+1``
    stages.
    """
    if k < 0:
        raise ValueError("k must be a natural number")
    if k == 0:
        return 0
    total, a = 0, 2 * k - 1
    for _ in range(k + 1):
        total += a
        a = 2 * a - 1
    return total


@dataclass
class EnvelopeStage:
    """One cascade stage: slices, zero padding, meet closure, aligned copies."""

    index: int
    slices: tuple[ValuationFunction, ...]
    padded: tuple[ValuationFunction, ...]
    meets: tuple[ValuationFunction, ...]
    aligned: tuple[ValuationFunction, ...] = ()
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self._levels = tuple(sorted({f.level for f in self.meets}))

    def levels(self) -> tuple[int, ...]:
        """The levels of the meet closure, in increasing order."""
        return self._levels


@dataclass
class Envelope:
    """A valuation tree enclosing the image of a vertex subset, with the full
    cascade trace and the witness it was assembled from."""

    sig: Signature
    k: int
    subset: tuple[int, ...]
    levels: tuple[int, ...]
    height: int
    stages: tuple[EnvelopeStage, ...]
    witness: StrongSubtreeWitness | None
    contained: bool

    @property
    def tree_nodes(self) -> int | None:
        """Node count of the valuation tree, without building it, or ``None``
        without a witness or above ``MATERIALIZE_CAP``.

        The tree is an isomorphic copy of the node-tree prefix of its height:
        each coordinate's ``select`` is injective on directions, so the size
        of every tier depends on the signature alone, not on the witness.
        """
        if self.witness is None:
            return None
        count = count_tree_nodes(self.sig, 0, self.height)
        return count if count <= MATERIALIZE_CAP else None

    @cached_property
    def tree(self) -> ValuationTree | None:
        """The materialised valuation tree, built on first access and then
        kept; ``None`` exactly when ``tree_nodes`` is."""
        if self.tree_nodes is None:
            return None
        return build_valuation_tree(self.witness, cap=MATERIALIZE_CAP)


def _dedup(nodes) -> tuple[ValuationFunction, ...]:
    return tuple(sorted(set(nodes), key=tier_key))


def _stage(sig: Signature, index: int, sliced: dict) -> EnvelopeStage:
    """One cascade stage from its slices (each mapped to its provenance):
    pad with a constant zero at the top level, close under meets, and give
    each new meet the provenance of the first padded node extending it."""
    slices = _dedup(sliced)
    top = zero_valuation(sig, index, max(f.level for f in slices))
    padded = _dedup(slices + (top,))
    prov = dict(sliced)
    prov.setdefault(top, None)
    meets = _dedup(padded + tuple(adjacent_meets(padded)))
    for m in meets:
        if m not in prov:
            prov[m] = prov[next(f for f in padded if f.extends(m))]
    return EnvelopeStage(index, slices, padded, meets, provenance=prov)


def compute_envelope(emb: EnvelopingEmbedding, subset) -> Envelope:
    """Run the envelope cascade for a ``k``-element vertex subset.

    Each stage slices the previous meet closure at its lower levels, pads
    with a constant zero at the top, and closes under meets; the union of the
    stage level sets is the envelope's level set.  Every stage is completed
    to a strong subtree on that level set and the valuation tree of the
    resulting witness is the envelope; containment of the image nodes is
    re-checked through the membership test rather than trusted.  The
    tree itself is built only when ``Envelope.tree`` is first read.
    """
    subset = tuple(sorted(subset))
    if len(subset) != emb.k:
        raise ValueError(f"subset size {len(subset)} differs from k={emb.k}")
    if len(set(subset)) != len(subset):
        raise ValueError("subset has repeated vertices")
    size = emb.structure.size
    for v in subset:
        if not 0 <= v < size:
            raise ValueError(f"subset vertex {v} is outside the prefix (size {size})")
    if emb.k == 0 or not subset:
        return Envelope(emb.sig, 0, (), (), 0, (), None, True)
    verdict = emb.verify()
    if not verdict:
        raise ValueError(f"embedding is not {emb.k}-enveloping: {verdict.kind}")

    sig = emb.sig
    images = [emb.images[v] for v in subset]
    stages = [_stage(sig, 0, {f: (v, ()) for v, f in zip(subset, images)})]
    # the first (meet, lower level) giving a slice sets its provenance
    while len(levels := stages[-1].levels()) > 1:
        prev = stages[-1]
        sliced: dict[ValuationFunction, tuple | None] = {}
        for f in prev.meets:
            p = prev.provenance.get(f)
            for l in levels[:levels.index(f.level)]:
                s = f.slice_at((l,))
                if s not in sliced:
                    sliced[s] = None if p is None else (p[0], p[1] + (l,))
        stages.append(_stage(sig, len(stages), sliced))

    level_set = tuple(sorted({l for st in stages for l in st.levels()}))
    height = len(level_set)
    if height != len(stages):
        raise RuntimeError("cascade stage count differs from its level count")

    coords = []
    for st in stages:
        aligned = _dedup(f.restrict(l) for f in st.meets
                         for l in level_set if l <= f.level)
        st.aligned = aligned
        coords.append(CompletedCoordinate(sig, st.index, aligned, level_set))
    witness = StrongSubtreeWitness(sig, level_set, tuple(coords))

    contained = val_contains_all(witness, images, 0, height)
    return Envelope(sig, emb.k, subset, level_set, height, tuple(stages),
                    witness, contained)


def trace_invariants(env: Envelope, emb: EnvelopingEmbedding) -> dict[str, bool]:
    """The cascade-trace properties, each checked literally on the stages."""
    checks = {
        "nested_and_meet_closed": True,
        "elements_original_or_zero": True,
        "nonzero_level_budget": True,
        "new_levels_branching": True,
        "original_levels_carry_images": True,
        "drops_exactly_max": True,
        "max_levels_decrease": True,
        "level_count_bound": True,
    }
    bound = envelope_height_bound(emb.k)
    image_levels = {emb.images[v].level for v in env.subset}
    for st in env.stages:
        e0, e1, e2 = set(st.slices), set(st.padded), set(st.meets)
        if not (e0 <= e1 <= e2):
            checks["nested_and_meet_closed"] = False
        for f, g in itertools.combinations(e2, 2):
            if meet(f, g) not in e2:
                checks["nested_and_meet_closed"] = False
        for f in e1:
            if f.is_zero:
                continue
            p = st.provenance.get(f)
            if p is None:
                checks["elements_original_or_zero"] = False
                continue
            v, xbar = p
            if any(x not in emb.original for x in xbar):
                checks["elements_original_or_zero"] = False
            src = emb.images[v].slice_at(xbar) if xbar else emb.images[v]
            if src.restrict(f.level) != f:
                checks["elements_original_or_zero"] = False
        # The stage's sorted tuple, not the set, so that the ``extends``
        # calls made do not depend on hash order; top level first, since
        # only nodes at or above ``f.level`` can extend ``f``.
        for f in e2:
            if not any(g.extends(f) for g in reversed(st.padded)):
                checks["elements_original_or_zero"] = False
        nonzero_levels = {f.level for f in e1 if not f.is_zero}
        if len(nonzero_levels) > max(0, emb.k - st.index):
            checks["nonzero_level_budget"] = False
        if len(st.levels()) > bound - st.index:
            checks["level_count_bound"] = False
        if any(l in emb.original and l not in image_levels for l in st.levels()):
            checks["original_levels_carry_images"] = False
        if st.index > 0:
            prev = env.stages[st.index - 1]
            if not set(st.levels()) - set(prev.levels()) <= emb.branching:
                checks["new_levels_branching"] = False
            if set(prev.levels()) - set(st.levels()) != {max(prev.levels())}:
                checks["drops_exactly_max"] = False
            if not max(st.levels()) < max(prev.levels()):
                checks["max_levels_decrease"] = False
    return checks


def degree_upper_bound(a: EnumeratedStructure, height: int, sig: Signature,
                       cap: int = DEFAULT_CAP) -> int:
    """Count monotone embeddings of a hypergraph into the hypergraph induced
    on the tree prefix of the given height (the copy-count the colouring
    pipeline cannot exceed).

    The count is a sum over level profiles; neither the hypergraph nor its
    nodes are built.  Node order puts lower levels first, so an embedding
    gives ``a``'s vertices non-decreasing levels, and a relation needs
    distinct levels.  A vertex set of a related arity whose levels are
    distinct constrains its top vertex's value at the decreasing tuple of
    the other levels: its colour if ``a`` relates it, else 0 or bound - 1.
    The vertices of one level are independent of the other levels, so a
    profile counts the product, over its levels, of the strictly increasing
    node sequences that meet their vertices' constraints.
    """
    est = check_size(count_tree_nodes(sig, 0, height), cap, f"tree prefix of height {height}")
    lang = tree_language(sig)
    rels: dict[str, list] = {}
    for name, tuples in a.relations:
        arity, colour = a.language.arity_of(name), a.language.colour_of(name)
        if arity < 2 or not 1 <= colour <= sig[arity - 1] - 2:
            raise ValueError(f"symbol {name} does not fit the signature")
        rels[countable_symbol_name(arity, colour)] = list(tuples)
    relabelled = make_structure(lang, a.size, rels, hypergraph=True)
    colours = {t: lang.colour_of(name) for name, t in relabelled.relation_items()}
    vertex_sets = [s for arity in range(2, len(sig.prefix) + 2) if sig[arity - 1] >= 3
                   for s in itertools.combinations(range(a.size), arity)]
    if not vertex_sets:
        # No vertex set can be related, so every increasing map embeds.  (With
        # every bound 1 a level holds one node, so the height, and the number
        # of level profiles, may be as large as the cap.)
        return comb(est, a.size)
    total = 0
    for profile in itertools.combinations_with_replacement(range(height), a.size):
        # per vertex: the values it may take at each constrained tuple
        allowed: list[dict] = [{} for _ in profile]
        for s in vertex_sets:
            levels = [profile[v] for v in s]
            if len(set(levels)) < len(s):
                if s in colours:
                    break
                continue
            bound = sig[len(s) - 1]
            ok = {colours[s]} if s in colours else {0, bound - 1}
            key = tuple(levels[-2::-1])
            allowed[s[-1]][key] = allowed[s[-1]].get(key, ok) & ok
        else:
            count = 1
            for level, group in itertools.groupby(range(a.size), key=profile.__getitem__):
                count *= _increasing_sequences(sig, level, [allowed[v] for v in group])
                if not count:
                    break
            total += count
    return total


def _increasing_sequences(sig: Signature, level: int, allowed: list[dict]) -> int:
    """The number of strictly increasing sequences of level-``level`` nodes,
    in node order, whose i-th node's value at each tuple of ``allowed[i]``
    lies in the given set.

    Nodes of one level are ordered by their values along the tuples in
    (length, lex) order, so the count runs over those tuples: nodes still
    equal at one tuple take non-decreasing values there and split into runs
    of equal values, and each run is counted on from the next tuple.  A run
    of more than one node at the end is not strictly increasing.
    """
    tuples = [t for length in sig.tracked_lengths(0, level)
              for t in sorted(decreasing_tuples(level, length))]

    @functools.cache
    def run(i: int, j: int, p: int) -> int:
        # nodes i..j-1 are equal on the tuples before the p-th
        if p == len(tuples):
            return int(j - i == 1)
        return runs(i, j, p, 0)

    @functools.cache
    def runs(i: int, j: int, p: int, low: int) -> int:
        # nodes i..j-1 take non-decreasing values of at least ``low`` at the
        # p-th tuple, grouped into runs of equal values
        if i == j:
            return 1
        t = tuples[p]
        values = set(range(low, sig[len(t)]))
        total = 0
        for m in range(i + 1, j + 1):
            values &= allowed[m - 1].get(t, values)
            total += sum(run(i, m, p + 1) * runs(m, j, p, c + 1) for c in values)
        return total

    return run(0, len(allowed), 0)
