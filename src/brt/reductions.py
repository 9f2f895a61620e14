"""Class reductions: unary products, the hypergraph encoding bijection, and
bad-tuple stripping.

These three constructions move between structure classes while preserving
embedding sets: a unary-free universal structure is inflated into one where
every vertex carries exactly one unary mark; general injective-relation
structures are encoded as hypergraphs and back; and relations are purged of
tuples that contain a forbidden substructure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import check_size, saturated_product
from .structures import (
    EnumeratedStructure,
    RelationalLanguage,
    countable_symbol_name,
    enumerate_embeddings,
    forbidden_sets,
    is_covered,
    make_structure,
)
from .trees import DEFAULT_CAP


# --- unary product -------------------------------------------------------------


@dataclass(frozen=True)
class UnaryProduct:
    """The base structure inflated with unary marks.

    Product vertex ``(v, i)`` exists for ``i < min(v + 1, u)`` (all ``i`` up
    to ``v`` when the unary supply is countable), is enumerated
    lexicographically, carries exactly the ``i``-th unary, and participates
    in a relation exactly when its base projection does.
    """

    base: EnumeratedStructure
    unary_count: int | None
    pairs: tuple[tuple[int, int], ...]
    structure: EnumeratedStructure

    def index_of(self, pair: tuple[int, int]) -> int:
        return self.pairs.index(pair)

    def projection(self, product_vertex: int) -> int:
        return self.pairs[product_vertex][0]


def _product_pairs(size: int, u: int | None) -> list[tuple[int, int]]:
    pairs = []
    for v in range(size):
        top = v + 1 if u is None else min(v + 1, u)
        pairs.extend((v, i) for i in range(top))
    return pairs


def unary_expand(base: EnumeratedStructure, u: int | None,
                 cap: int = DEFAULT_CAP) -> UnaryProduct:
    """Build the unary product of a unary-free base (``u=None`` = countable)."""
    if base.language.arity_count(1) or base.language.countable_unaries:
        raise ValueError("the base structure must be unary-free")
    pairs = _product_pairs(base.size, u)
    check_size(len(pairs), cap, "unary product")
    index = {p: i for i, p in enumerate(pairs)}
    max_unary = max((i for _, i in pairs), default=-1)
    lang = base.language.with_symbols(*((countable_symbol_name(1, i), 1)
                                        for i in range(max_unary + 1)))

    rels: dict[str, list] = {}
    for i in range(max_unary + 1):
        rels[countable_symbol_name(1, i)] = [(index[(v, j)],)
                                             for (v, j) in pairs if j == i]
    for name, tuples in base.relations:
        out = []
        for t in tuples:
            marks = [range(min(v + 1, u) if u is not None else v + 1) for v in t]
            for combo in itertools.product(*marks):
                out.append(tuple(sorted(index[(v, i)] for v, i in zip(t, combo))))
        rels[name] = out
    structure = make_structure(lang, len(pairs), rels, hypergraph=True)
    return UnaryProduct(base, u, tuple(pairs), structure)


def is_transversal(product: UnaryProduct, f) -> bool:
    """A map into the product is transversal when its base projection is
    injective."""
    seen = [product.projection(x) for x in f]
    return len(set(seen)) == len(seen)


def lift_embedding(product: UnaryProduct, psi: tuple[int, ...]) -> tuple[int, ...]:
    """Lift a base embedding to the product: ``(v, i)`` goes to ``(psi(v), i)``."""
    return tuple(product.index_of((psi[v], i)) for v, i in product.pairs)


# --- encoding general structures as hypergraphs --------------------------------


def _perm_name(perm: tuple[int, ...]) -> str:
    return "".join(map(str, perm))


def encoded_symbol_name(s: frozenset[tuple[str, tuple[int, ...]]]) -> str:
    parts = sorted(f"{name}:{_perm_name(p)}" for name, p in s)
    return "enc(" + "|".join(parts) + ")"


def symbol_catalogue(language: RelationalLanguage, arity: int
                     ) -> list[tuple[str, tuple[int, ...]]]:
    """All (symbol, permutation) pairs of a given arity, in canonical order."""
    return [(name, perm)
            for name in language.symbols_of_arity(arity)
            for perm in sorted(itertools.permutations(range(arity)))]


# Largest (symbol, permutation) catalogue an arity may have: the encoded
# language spells out one symbol per nonempty subset of it.
CATALOGUE_CAP = 20


def encoded_language(language: RelationalLanguage) -> RelationalLanguage:
    """The hypergraph language: unaries kept, one symbol per nonempty subset
    of the (symbol, permutation) catalogue of each arity above one."""
    if any(a >= 2 for a in language.countable_arities):
        raise ValueError("encoding needs finitely many symbols of each arity >= 2")
    symbols = [(n, a) for n, a in language.symbols if a == 1]
    for arity in sorted({a for _, a in language.symbols if a >= 2}):
        cat = symbol_catalogue(language, arity)
        check_size(saturated_product([(2, len(cat))]), 2 ** CATALOGUE_CAP,
                   f"encoded language of arity {arity}")
        for r in range(1, len(cat) + 1):
            for sub in itertools.combinations(cat, r):
                symbols.append((encoded_symbol_name(frozenset(sub)), arity))
    return RelationalLanguage(tuple(symbols), language.countable_arities & {1})


def tuple_pattern(a: EnumeratedStructure, xs: tuple[int, ...]
                  ) -> frozenset[tuple[str, tuple[int, ...]]]:
    """The (symbol, permutation) pairs realised on an increasing tuple: the
    pairs of the pattern at ``xs`` whose tuples have one entry per vertex."""
    return frozenset(pair for pair in a._index.patterns.get(xs, ()) if len(pair[1]) == len(xs))


def encode_structure(a: EnumeratedStructure,
                     target: RelationalLanguage | None = None) -> EnumeratedStructure:
    """Encode an injective-relation structure as a hypergraph: each vertex
    set lands in the single symbol indexed by its realised pattern."""
    for name, t in a.relation_items():
        if a.language.arity_of(name) >= 2 and len(set(t)) != len(t):
            raise ValueError(f"relation tuple {t} is not injective")
    if target is None:
        target = encoded_language(a.language)
    rels: dict[str, list] = {}
    for name, tuples in a.relations:
        if a.language.arity_of(name) == 1:
            rels[name] = list(tuples)
    for xs in a._index.patterns:
        if len(xs) >= 2:
            rels.setdefault(encoded_symbol_name(tuple_pattern(a, xs)), []).append(xs)
    return make_structure(target, a.size, rels, hypergraph=True)


def decode_structure(a: EnumeratedStructure,
                     target: RelationalLanguage) -> EnumeratedStructure:
    """Invert the encoding: expand each encoded vertex set through every
    (symbol, permutation) pair named by its symbol."""
    if not a.hypergraph:
        raise ValueError("decoding expects a hypergraph")
    rels: dict[str, list] = {}
    for name, tuples in a.relations:
        arity = a.language.arity_of(name)
        if arity == 1:
            rels[name] = list(tuples)
            continue
        if not name.startswith("enc("):
            raise ValueError(f"symbol {name} is not an encoded symbol")
        for part in name[4:-1].split("|"):
            base_name, _, perm_s = part.rpartition(":")
            perm = tuple(map(int, perm_s)) if perm_s.isascii() and perm_s.isdigit() else ()
            if not base_name or sorted(perm) != list(range(arity)):
                raise ValueError(f"encoded symbol {name} has part {part}, not a name and "
                                 f"a permutation of 0..{arity - 1}")
            for xs in tuples:
                rels.setdefault(base_name, []).append(tuple(xs[p] for p in perm))
    return make_structure(target, a.size, rels, hypergraph=False)


# --- forbidden-substructure stripping -------------------------------------------


def is_bad(m: EnumeratedStructure, vertices,
           family: tuple[EnumeratedStructure, ...]) -> bool:
    """Whether the structure induces a forbidden member on the vertex set."""
    return bool(forbidden_sets(m, [tuple(sorted(vertices))], family))


def copy_isomorphism_types(m: EnumeratedStructure,
                           family: tuple[EnumeratedStructure, ...],
                           a: EnumeratedStructure) -> list[EnumeratedStructure]:
    """The isomorphism types of pre-stripping structures over copies of ``a``.

    Each embedding of ``a`` into the stripped structure spans a vertex set on
    which the original structure may carry extra (removed) tuples; the
    distinct induced types are returned in lex-minimal-representative order.
    """
    g = strip_bad(m, family)
    seen: dict = {}
    for f in enumerate_embeddings(a, g):
        tp = m.type_on(f)
        if tp not in seen:
            seen[tp] = m.induced(f)
    return [seen[tp] for tp in sorted(seen)]


def strip_bad(m: EnumeratedStructure,
              family: tuple[EnumeratedStructure, ...]) -> EnumeratedStructure:
    """Remove every tuple containing a bad subset from every relation of
    arity above one; unaries are untouched.  Requires each forbidden member
    to be covered by a relation and to span at least two vertices."""
    for f in family:
        if not is_covered(f):
            raise ValueError("every forbidden member must be covered by a relation")
        if f.size < 2:
            raise ValueError("forbidden members must span at least two vertices")
    sizes = sorted({f.size for f in family})
    # a covered member is induced on a support or nowhere
    bad = set(forbidden_sets(m, [s for k in sizes for s in m._index.by_size.get(k, ())],
                             family))
    rels: dict[str, list] = {}
    for name, tuples in m.relations:
        if m.language.arity_of(name) == 1:
            rels[name] = list(tuples)
            continue
        rels[name] = [t for t in tuples
                      if not any(sub in bad for size in sizes
                                 for sub in itertools.combinations(sorted(set(t)), size))]
    return make_structure(m.language, m.size, rels, hypergraph=m.hypergraph)
