"""Finite views of the node trees and their strong subtrees.

The shift-``i`` node tree is infinite; everything here works on explicitly
bounded fragments.  Strong subtrees are represented by witnesses: a shared
level set, one root per coordinate, and a selection rule that picks, for each
node and each immediate successor direction, the unique subtree node above
it at the next level.  Selection rules may be explicit dictionaries, seeded
hash rules, or completions forced by a node set, so witnesses stay usable at
levels where full branching enumeration is out of reach.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter

from .errors import check_natural, check_size
from .structures import (
    EnumeratedStructure,
    RelationalLanguage,
    countable_symbol_name,
    make_language,
    make_structure,
)
from .valuation import (
    Signature,
    ValuationFunction,
    _derived,
    adjacent_meets,
    count_level_nodes,
    count_tree_nodes,
    decreasing_tuples,
    extensions,
    node_key,
    tier_key,
    tuple_colour,
    tuple_sort_key,
    zero_valuation,
)

DEFAULT_CAP = 10 ** 6

# All nodes of a valuation-tree tier share one level, so the stored entries
# alone give the order of ``tier_key``.
_entries_key = attrgetter("values")


class paused_gc:
    """Pause the cyclic garbage collector for one unit of node-heavy work.

    Node-heavy work allocates many small tuples and nodes that form no
    reference cycles, so collections during it traverse a growing heap and
    find nothing to free; reference counting frees the nodes anyway.  On exit the collector is enabled again only
    if it was enabled on entry, so nested and already-paused callers keep
    their state.
    """

    def __enter__(self):
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc):
        if self.was_enabled:
            gc.enable()


def level_nodes(sig: Signature, shift: int, n: int, cap: int = DEFAULT_CAP
                ) -> list[ValuationFunction]:
    """All nodes of the shift-``shift`` tree at level ``n``, in node order."""
    check_size(count_level_nodes(sig, shift, n), cap, f"level {n} enumeration")
    return successors_at(zero_valuation(sig, shift, 0), n, cap)


def zero_extension(f: ValuationFunction, level: int) -> ValuationFunction:
    """Extend upward filling every new entry with zero."""
    if level < f.level:
        raise ValueError("zero_extension cannot lower the level")
    return _derived(f.sig, f.shift, level, f.values)


def _slots(f: ValuationFunction, level: int) -> list:
    """``f``'s entries, and with value ``None`` the tuples an extension of
    ``f`` to ``level`` may set (those led by a coordinate in
    ``[f.level, level)`` whose bound exceeds 1), in (length, lex) order."""
    new = tuple(((lead,) + rest, None) for lead in range(f.level, level)
                for l in f.sig.tracked_lengths(f.shift, lead + 1)
                for rest in decreasing_tuples(lead, l - 1))
    return sorted(f.values + new, key=lambda e: tuple_sort_key(e[0]))


def successors_at(f: ValuationFunction, level: int, cap: int = DEFAULT_CAP
                  ) -> list[ValuationFunction]:
    """All nodes at the given level extending ``f``, in node order."""
    if level < f.level:
        raise ValueError("successor level below the node")
    # Each slot's choices are prebuilt entries, ``None`` standing for 0, so
    # the successors share their entry pairs and a successor is one filter
    # of its choice vector.
    choices = [[None] + [(t, c) for c in range(1, f.sig.bound(f.shift, len(t)))]
               if v is None else [(t, v)] for t, v in _slots(f, level)]
    est = 1
    for c in choices:
        est = check_size(est * len(c), cap, "successor enumeration")
    with paused_gc():
        return [_derived(f.sig, f.shift, level, tuple(filter(None, vec)))
                for vec in itertools.product(*choices)]


def immediate_successors(f: ValuationFunction, cap: int = DEFAULT_CAP
                         ) -> list[ValuationFunction]:
    return successors_at(f, f.level + 1, cap)


def _digest(tag: tuple, bound: int) -> int:
    h = hashlib.blake2b(repr(tag).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big") % bound


def _tag_digest(tag: tuple):
    """``t, bound -> _digest(tag + (t,), bound)``, with the bytes of ``tag``
    hashed once: ``repr(tag + (t,))`` is ``repr(tag)`` without its closing
    ``)`` (or ``,)`` for a one-element tag), then ``, repr(t))``; an empty
    tag gives ``(repr(t),)``."""
    if tag:
        head, tail = repr(tag)[:-2 if len(tag) == 1 else -1], ", {!r})"
    else:
        head, tail = "(", "{!r},)"
    seeded = hashlib.blake2b(head.encode(), digest_size=8)

    def digest(t, bound: int) -> int:
        h = seeded.copy()
        h.update(tail.format(t).encode())
        return int.from_bytes(h.digest(), "big") % bound

    return digest


def hashed_extension(f: ValuationFunction, level: int, tag: tuple) -> ValuationFunction:
    """Deterministic pseudo-random extension of ``f`` to the given level:
    each new slot ``t`` takes ``_digest(tag + (t,), bound)``."""
    slots = _slots(f, level)
    # the tag is hashed only for an extension with new slots
    digest = _tag_digest(tag) if any(v is None for _, v in slots) else None
    vals = ((t, digest(t, f.sig.bound(f.shift, len(t))) if v is None else v)
            for t, v in slots)
    return _derived(f.sig, f.shift, level, tuple(e for e in vals if e[1]))


# --- strong subtree coordinates ----------------------------------------------


class FullCoordinate:
    """The full tree restricted to consecutive levels: selection is identity."""

    def __init__(self, sig: Signature, shift: int):
        self.root = zero_valuation(sig, shift, 0)

    def select(self, parent, direction, next_level):
        if next_level != direction.level:
            raise ValueError("full coordinates need consecutive levels")
        return direction


class SeededCoordinate:
    """Pseudo-random strong subtree: root and selections derived from a seed."""

    def __init__(self, sig: Signature, shift: int, levels: tuple[int, ...], seed: int):
        self.seed = seed
        self.shift = shift
        self.root = hashed_extension(zero_valuation(sig, shift, 0), levels[0],
                                     ("root", seed, shift))

    def select(self, parent, direction, next_level):
        return hashed_extension(direction, next_level,
                                ("sel", self.seed, self.shift,
                                 parent.values, parent.level, direction.values))


class ExplicitCoordinate:
    """Selections stored as a dictionary (parent, direction) -> child."""

    def __init__(self, root: ValuationFunction,
                 selections: dict[tuple[ValuationFunction, ValuationFunction],
                                  ValuationFunction]):
        self.root = root
        self.selections = selections

    def select(self, parent, direction, next_level):
        try:
            child = self.selections[(parent, direction)]
        except KeyError:
            raise ValueError(f"coordinate {parent.shift} has no selection for the parent at "
                             f"level {parent.level} and the direction at level "
                             f"{direction.level}") from None
        if child.level != next_level:
            raise ValueError("stored selection at wrong level")
        return child


class CompletedCoordinate:
    """Strong subtree completing a meet-closed node set on its level set (or
    on any given superset of it).

    Directions carrying a node of the set select its restriction; all other
    directions select the all-zero extension.  The subtree therefore contains
    the set and has exactly the requested level set, without ever enumerating
    full branching.
    """

    def __init__(self, sig: Signature, shift: int, nodes,
                 levels: tuple[int, ...] | None = None):
        self.sig = sig
        self.shift = shift
        members = set(nodes)
        self.nodes = sorted(members, key=tier_key)
        self._node_levels = [f.level for f in self.nodes]
        node_levels = set(self._node_levels)
        self.levels = tuple(sorted(node_levels) if levels is None else levels)
        if not node_levels <= set(self.levels):
            raise ValueError("node levels must lie inside the target level set")
        if any(m not in members for m in adjacent_meets(self.nodes)):
            raise ValueError("node set is not meet-closed")
        # The meet of all the nodes lies in the set, at its least level, and
        # is the one node there: first in tier order.
        self.root = self.nodes[0].restrict(self.levels[0]) if self.nodes else None
        self._index: dict[tuple[int, int], dict] = {}

    def select(self, parent, direction, next_level):
        low, high = direction.level, next_level
        index = self._index.get((low, high))
        if index is None:
            # The first node in tier order that extends a direction wins.
            # Tier order puts lower levels first, so the nodes high enough
            # for both cuts form a tail.
            index = self._index[(low, high)] = {}
            for u in self.nodes[bisect_left(self._node_levels, max(low, high)):]:
                d = u.restrict(low)
                if d not in index:
                    index[d] = u.restrict(high)
        found = index.get(direction)
        return zero_extension(direction, next_level) if found is None else found


@dataclass
class StrongSubtreeWitness:
    """A strong vector subtree: shared levels plus one coordinate per shift."""

    sig: Signature
    levels: tuple[int, ...]
    coords: tuple

    def __post_init__(self):
        if list(self.levels) != sorted(set(self.levels)):
            raise ValueError("levels must be strictly increasing")
        if self.levels:
            check_natural(self.levels[0], "a witness level")
        for i, c in enumerate(self.coords):
            if c.root is None:
                continue
            if c.root.level != self.levels[0]:
                raise ValueError(f"coordinate {i} root is not at the first level")
            if c.root.shift != i:
                raise ValueError(f"coordinate {i} root has shift {c.root.shift}")

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def height(self) -> int:
        return len(self.levels)

    def root(self, coord: int) -> ValuationFunction:
        return self.coords[coord].root

    def select(self, coord: int, parent: ValuationFunction,
               direction: ValuationFunction) -> ValuationFunction:
        j = self.levels.index(parent.level)
        return self.coords[coord].select(parent, direction, self.levels[j + 1])


def full_tree_witness(sig: Signature, dimension: int, height: int
                      ) -> StrongSubtreeWitness:
    return StrongSubtreeWitness(sig, tuple(range(height)),
                                tuple(FullCoordinate(sig, i) for i in range(dimension)))


def seeded_witness(sig: Signature, dimension: int, height: int, seed: int,
                   levels: tuple[int, ...] | None = None) -> StrongSubtreeWitness:
    if levels is None:
        lvl, acc = 0, []
        for j in range(height):
            lvl += _digest(("gap", seed, j), 2) + (1 if j else 0)
            acc.append(lvl)
        levels = tuple(acc)
    return StrongSubtreeWitness(
        sig, tuple(levels),
        tuple(SeededCoordinate(sig, i, tuple(levels), seed) for i in range(dimension)))


def coordinate_nodes(coord, levels: tuple[int, ...], cap: int = DEFAULT_CAP
                     ) -> list[list[ValuationFunction]]:
    """Materialise a single strong subtree level by level (cap-guarded)."""
    if coord.root is None:
        return []
    out = [[coord.root]]
    total = 1
    for j in range(len(levels) - 1):
        nxt = {}
        for s in out[j]:
            for t in immediate_successors(s, cap):
                nxt[coord.select(s, t, levels[j + 1])] = None
        total = check_size(total + len(nxt), cap, "subtree materialisation")
        out.append(sorted(nxt, key=tier_key))
    return out


# --- valuation trees ----------------------------------------------------------


@dataclass
class ValuationTree:
    """An explicit valuation tree: nodes by relative level."""

    sig: Signature
    shift: int
    levels: tuple[int, ...]
    nodes_by_level: tuple[tuple[ValuationFunction, ...], ...]

    @property
    def height(self) -> int:
        return len(self.nodes_by_level)

    @property
    def nodes(self) -> list[ValuationFunction]:
        return [f for lvl in self.nodes_by_level for f in lvl]

    @property
    def root(self) -> ValuationFunction:
        return self.nodes_by_level[0][0]


def check_valuation_size(sig: Signature, dimension: int, cap: int) -> None:
    """Refuse a valuation tree of ``dimension`` coordinates past the cap.
    The estimate needs no witness, so a caller can refuse before building one."""
    check_size(count_tree_nodes(sig, 0, dimension), cap, "valuation tree construction")


def build_valuation_tree(witness: StrongSubtreeWitness, cap: int = DEFAULT_CAP
                         ) -> ValuationTree:
    """The valuation tree of the witness, over all of its coordinates.

    In coordinate ``i``'s tree a node's successors are the selections above
    each admissible one-level extension by a node of coordinate ``i+1``'s
    tree, so the trees are built from the innermost coordinate outward.
    """
    k = witness.dimension
    if witness.height < k:
        raise ValueError("witness height below its dimension")
    check_valuation_size(witness.sig, k, cap)
    inner: list[dict] = []
    for i in reversed(range(k)):
        coord = witness.coords[i]
        tiers: list[dict] = [{coord.root: None}]
        for m in range(k - 1 - i):
            nxt: dict = {}
            for f, h in extensions(list(tiers[m]), list(inner[m])):
                nxt[coord.select(f, h, witness.levels[m + 1])] = None
            tiers.append(nxt)
        inner = tiers
    return ValuationTree(witness.sig, 0, witness.levels[:k],
                         tuple(tuple(sorted(d, key=_entries_key)) for d in inner))


def val_contains_all(witness: StrongSubtreeWitness, nodes,
                     coord: int = 0, height: int | None = None) -> bool:
    """Whether every node lies in the valuation tree of coordinates
    ``coord, …`` cut to ``height`` tiers, without materialising it.  The
    slices that must lie in the inner trees wait on one worklist shared by
    all the nodes, so an entry that two nodes need is checked once."""
    if height is None:
        height = witness.dimension - coord
    todo = list(dict.fromkeys((f, coord, height) for f in nodes))
    if todo and height <= 0:
        return False
    seen = set(todo)
    while todo:
        node, coord, height = todo.pop()
        levels = witness.levels[:height]
        if node.level not in levels:
            return False
        select = witness.coords[coord].select
        s = node.restrict(levels[0])
        if s != witness.root(coord):
            return False
        for j in range(levels.index(node.level)):
            # Level j's restriction ``nxt`` is level j+1's parent ``s``.
            nxt = node.restrict(levels[j + 1])
            if select(s, node.restrict(levels[j] + 1), levels[j + 1]) != nxt:
                return False
            entry = (nxt.slice_at((levels[j],)), coord + 1, height - 1)
            if entry not in seen:
                seen.add(entry)
                todo.append(entry)
            s = nxt
    return True


def val_contains(witness: StrongSubtreeWitness, node: ValuationFunction,
                 coord: int = 0, height: int | None = None) -> bool:
    """Membership of one node, as ``val_contains_all`` checks it."""
    return val_contains_all(witness, (node,), coord, height)


def derived_inner_tree(tree: ValuationTree) -> ValuationTree:
    """The valuation tree of the remaining coordinates, recovered as the
    slices of the nodes at their parents' levels."""
    k = tree.height
    tiers = []
    for m in range(k - 1):
        seen: dict = {}
        for u in tree.nodes_by_level[m + 1]:
            seen[u.slice_at((tree.levels[m],))] = None
        tiers.append(tuple(sorted(seen, key=_entries_key)))
    return ValuationTree(tree.sig, tree.shift + 1, tree.levels[:k - 1], tuple(tiers))


def structural_embedding(tree: ValuationTree, cap: int = DEFAULT_CAP
                         ) -> dict[ValuationFunction, ValuationFunction]:
    """The unique structural embedding of the full tree prefix into ``tree``.

    The map preserves meets and relative heights and carries each node's
    entries to the corresponding entries at image levels; it is recovered
    level by level, the image of a node being pinned down by its parent's
    image, its value at the new singleton, and the image of its top slice
    in the derived inner tree, whose embedding comes first.
    """
    check_size(count_tree_nodes(tree.sig, tree.shift, tree.height), cap, "structural embedding")
    if not tree.height:
        return {}
    chain = [tree]
    while chain[-1].height > 1:
        chain.append(derived_inner_tree(chain[-1]))
    emb: dict[ValuationFunction, ValuationFunction] = {}
    for t in reversed(chain):
        inner, emb = emb, {zero_valuation(t.sig, t.shift, 0): t.root}
        for m in range(t.height - 1):
            lvl = t.levels[m]
            by_key: dict[tuple, list[ValuationFunction]] = {}
            for c in t.nodes_by_level[m + 1]:
                key = (c.restrict(lvl), c.value((lvl,)), c.slice_at((lvl,)))
                by_key.setdefault(key, []).append(c)
            for u in level_nodes(t.sig, t.shift, m + 1, cap):
                cands = by_key.get((emb[u.restrict(m)], u.value((m,)), inner[u.slice_at((m,))]),
                                   [])
                if len(cands) != 1:
                    raise RuntimeError("structural embedding candidate not unique")
                emb[u] = cands[0]
    return emb


# --- the induced hypergraph on shift-0 nodes ----------------------------------


def tree_language(sig: Signature) -> RelationalLanguage:
    """The language of the hypergraph induced on shift-0 nodes: one symbol per
    arity ``i`` and colour ``1..sig[i-1]-2``."""
    if sig.tail >= 3:
        raise ValueError("signature tail >= 3 would need unboundedly many arities")
    symbols = []
    for i in range(2, len(sig.prefix) + 2):
        for j in range(1, sig[i - 1] - 1):
            symbols.append((countable_symbol_name(i, j), i))
    return make_language(*symbols)


def induced_tree_structure(sig: Signature, nodes: list[ValuationFunction]
                           ) -> EnumeratedStructure:
    """The hypergraph induced on the given shift-0 nodes, enumerated in node
    order: a decreasing-level tuple is related with the colour its top node
    reads at the lower levels (first and last values mean unrelated)."""
    ordered = sort_nodes(list(nodes))
    lang = tree_language(sig)
    rels: dict[tuple[int, int], list] = {}   # (arity, colour) -> vertex tuples
    for arity in range(2, len(sig.prefix) + 2):
        if sig[arity - 1] < 3:
            continue
        for combo in itertools.combinations(range(len(ordered)), arity):
            chosen = [ordered[i] for i in combo]
            if len({f.level for f in chosen}) != arity:
                continue
            colour = tuple_colour(sorted(chosen, key=lambda f: -f.level))
            if 1 <= colour <= sig[arity - 1] - 2:
                rels.setdefault((arity, colour), []).append(combo)
    return make_structure(lang, len(ordered), {countable_symbol_name(*key): combos
                                               for key, combos in rels.items()}, hypergraph=True)


def sort_nodes(nodes: list[ValuationFunction]) -> list[ValuationFunction]:
    """Sort by the node enumeration (level, then first differing entry)."""
    return sorted(nodes, key=node_key)


# --- DOT emission -------------------------------------------------------------


def _vf_label(f: ValuationFunction) -> str:
    if f.is_zero:
        body = "0"
    else:
        body = ",".join(f"{'.'.join(map(str, t))}:{v}" for t, v in f.values)
    return f"L{f.level}|{body}"


def tree_to_dot(tree: ValuationTree, name: str = "valtree") -> str:
    lines = [f"digraph {name} {{", "  node [shape=box];"]
    ids: dict[ValuationFunction, str] = {}
    for j, tier in enumerate(tree.nodes_by_level):
        for i, f in enumerate(tier):
            ids[f] = f"n{j}_{i}"
            lines.append(f'  {ids[f]} [label="{_vf_label(f)}"];')
    for j in range(tree.height - 1):
        # One pass per tier: a child's parent is its restriction to the tier's level.
        children: dict[ValuationFunction, list[str]] = {}
        for c in tree.nodes_by_level[j + 1]:
            children.setdefault(c.restrict(tree.levels[j]), []).append(ids[c])
        for f in tree.nodes_by_level[j]:
            lines.extend(f"  {ids[f]} -> {c};" for c in children.get(f, ()))
    lines.append("}")
    return "\n".join(lines) + "\n"
