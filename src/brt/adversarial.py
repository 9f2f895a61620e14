"""Adversarial colourings witnessing infinite degrees, at desk scale.

Two constructions: a colouring of the everywhere-infinitely-branching
sequence tree that takes every value on every strong subtree, and its
structure-world analogue, a colouring of relation-free vertex triples of a
universal structure with countably many binary relation colours that is
persistent under tree-like embeddings.  Both come with explicit witness
constructions, executed and re-checked rather than trusted.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .structures import (
    ExtensionRequest,
    GenericPrefix,
    empty_prefix,
    make_language,
)
from .trees import _digest

SeqNode = tuple[int, ...]


def seq_weight(t: SeqNode) -> int:
    """Length plus entry sum."""
    return len(t) + sum(t)


def seq_colour(t: SeqNode) -> int:
    """Weight of the shortest initial segment at least as heavy as the
    length, minus the length.  Defined for every node since the full weight
    is at least the length."""
    return triple_colour_formula(t, len(t))


# Filler entries of a described subtree's nodes are drawn from range(OMEGA_SPREAD).
OMEGA_SPREAD = 10


@dataclass(frozen=True)
class OmegaSubtree:
    """A strong subtree of the sequence tree, described finitely.

    Infinite branching rules out explicit node sets; the description is a
    root, the selected levels, and a seeded rule filling in the unique
    subtree node above each child of a subtree node.  Membership is decided
    lazily along restriction chains.
    """

    root: SeqNode
    levels: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        if not self.levels or self.levels[0] != len(self.root):
            raise ValueError("first level must be the root length")
        if list(self.levels) != sorted(set(self.levels)):
            raise ValueError("levels must be strictly increasing")

    def child(self, node: SeqNode, direction: int) -> SeqNode:
        """The subtree node at the next level extending ``node + (direction,)``."""
        j = self.levels.index(len(node))
        target = self.levels[j + 1]
        out = list(node) + [direction]
        while len(out) < target:
            out.append(_digest((self.seed, tuple(out)), OMEGA_SPREAD))
        return tuple(out)

    def contains(self, t: SeqNode) -> bool:
        if len(t) not in self.levels or t[: len(self.root)] != self.root:
            return False
        j0 = self.levels.index(len(self.root))
        for j in range(j0, self.levels.index(len(t))):
            cur = t[: self.levels[j]]
            if self.child(cur, t[self.levels[j]]) != t[: self.levels[j + 1]]:
                return False
        return True


def seq_colour_witness(subtree: OmegaSubtree, colour: int,
                       level: int | None = None) -> SeqNode:
    """A subtree node of the requested colour: branch to ``gap + colour``
    right above the root and climb to the first usable level."""
    w_root = seq_weight(subtree.root)
    usable = [l for l in subtree.levels[1:] if l > w_root]
    if level is not None:
        if level not in subtree.levels[1:] or level <= w_root:
            raise ValueError(f"level {level} not available above weight {w_root}")
        n = level
    elif usable:
        n = usable[0]
    else:
        raise ValueError("no described level above the root weight")
    gap = n - w_root - 1
    node = subtree.child(subtree.root, gap + colour)
    while len(node) < n:
        node = subtree.child(node, 0)
    if seq_colour(node) != colour:
        raise AssertionError("witness construction produced a wrong colour")
    return node


def random_omega_subtree(seed: int, height: int = 4) -> OmegaSubtree:
    """Seeded description; always selects a level above the root's weight so
    that every colour has witnesses."""
    root = tuple(_digest((seed, "r", i), 4) for i in range(_digest((seed, "rl"), 3)))
    levels = [len(root)]
    for j in range(height - 1):
        levels.append(levels[-1] + 1 + _digest((seed, "g", j), 3))
    if levels[-1] <= seq_weight(root):
        levels.append(seq_weight(root) + 1 + _digest((seed, "gtop"), 3))
    return OmegaSubtree(root, tuple(levels), seed=seed)


# --- persistent colouring of triples -------------------------------------------


@dataclass(frozen=True)
class GrowPrefix:
    """Request to grow the context prefix before retrying a witness search."""

    requests: tuple[ExtensionRequest, ...]


def infinite_binary_language():
    """Countably many binary relation colours, no unaries."""
    return make_language(countable_arities={2})


@dataclass
class PersistentColouringContext:
    """Bookkeeping for the triple colouring over a universal prefix whose
    language has countably many binary colours.

    Every vertex is a copy of the one-vertex structure, so the copy
    catalogue is the vertex order itself; the passing sequence of a vertex
    records, per earlier vertex, the index of the binary colour joining them
    (zero for none).  The coloured shape is the relation-free triple.
    """

    prefix: GenericPrefix

    @staticmethod
    def fresh() -> "PersistentColouringContext":
        return PersistentColouringContext(empty_prefix(infinite_binary_language()))

    @property
    def size(self) -> int:
        return self.prefix.size

    def colour_between(self, a: int, b: int) -> int:
        if a == b:
            raise ValueError("colour_between needs distinct vertices")
        lo, hi = min(a, b), max(a, b)
        return self.prefix.slot_choice((lo,), hi)

    def passing_sequence(self, v: int, upto: int | None = None) -> tuple[int, ...]:
        stop = v if upto is None else upto
        if stop > self.size:
            raise ValueError("passing sequence cut beyond the prefix")
        return tuple(self.colour_between(i, v) for i in range(stop))

    def grown(self, grow: GrowPrefix) -> "PersistentColouringContext":
        return PersistentColouringContext(self.prefix.realize(*grow.requests))


def triple_colour_formula(s: tuple[int, ...], n: int) -> int:
    """Colour of a passing sequence against a start level: weight of the
    shortest initial segment reaching the level, minus the level; zero when
    the sequence is shorter than the level."""
    if n > len(s):
        return 0
    for cut in range(len(s) + 1):
        w = seq_weight(s[:cut])
        if w >= n:
            return w - n
    raise AssertionError("unreachable: cut at the level itself suffices")


def triple_colour(ctx: PersistentColouringContext, copy) -> int:
    """Colour of a relation-free triple: first vertex sets the level, the
    passing sequence of the third vertex cut at the second feeds the formula."""
    a, b, c = sorted(copy)
    if len({a, b, c}) != 3:
        raise ValueError("a copy has three distinct vertices")
    for x, y in itertools.combinations((a, b, c), 2):
        if ctx.colour_between(x, y):
            raise ValueError("the coloured shape is the relation-free triple")
    s = ctx.passing_sequence(c, upto=b)
    return triple_colour_formula(s, n=a)


def triple_witness(ctx: PersistentColouringContext, p: int,
                   f: dict[int, int] | None = None):
    """Find a relation-free triple inside the embedding's range whose colour
    is ``p``, following the witness construction; returns a grow request when
    the prefix lacks the needed vertices (identity embeddings only can grow).

    Steps: fix two base vertices, pick a third deep enough past the weight of
    the relevant passing prefix, a fourth unrelated to it, and close with a
    vertex whose colour to the first base vertex encodes ``p`` plus the gap.
    """
    identity = f is None
    if identity:
        f = {v: v for v in range(ctx.size)}
    dom = sorted(f)
    if len(dom) < 2:
        if identity:
            return GrowPrefix((ExtensionRequest((), ()),) * (2 - len(dom)))
        raise ValueError("embedding data too small")
    r0, r1 = dom[0], dom[1]
    w0 = seq_weight(ctx.passing_sequence(f[r1], upto=f[r0]))

    r2 = next((v for v in dom if v > r1 and f[v] > w0), None)
    if r2 is None:
        if identity:
            return GrowPrefix((ExtensionRequest((), ()),) * (w0 + 2))
        raise ValueError("no vertex deep enough in the embedding data")
    n = f[r2]

    r3 = next((v for v in dom if v > r2 and ctx.colour_between(f[r2], f[v]) == 0), None)
    if r3 is None:
        if identity:
            return GrowPrefix((ExtensionRequest.of((f[r2],), {}),))
        raise ValueError("no unrelated vertex in the embedding data")

    q = n - w0 - 1 + p
    want = ExtensionRequest.of((f[r0], f[r2], f[r3]),
                               {(f[r0],): q} if q else {})

    def domain_x():
        for x in range(r3 + 1, ctx.size):
            if (ctx.colour_between(r0, x) == q
                    and ctx.colour_between(r2, x) == 0
                    and ctx.colour_between(r3, x) == 0):
                yield x

    type_on = ctx.prefix.structure.type_on
    for x in domain_x():
        if identity:
            y = x
        else:
            y = next((cand for cand in dom if cand > r3
                      and type_on((f[r0], f[r2], f[r3], f[cand]))
                      == type_on((r0, r2, r3, x))
                      and type_on(tuple(range(f[r0])) + (f[cand],))
                      == type_on(tuple(range(f[r0])) + (f[r1],))), None)
            if y is None:
                continue
        copy = (f[r2], f[r3], f[y])
        if triple_colour(ctx, copy) != p:
            raise AssertionError("witness construction produced a wrong colour")
        return copy
    if identity:
        return GrowPrefix((want,))
    raise ValueError("embedding data exhausted without a witness")


# --- tree-likeness checking ------------------------------------------------------


@dataclass
class TreeLikeVerdict:
    status: str  # "pass" | "fail" | "inconclusive"
    witness: tuple | None = None
    checked: int = 0


def is_tree_like(prefix: GenericPrefix, f: dict[int, int], bound: int
                 ) -> TreeLikeVerdict:
    """Bounded check of the tree-likeness conditions on finite embedding data.

    For every finite domain subset, pivot index, and later vertex within the
    bound, some later domain vertex must realise the same extension type over
    the image and match the pivot's type over the initial segment below the
    least image.  A triple with no such vertex in the data is reported as the
    failure witness; with no checkable triple the verdict is inconclusive.
    The full property quantifies over an infinite structure, so a pass is
    always relative to the bound.
    """
    structure = prefix.structure
    tp = structure.type_on
    dom = sorted(f)
    if any(f[a] >= f[b] for a, b in zip(dom, dom[1:])):
        raise ValueError("embedding data must be monotone")
    checked = 0
    end = bisect_left(dom, bound)
    window = dom[:end]
    # per a: the type of each f[v], v >= a, over the initial segment below f[a]
    rows: dict[int, dict[int, tuple]] = {}
    for r in range(1, len(window) + 1):
        for xs in itertools.combinations(window, r):
            xs_range = range(xs[-1] + 1, min(bound, structure.size))
            if not xs_range:
                continue
            if xs[0] not in rows:
                init = tuple(range(f[xs[0]]))
                rows[xs[0]] = {v: tp(init + (f[v],)) for v in dom[dom.index(xs[0]):end]}
            row = rows[xs[0]]
            image = tuple(f[v] for v in xs)
            pivots = [row[v] for v in xs]
            # for each later domain vertex y: its type over the image, and
            # over the initial segment below the least image; the types
            # over the image are kept for the extensions of xs they equal
            types: dict[tuple[int, ...], tuple] = {}
            later = set()
            for y in dom[bisect_right(dom, xs[-1]):end]:
                over_image = types[image + (f[y],)] = tp(image + (f[y],))
                later.add((over_image, row[y]))
            # per extension type: the first pivot it misses, or None
            missing: dict[tuple, int | None] = {}
            for x in xs_range:
                ext = xs + (x,)
                over_xs = types[ext] if ext in types else tp(ext)
                if over_xs not in missing:
                    missing[over_xs] = next((i for i, pivot in enumerate(pivots)
                                             if (over_xs, pivot) not in later), None)
                i = missing[over_xs]
                if i is not None:
                    return TreeLikeVerdict("fail", (xs, i, x), checked + i + 1)
                checked += len(xs)
    if checked == 0:
        return TreeLikeVerdict("inconclusive", None, 0)
    return TreeLikeVerdict("pass", None, checked)
