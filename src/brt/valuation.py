"""Signatures and valuation functions.

A signature is an infinite sequence of positive branching bounds, eventually
constant, stored as a finite prefix plus tail value.  A valuation function of
level ``n`` assigns to every strictly decreasing tuple with entries below
``n`` a value bounded by the signature entry for the tuple's length; only the
nonzero entries are stored.  These functions are the nodes of the node trees:
the shift-``i`` tree consists of all functions over the ``i``-shifted
signature, ordered by end-restriction.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from math import comb
from operator import attrgetter

from .errors import ESTIMATE_MAX, check_natural, saturated_product


@dataclass(frozen=True)
class Signature:
    """Per-length branching bounds: ``prefix`` then ``tail`` forever."""

    prefix: tuple[int, ...] = ()
    tail: int = 1

    def __post_init__(self):
        if self.tail < 1 or any(v < 1 for v in self.prefix):
            raise ValueError("signature entries must be positive")
        p = list(self.prefix)
        while p and p[-1] == self.tail:
            p.pop()
        object.__setattr__(self, "prefix", tuple(p))

    def __getitem__(self, i: int) -> int:
        """1-based lookup: entry for tuples of length ``i``."""
        if i < 1:
            raise IndexError("signature indices start at 1")
        return self.prefix[i - 1] if i <= len(self.prefix) else self.tail

    def bound(self, shift: int, length: int) -> int:
        return self[shift + length]

    def tracked_lengths(self, shift: int, max_length: int) -> Iterator[int]:
        """Lengths up to ``max_length`` whose bound exceeds 1 at this shift,
        in increasing order; with tail 1 none lies past the prefix."""
        top = max_length if self.tail > 1 else min(max_length, len(self.prefix) - shift)
        return (l for l in range(1, top + 1) if self.bound(shift, l) > 1)


def decreasing_tuples(n: int, length: int):
    """All strictly decreasing tuples of the given length with entries < n."""
    for combo in itertools.combinations(range(n - 1, -1, -1), length):
        yield combo


def tuple_sort_key(t: tuple[int, ...]) -> tuple:
    """Order on argument tuples: length first, then entrywise lex."""
    return (len(t), t)


@dataclass(frozen=True, slots=True)
class ValuationFunction:
    """A sparse valuation function: level, shift, and its nonzero entries.

    Nodes are slotted: four references and no instance dict.  Equality
    compares all four fields; the hash leaves ``sig`` out, since nodes that
    meet in one dict or set nearly always share it, and equal nodes still
    hash alike."""

    sig: Signature = field(hash=False)
    shift: int
    level: int
    values: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        prev = None
        for t, v in self.values:
            if prev is not None and tuple_sort_key(t) <= tuple_sort_key(prev):
                raise ValueError("entries must be sorted by (length, lex)")
            prev = t
            if any(t[i] <= t[i + 1] for i in range(len(t) - 1)):
                raise ValueError(f"tuple {t} is not strictly decreasing")
            if not 0 <= t[-1] or not t[0] < self.level:
                raise ValueError(f"tuple {t} out of range for level {self.level}")
            if not 0 < v < self.sig.bound(self.shift, len(t)):
                raise ValueError(f"value {v} at {t} out of bounds")

    @property
    def is_zero(self) -> bool:
        return not self.values

    def value(self, t: tuple[int, ...]) -> int:
        for key, v in self.values:
            if key == t:
                return v
        return 0

    def value_map(self) -> dict[tuple[int, ...], int]:
        return dict(self.values)

    def restrict(self, level: int) -> "ValuationFunction":
        """Truncate to a lower level, keeping entries on tuples below it."""
        if not 0 <= level <= self.level:
            raise ValueError(f"cannot restrict level {self.level} to {level}")
        if level == self.level:
            return self   # nodes are immutable, so the node is its own restriction
        kept = [e for e in self.values if e[0][0] < level]
        return _derived(self.sig, self.shift, level, tuple(kept))

    def slice_at(self, xbar: tuple[int, ...]) -> "ValuationFunction":
        """Fix the leading coordinates to ``xbar``; shift rises by ``len(xbar)``.

        The result has level ``xbar[-1]`` and sends each tuple to the value of
        its concatenation after ``xbar``.
        """
        if not xbar:
            return self
        m = len(xbar)
        if m > 1 and any(a <= b for a, b in zip(xbar, xbar[1:])):
            raise ValueError(f"slice tuple {xbar} is not strictly decreasing")
        if not (0 <= xbar[-1] and xbar[0] < self.level):
            raise ValueError(f"slice tuple {xbar} out of range")
        # Stripping the shared prefix keeps the (length, lex) order, and the
        # bound of a tuple of length L at shift s is that of its tail at s + m.
        kept = [(t[m:], v) for t, v in self.values if t[:m] == xbar and len(t) > m]
        return _derived(self.sig, self.shift + m, xbar[-1], tuple(kept))

    def first_branch_level(self) -> int | None:
        """Lowest leading coordinate carrying a nonzero entry (None if zero)."""
        return min((t[0] for t, _ in self.values), default=None)

    def extends(self, other: "ValuationFunction") -> bool:
        """Whether ``other`` is a restriction of this node: same tree, level
        at most ours, and exactly our entries led below its level."""
        n = other.level
        return ((self.sig, self.shift) == (other.sig, other.shift) and n <= self.level
                and tuple(e for e in self.values if e[0][0] < n) == other.values)


# The slots' member descriptors set a field of a frozen node directly.
_new = object.__new__
_set_sig = ValuationFunction.sig.__set__
_set_shift = ValuationFunction.shift.__set__
_set_level = ValuationFunction.level.__set__
_set_values = ValuationFunction.values.__set__


def _derived(sig: Signature, shift: int, level: int,
             values: tuple[tuple[tuple[int, ...], int], ...]) -> ValuationFunction:
    """The trusted constructor: a node derived from validated nodes, with its
    entries already in (length, lex) order and no zeros.  It sets the fields
    without running ``__post_init__``; every node from outside the library
    goes through ``make_valuation``, ``zero_valuation`` or the dataclass."""
    f = _new(ValuationFunction)
    _set_sig(f, sig)
    _set_shift(f, shift)
    _set_level(f, level)
    _set_values(f, values)
    return f


def make_valuation(sig: Signature, shift: int, level: int,
                   values: dict[tuple[int, ...], int] | None = None
                   ) -> ValuationFunction:
    vals = values or {}
    canon = tuple(sorted(((tuple(t), v) for t, v in vals.items() if v),
                         key=lambda kv: tuple_sort_key(kv[0])))
    return ValuationFunction(sig, shift, level, canon)


def zero_valuation(sig: Signature, shift: int, level: int) -> ValuationFunction:
    return ValuationFunction(sig, shift, level, ())


def _meet_level(f: ValuationFunction, g: ValuationFunction) -> int:
    """Level of the meet: the lower level, or the lowest leading coordinate
    of an entry the two nodes do not share, whichever is less."""
    if (f.sig, f.shift) != (g.sig, g.shift):
        raise ValueError("meet requires nodes of the same tree")
    if f.values == g.values:   # common among a stage's nodes; spares two set builds
        return min(f.level, g.level)
    return min(f.level, g.level, *(t[0] for t, _ in set(f.values) ^ set(g.values)))


def meet(f: ValuationFunction, g: ValuationFunction) -> ValuationFunction:
    """Longest common restriction of two nodes of the same tree."""
    return f.restrict(_meet_level(f, g))


def comparable(f: ValuationFunction, g: ValuationFunction) -> bool:
    return _meet_level(f, g) == min(f.level, g.level)


def _dfs_key(f: ValuationFunction) -> list:
    """Depth-first order on one tree: the node's entries grouped by leading
    coordinate, one group per level below the node.  A restriction's key is
    a prefix of the node's key, so each node's extensions follow it in one
    unbroken run."""
    groups: list[list] = [[] for _ in range(f.level)]
    for e in f.values:
        groups[e[0][0]].append(e)
    return groups


def adjacent_meets(nodes) -> list[ValuationFunction]:
    """The meets of the nodes adjacent in depth-first order.  Together with
    the nodes they form the meet closure of the set: the meet of any two
    nodes is the lowest of the adjacent meets between them, since a node's
    extensions run unbroken in this order."""
    order = sorted(nodes, key=_dfs_key)
    return [meet(f, g) for f, g in zip(order, order[1:])]


def extensions(fs: Sequence[ValuationFunction], gs: Sequence[ValuationFunction]
               ) -> list[tuple[ValuationFunction, ValuationFunction]]:
    """All one-level extensions of each node of ``fs`` by each node of ``gs``,
    as ``(f, extension)`` pairs: ``f`` by ``f``, then ``g`` by ``g``, then by
    the value at the new singleton.

    The nodes of ``fs`` share one tree and one level; those of ``gs`` sit one
    shift higher at that level.  An extension agrees with its ``f`` below,
    reads its ``g`` on tuples led by the new coordinate, and takes one
    admissible value at the new singleton.  A pair of nodes is the 1x1 case.
    """
    if not fs or not gs:
        return []
    sig, shift, n = fs[0].sig, fs[0].shift, fs[0].level
    if any(f.sig != sig or f.shift != shift or f.level != n for f in fs):
        raise ValueError("extended nodes must share one tree and one level")
    if any(g.shift != shift + 1 for g in gs):
        raise ValueError("extending function must sit one shift higher")
    if any(g.level != n for g in gs):
        raise ValueError("extension requires equal levels")
    if any(g.sig != sig for g in gs):
        raise ValueError("extension requires nodes of one signature")
    # Within each length, f's tuples (led below n) precede the new ones (led
    # by n), and the bound of (n,) + t at f.shift is that of t at g.shift.
    # Each g's shifted entries and each singleton entry are built once per
    # call and shared by every extension that holds them.
    lead = (n,)
    new = [tuple((lead + t, v) for t, v in g.values) for g in gs]
    singles = [()] + [((lead, c),) for c in range(1, sig.bound(shift, 1))]
    out = []
    for f in fs:
        ones = sum(len(t) == 1 for t, _ in f.values)
        below, above = f.values[:ones], f.values[ones:]
        top = len(above[-1][0]) if above else 0
        for add in new:
            # The new entries run from length 2 up; merge them with f's
            # longer entries by length only where the lengths interleave.
            if add and len(add[0][0]) < top:
                rest = tuple(sorted(above + add, key=lambda e: len(e[0])))
            else:
                rest = above + add
            out.extend((f, _derived(sig, shift, n + 1, below + s + rest)) for s in singles)
    return out


def node_key(f: ValuationFunction) -> tuple:
    """Sort key of the node enumeration: lower level first; at equal levels,
    the lower value at the (length, lex)-least tuple where two nodes differ.

    Entries are stored in (length, lex) order without zeros.  Where two keys
    first differ, either both entries have one tuple and the values decide,
    or the node whose tuple comes first holds a nonzero value the other
    lacks, so it is the larger node; negating the tuple order puts it second.
    """
    return (f.level, tuple((-len(t), tuple(-x for x in t), v) for t, v in f.values))


# Tier order: level, then stored entries.  It only has to be fixed and
# cheap; it is not the node enumeration of ``node_key``.
tier_key = attrgetter("level", "values")


def signature_from_language(language) -> Signature:
    """Branching bounds matching a language: two more than the symbol count
    of the next arity, up to the largest populated arity, then ones.

    Unary symbols play no role here; arities above one must be finite.
    """
    if any(a >= 2 for a in language.countable_arities):
        raise ValueError("signature needs finitely many symbols of each arity >= 2")
    mu = max((a for _, a in language.symbols if a >= 2), default=0)
    prefix = tuple(language.arity_count(i + 1) + 2 for i in range(1, mu))
    return Signature(prefix, 1)


def count_level_nodes(sig: Signature, shift: int, n: int) -> int:
    """Number of level-``n`` nodes: product of bound^(#tuples) over lengths,
    exact up to ``ESTIMATE_MAX`` and ``ESTIMATE_MAX`` above it."""
    check_natural(n, "level")
    check_natural(shift, "shift")
    return saturated_product((sig.bound(shift, l), comb(n, l))
                             for l in sig.tracked_lengths(shift, n))


def count_tree_nodes(sig: Signature, shift: int, height: int) -> int:
    """Number of nodes of level below ``height``, saturated like
    ``count_level_nodes``."""
    check_natural(height, "height")
    if next(sig.tracked_lengths(shift, height - 1), None) is None:
        return min(height, ESTIMATE_MAX)   # each level holds just the zero node
    total = 0
    for m in range(height):
        total = min(total + count_level_nodes(sig, shift, m), ESTIMATE_MAX)
        if total == ESTIMATE_MAX:
            break
    return total


def tuple_colour(nodes: list[ValuationFunction]) -> int:
    """Value the top node reads at the levels of the rest (their relation
    colour in the induced hypergraph; 0 and bound-1 both encode non-relation)."""
    levels = [f.level for f in nodes]
    if any(levels[i] <= levels[i + 1] for i in range(len(levels) - 1)):
        raise ValueError("nodes must have strictly decreasing levels")
    if any(f.shift != nodes[0].shift for f in nodes):
        raise ValueError("nodes must come from one tree")
    return nodes[0].value(tuple(levels[1:]))
