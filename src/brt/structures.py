"""Enumerated relational languages, finite structures and their embeddings.

Every structure lives on the vertex set ``{0, ..., size-1}`` and carries the
implicit order of the naturals; all embeddings are strictly increasing vertex
maps that preserve and reflect relations.  Hypergraph-flagged structures keep
their relations as sorted vertex tuples (injective, symmetric, at most one
relation per arity on a vertex set).
"""

from __future__ import annotations

import itertools
import random
import re
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from math import comb

from .errors import LanguageMismatchError

_NAT_SPLIT = re.compile(r"(\d+)")


def _natural_key(name: str) -> tuple:
    return tuple(int(p) if p.isdigit() else p for p in _NAT_SPLIT.split(name))


def countable_symbol_name(arity: int, index: int) -> str:
    """Canonical name of the index-th lazily instantiated symbol of an arity."""
    if arity == 1:
        return f"u{index}"
    return f"r{arity}c{index}"


def _name_index(arity: int, name: str) -> int | None:
    """The index ``i`` with ``countable_symbol_name(arity, i) == name``, if any."""
    digits = _NAT_SPLIT.split(name)[-2:-1]
    if digits and countable_symbol_name(arity, int(digits[0])) == name:
        return int(digits[0])
    return None


def _symbol_key(symbol: tuple[str, int]) -> tuple:
    """Canonical symbol order: arity, then the name's natural order."""
    return (symbol[1], _natural_key(symbol[0]))


@dataclass(frozen=True)
class RelationalLanguage:
    """A relational language: named symbols with arities >= 1.

    ``countable_arities`` marks arities whose symbol supply is countably
    infinite; only a finite prefix is ever materialised (symbols are named by
    :func:`countable_symbol_name` and instantiated on first reference).
    """

    symbols: tuple[tuple[str, int], ...]
    countable_arities: frozenset[int] = frozenset()

    def __post_init__(self):
        names = [n for n, _ in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be unique")
        if any(a < 1 for _, a in self.symbols):
            raise ValueError("arities must be >= 1")
        canon = tuple(sorted(self.symbols, key=_symbol_key))
        object.__setattr__(self, "symbols", canon)
        # name -> (arity, colour): the index in the name for a countable
        # arity (None if it has none), else the 1-based rank in the arity
        object.__setattr__(self, "_place", {
            n: (a, _name_index(a, n) if a in self.countable_arities else rank)
            for _, group in itertools.groupby(canon, key=lambda s: s[1])
            for rank, (n, a) in enumerate(group, 1)})

    @property
    def countable_unaries(self) -> bool:
        return 1 in self.countable_arities

    def arity_of(self, name: str) -> int:
        return self._place[name][0]

    def colour_of(self, name: str) -> int:
        """The colour a symbol codes within its arity: the index in its
        :func:`countable_symbol_name` for a countable arity (``ValueError``
        if the name is no such name), else its 1-based rank in its arity."""
        arity, colour = self._place[name]
        if colour is None:
            raise ValueError(f"symbol {name} of countable arity {arity} is not named by an index")
        return colour

    def symbols_of_arity(self, arity: int) -> tuple[str, ...]:
        return tuple(n for n, a in self.symbols if a == arity)

    def arity_count(self, arity: int) -> int:
        """n_i: the number of symbols of the given arity."""
        return len(self.symbols_of_arity(arity))

    @property
    def arities(self) -> tuple[int, ...]:
        present = {a for _, a in self.symbols} | set(self.countable_arities)
        return tuple(sorted(present))

    def with_symbols(self, *symbols: tuple[str, int]) -> "RelationalLanguage":
        """This language plus each ``(name, arity)`` whose name is new, placed by
        bisection; only the colours of the touched arities are recomputed."""
        fresh: dict[str, int] = {}
        for name, arity in symbols:
            if name not in self._place:
                fresh.setdefault(name, arity)
        if not fresh:
            return self
        if min(fresh.values()) < 1:
            raise ValueError("arities must be >= 1")
        symbols = tuple(_placed(self.symbols, fresh.items(), _symbol_key))
        place = dict(self._place)
        place.update((n, (a, _name_index(a, n))) for n, a in fresh.items()
                     if a in self.countable_arities)
        for arity in set(fresh.values()) - self.countable_arities:
            group = [n for n, a in symbols if a == arity]
            place.update((n, (arity, rank)) for rank, n in enumerate(group, 1))
        lang = object.__new__(RelationalLanguage)
        object.__setattr__(lang, "symbols", symbols)
        object.__setattr__(lang, "countable_arities", self.countable_arities)
        object.__setattr__(lang, "_place", place)
        return lang


def _placed(items, fresh, key) -> list:
    """The sorted ``items`` with each fresh one inserted in turn by ``bisect_right``."""
    out = list(items)
    for item in fresh:
        k = key(item)
        if out and k < key(out[-1]):
            out.insert(bisect_right(out, k, key=key), item)
        else:
            out.append(item)
    return out


def make_language(*symbols: tuple[str, int],
                  countable_arities: frozenset[int] | set[int] = frozenset()
                  ) -> RelationalLanguage:
    return RelationalLanguage(tuple(symbols), frozenset(countable_arities))


def graph_language() -> RelationalLanguage:
    return make_language(("e", 2))


def uniform_language(arity: int) -> RelationalLanguage:
    return make_language((f"r{arity}", arity))


@dataclass(frozen=True)
class EnumeratedStructure:
    """A finite structure on the vertex set ``{0, ..., size-1}``.

    Relations are stored canonically: a tuple of ``(name, tuples)`` pairs in
    the natural order of names (``e2`` before ``e10``), with the tuples
    themselves sorted.  Hypergraph-flagged structures store
    each related vertex set once, as an increasing tuple.
    """

    language: RelationalLanguage
    size: int
    relations: tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]
    hypergraph: bool = False

    def __post_init__(self):
        for _ in _checked(self.language, self.size, self.relations, self.hypergraph):
            pass

    def rel(self, name: str) -> frozenset[tuple[int, ...]]:
        for n, tuples in self.relations:
            if n == name:
                return frozenset(tuples)
        return frozenset()

    def related(self, name: str, t: tuple[int, ...]) -> bool:
        """Whether ``t`` is a tuple of the named relation: its ``(name,
        positions)`` pair in the pattern at its support."""
        if self.hypergraph:
            t = tuple(sorted(t))
        support = tuple(sorted(set(t)))
        return (name, tuple(support.index(v) for v in t)) in self._index.patterns.get(support, ())

    def relation_items(self):
        for name, tuples in self.relations:
            for t in tuples:
                yield name, t

    @cached_property
    def _index(self) -> "_SupportIndex":
        return _SupportIndex(self)

    def type_on(self, vertices) -> tuple:
        """The induced type on a vertex set: exactly ``induced(vertices).relations``,
        read off the support index without building a structure."""
        vs = sorted(vertices)
        idx = self._index
        found = []
        for k, supports in idx.by_size.items():
            if k > len(vs):
                continue
            if comb(len(vs), k) <= len(supports):
                for sub in itertools.combinations(vs, k):
                    if sub in idx.patterns:
                        found.append(sub)
            else:
                keep = set(vs)
                found.extend(sub for sub in supports if keep.issuperset(sub))
        if not found:
            return ()
        rank = {v: i for i, v in enumerate(vs)}
        order = idx.name_order
        items = sorted((order[name], tuple(rank[sub[p]] for p in pos), name)
                       for sub in found for name, pos in idx.patterns[sub])
        return tuple((name, tuple(t for _, t, _ in group))
                     for name, group in itertools.groupby(items, key=lambda item: item[2]))

    def induced(self, vertices) -> "EnumeratedStructure":
        """Induced substructure, renumbered along the increasing vertex map."""
        vs = sorted(vertices)
        return EnumeratedStructure(self.language, len(vs), self.type_on(vs), self.hypergraph)

    def canonical_key(self):
        return (self.size, self.hypergraph, self.relations)


def _checked(language: RelationalLanguage, size: int, relations, hypergraph: bool):
    """Yield each tuple of the ``(name, tuples)`` pairs once it passes the
    checks every structure's tuples share: a symbol of the language, its
    arity, vertices in range and, in a hypergraph, injective, sorted and one
    relation per vertex set.  The first tuple that fails raises its first
    failed check."""
    seen: set[tuple[int, ...]] = set()
    for name, tuples in relations:
        try:
            arity = language.arity_of(name)
        except KeyError:
            raise ValueError(f"the language has no symbol {name}") from None
        for t in tuples:
            if len(t) != arity:
                raise ValueError(f"tuple {t} has wrong arity for {name}")
            if any(not 0 <= v < size for v in t):
                raise ValueError(f"tuple {t} out of range")
            if hypergraph:
                if len(set(t)) != arity:
                    raise ValueError(f"hypergraph tuple {t} not injective")
                if tuple(sorted(t)) != t:
                    raise ValueError(f"hypergraph tuple {t} not sorted")
                if t in seen:
                    raise ValueError(f"vertex set {t} in two relations of arity {arity}")
                seen.add(t)
            yield t


class _SupportIndex:
    """The relation tuples of a structure grouped by support, the increasing
    tuple of their distinct vertices.  Each support maps to its pattern: the
    sorted ``(name, positions)`` pairs that spell its tuples as positions in
    the support, so two supports carry the same relations along the
    increasing map between them exactly when their patterns are equal.  A
    hypergraph has one pair per support."""

    def __init__(self, structure: EnumeratedStructure):
        self.patterns = {}
        self.by_size: dict[int, list[tuple[int, ...]]] = {}
        if structure.hypergraph:
            # each tuple is its own support, spelled by its symbol at
            # positions 0, 1, ...: one shared pattern per symbol
            for name, tuples in structure.relations:
                arity = structure.language.arity_of(name)
                self.patterns.update(dict.fromkeys(tuples, ((name, tuple(range(arity))),)))
                self.by_size.setdefault(arity, []).extend(tuples)
        else:
            grouped: dict[tuple[int, ...], list] = {}
            for name, t in structure.relation_items():
                support = tuple(sorted(set(t)))
                grouped.setdefault(support, []).append(
                    (name, tuple(support.index(v) for v in t)))
            # equal patterns share one tuple
            shared: dict[tuple, tuple] = {}
            for s, pairs in grouped.items():
                pattern = tuple(sorted(pairs))
                self.patterns[s] = shared.setdefault(pattern, pattern)
            for s in self.patterns:
                self.by_size.setdefault(len(s), []).append(s)
        # position of each symbol in the structure's canonical relation order
        self.name_order = {name: i for i, (name, _) in enumerate(structure.relations)}


def _derived(parent: EnumeratedStructure, language: RelationalLanguage,
             grown: list[dict[str, list[tuple[int, ...]]]]) -> EnumeratedStructure:
    """The trusted constructor for growth: the hypergraph ``parent`` plus a
    vertex per entry of ``grown``, whose tuples it lists by name (each list
    sorted and nonempty, ``language`` a superset of the parent's).  Only the
    new tuples are checked, each vertex's as if it were the last, by
    ``_checked`` and for containing the vertex.  The parent's index is copied
    once and extended.  The fields are set without ``__post_init__``; other
    structures go through ``make_structure``, ``brt.io`` or the dataclass."""
    merged: dict[str, list] = {}
    for new, added in enumerate(grown, parent.size):
        for t in _checked(language, new + 1, added.items(), True):
            if t[-1] != new:
                raise ValueError(f"tuple {t} does not contain the new vertex {new}")
        for name, tuples in added.items():
            merged.setdefault(name, []).extend(tuples)
    old = parent._index
    index = object.__new__(_SupportIndex)
    index.patterns = dict(old.patterns)
    relations, fresh, supports = list(parent.relations), [], {}
    for name, tuples in merged.items():
        at = old.name_order.get(name)
        if at is None:
            fresh.append((name, tuple(sorted(tuples))))
            pattern = ((name, tuple(range(len(tuples[0])))),)
        else:
            have = relations[at][1]
            relations[at] = (name, tuple(sorted(have + tuple(tuples))))
            # every support of a hypergraph symbol shares its one-pair pattern
            pattern = old.patterns[have[0]]
        index.patterns.update(dict.fromkeys(tuples, pattern))
        supports.setdefault(len(tuples[0]), []).extend(tuples)
    index.by_size = {**old.by_size, **{k: old.by_size.get(k, []) + tuples
                                       for k, tuples in supports.items()}}
    if fresh:
        relations = _placed(relations, fresh, lambda r: _natural_key(r[0]))
    index.name_order = {n: i for i, (n, _) in enumerate(relations)} if fresh else old.name_order
    out = object.__new__(EnumeratedStructure)
    for field, value in (("language", language), ("size", parent.size + len(grown)),
                         ("relations", tuple(relations)), ("hypergraph", True),
                         ("_index", index)):
        object.__setattr__(out, field, value)
    return out


def make_structure(language: RelationalLanguage, size: int,
                   relations: dict[str, object] | None = None,
                   hypergraph: bool = False) -> EnumeratedStructure:
    """Build a structure from a ``{name: iterable of tuples}`` mapping."""
    relations = relations or {}
    canon = []
    for name in sorted(relations, key=_natural_key):
        tuples = relations[name]
        if hypergraph:
            pool = {tuple(sorted(t)) for t in tuples}
        else:
            pool = {tuple(t) for t in tuples}
        if pool:
            canon.append((name, tuple(sorted(pool))))
    return EnumeratedStructure(language, size, tuple(canon), hypergraph)


def enumerate_embeddings(a: EnumeratedStructure, b: EnumeratedStructure
                         ) -> list[tuple[int, ...]]:
    """All monotone embeddings of ``a`` into ``b``, in lexicographic order.

    An embedding is a strictly increasing vertex map under which the induced
    substructure of ``b`` on the image equals ``a`` (relations are preserved
    and reflected).  The search extends increasing partial maps one source
    vertex at a time and keeps the images left for vertex ``i`` as a bit
    mask over ``b``'s vertices.  Each support ``s`` of ``b`` sets bit
    ``s[-1]`` in a mask keyed by ``s[:-1]`` and in one keyed by ``s[:-1]``
    and its pattern: a support of ``a`` at ``i`` intersects the window with
    the mask of its image and pattern, and a set that ``a`` leaves unrelated
    at ``i`` removes the mask of its image.  When ``a`` leaves more sets
    unrelated at ``i`` than ``b`` has supports in the window, each candidate
    instead counts ``b``'s supports at it inside the image.
    """
    if a.language != b.language:
        raise LanguageMismatchError("embedding between different languages")
    n, m = a.size, b.size
    if n == 0:
        return [()]
    if m < n:
        return []
    # bit s[-1] for each support s of b: keyed by s[:-1] within the table of
    # its pattern, and by s[:-1] alone; and each s[:-1] by top vertex
    by_pattern: dict[tuple, dict[tuple[int, ...], int]] = {}
    any_top: dict[tuple[int, ...], int] = {}
    b_top: list[list[tuple[int, ...]]] = [[] for _ in range(m)]
    for s, pat in b._index.patterns.items():
        rest, top = s[:-1], s[-1]
        bit = 1 << top
        table = by_pattern.setdefault(pat, {})
        table[rest] = table.get(rest, 0) | bit
        any_top[rest] = any_top.get(rest, 0) | bit
        b_top[top].append(rest)
    # below[w]: the supports of b whose largest vertex is below w
    below = list(itertools.accumulate(map(len, b_top), initial=0))
    # a's supports at each top vertex, as (rest, b's table of their pattern)
    a_pat = a._index.patterns
    a_top: list[list] = [[] for _ in range(n)]
    for s, pat in a_pat.items():
        a_top[s[-1]].append((s[:-1], by_pattern.get(pat, {})))
    # sets of earlier source vertices that a leaves unrelated at i, only in
    # the sizes of b's supports; built on first use
    sizes = sorted(b._index.by_size)
    lookups = [sum(comb(i, k - 1) for k in sizes) for i in range(n)]
    unrelated: list[list | None] = [None] * n
    out: list[tuple[int, ...]] = []

    def extend(i: int, lo: int, phi: tuple[int, ...]) -> None:
        hi = m - n + i
        cand = (2 << hi) - (1 << lo)
        for rest, table in a_top[i]:
            cand &= table.get(tuple([phi[v] for v in rest]), 0)
            if not cand:
                return
        if lookups[i] <= len(a_top[i]) + below[hi + 1] - below[lo]:
            if unrelated[i] is None:
                unrelated[i] = [rest for k in sizes
                                for rest in itertools.combinations(range(i), k - 1)
                                if rest + (i,) not in a_pat]
            for rest in unrelated[i]:
                cand &= ~any_top.get(tuple([phi[v] for v in rest]), 0)
            ws = _bits(cand)
        else:
            # a's supports at i map to distinct supports of b at w, so equal
            # counts rule out extra supports of b inside the image
            want, image = len(a_top[i]), set(phi)
            ws = [w for w in _bits(cand)
                  if sum(image.issuperset(rest) for rest in b_top[w]) == want]
        if i == n - 1:
            out.extend([phi + (w,) for w in ws])
        else:
            for w in ws:
                extend(i + 1, w + 1, phi + (w,))

    extend(0, 0, ())
    return out


def _bits(mask: int) -> list[int]:
    """The set bits of a nonnegative mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def gaifman_irreducible(f: EnumeratedStructure) -> bool:
    """True iff every vertex pair co-occurs in some related tuple."""
    pairs = set()
    for _, t in f.relation_items():
        for x, y in itertools.combinations(sorted(set(t)), 2):
            pairs.add((x, y))
    want = set(itertools.combinations(range(f.size), 2))
    return pairs >= want


def is_covered(f: EnumeratedStructure) -> bool:
    """True iff a single related tuple contains every vertex of ``f``."""
    return tuple(range(f.size)) in f._index.patterns


def forbidden_sets(structure: EnumeratedStructure, vertex_sets,
                   family: tuple[EnumeratedStructure, ...]) -> list:
    """The given vertex sets, in the given order, on which ``structure``
    induces a member of ``family``: a set of the member's size whose type is
    the member's relations.  A member covered by one relation tuple can only
    be induced on a support, so the supports are the sets worth passing."""
    members = {(f.size, f.relations) for f in family}
    sizes = {size for size, _ in members}
    return [vs for vs in vertex_sets
            if len(vs) in sizes and (len(vs), structure.type_on(vs)) in members]


# --- staged prefixes of universal structures ---------------------------------


def _slots(language: RelationalLanguage, base: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Relation slots for a one-point extension over ``base``.

    ``()`` is the unary slot for the new vertex; a nonempty subset ``y`` of
    the base stands for the candidate relation on ``y + (new,)``.
    """
    slots: list[tuple[int, ...]] = []
    if language.arity_count(1) or language.countable_unaries:
        slots.append(())
    for size in range(1, len(base) + 1):
        arity = size + 1
        if language.arity_count(arity) or arity in language.countable_arities:
            slots.extend(itertools.combinations(base, size))
    return slots


def _choice_bound(language: RelationalLanguage, arity: int, weight: int) -> int:
    if arity in language.countable_arities:
        return weight
    return language.arity_count(arity)


@dataclass(frozen=True)
class ExtensionRequest:
    """A one-point extension to realize: relation choices over a base set.

    ``choices`` maps each slot to a 1-based symbol index of the slot's arity
    (slots absent from the mapping stay unrelated).
    """

    base: tuple[int, ...]
    choices: tuple[tuple[tuple[int, ...], int], ...]

    @staticmethod
    def of(base, choices: dict) -> "ExtensionRequest":
        return ExtensionRequest(tuple(sorted(base)),
                                tuple(sorted(choices.items())))


@dataclass(frozen=True)
class GenericPrefix:
    """A finite, staged prefix of a universal forbidden-family-free hypergraph.

    The enumeration realises one-point extension types in a fixed round-robin
    order, so that every type over every finite substructure is eventually
    realised; targeted extensions can also be requested directly.  Extending
    never touches relations among existing vertices.
    """

    structure: EnumeratedStructure
    forbidden: tuple[EnumeratedStructure, ...] = ()
    log: tuple[tuple[tuple[int, ...], tuple, int], ...] = ()

    def __post_init__(self):
        if not self.structure.hypergraph:
            raise ValueError("generic prefixes are hypergraphs")
        for f in self.forbidden:
            if not is_covered(f):
                raise ValueError("forbidden structures must be covered by a relation")

    @property
    def language(self) -> RelationalLanguage:
        return self.structure.language

    @property
    def size(self) -> int:
        return self.structure.size

    def realized(self) -> set[tuple[tuple[int, ...], tuple]]:
        return {(base, choices) for base, choices, _ in self.log}

    def realize(self, *requests: ExtensionRequest) -> "GenericPrefix":
        """Append a fresh vertex per request, in order, realising its extension
        type; a base may name vertices of earlier requests.  Raises when one
        request at a time would, with its message if one request fails."""
        lang, fresh, grown, log = self.language, [], [], []
        for new, request in enumerate(requests, self.size):
            if any(not 0 <= v < new for v in request.base):
                raise ValueError("extension base must be existing vertices")
            added: dict[str, set] = {}
            for slot, idx in request.choices:
                if idx == 0:
                    continue
                arity = len(slot) + 1
                if arity in lang.countable_arities:
                    name = countable_symbol_name(arity, idx)
                    fresh.append((name, arity))
                else:
                    pool = lang.symbols_of_arity(arity)
                    if not 1 <= idx <= len(pool):
                        raise ValueError(f"no symbol #{idx} of arity {arity}")
                    name = pool[idx - 1]
                added.setdefault(name, set()).add(tuple(sorted(slot + (new,))))
            grown.append({name: sorted(tuples) for name, tuples in added.items()})
            log.append((request.base, request.choices, new))
        candidate = _derived(self.structure, lang.with_symbols(*fresh), grown)
        # a covered forbidden member can only be induced on a new tuple
        if self.forbidden and forbidden_sets(
                candidate, [t for g in grown for ts in g.values() for t in ts], self.forbidden):
            raise ValueError("requested extension is not forbidden-family-free")
        return replace(self, structure=candidate, log=self.log + tuple(log))

    def slot_choice(self, slot: tuple[int, ...], v: int) -> int:
        """1-based symbol index relating ``slot + (v,)``, or 0 if unrelated.

        A hypergraph relates a vertex set by at most one symbol of its
        arity: the one pair of the pattern at that set."""
        pattern = self.structure._index.patterns.get(tuple(sorted(slot + (v,))))
        if pattern is None:
            return 0
        return self.language.colour_of(pattern[0][0])

    def find_vertex(self, request: ExtensionRequest) -> int | None:
        """Existing vertex realising the extension type, if any (above the base)."""
        want: dict[tuple[int, ...], int] = dict(request.choices)
        base = request.base
        slots = _slots(self.language, base)
        for v in range(max(base) + 1 if base else 0, self.size):
            if all(self.slot_choice(s, v) == want.get(s, 0) for s in slots):
                return v
        return None

    def _pairs_of_weight(self, weight: int):
        """Deterministic block of (base, choices) pairs at a given weight."""
        lang = self.language
        top = min(weight, self.size)
        bases = [()]
        for s in range(1, top + 1):
            bases.extend(itertools.combinations(range(top), s))
        for base in bases:
            slots = _slots(lang, base)
            ranges = [range(min(_choice_bound(lang, len(s) + 1, weight), weight) + 1)
                      for s in slots]
            for vector in itertools.product(*ranges):
                pair_weight = max([1, (max(base) + 1 if base else 0), *vector])
                if pair_weight != weight:
                    continue
                choices = tuple((s, v) for s, v in zip(slots, vector) if v)
                yield base, choices


# The staged enumeration looks for an unrealised extension type up to this weight.
MAX_WEIGHT = 64


def generic_extend(prefix: GenericPrefix, rounds: int,
                   seed: int | None = None) -> GenericPrefix:
    """Run the staged enumeration: each round realises the next unrealised
    extension type in the fixed (weight, base, choice-vector) order.

    With a seed, each round instead draws uniformly from the unrealised pairs
    of the lowest weight that has any (a fuzzing mode; still reproducible).
    """
    rng = random.Random(seed) if seed is not None else None
    cur = prefix
    for _ in range(rounds):
        done = cur.realized()
        pick = None
        for weight in range(1, MAX_WEIGHT + 1):
            fresh = [p for p in cur._pairs_of_weight(weight) if p not in done]
            if fresh:
                pick = fresh[0] if rng is None else rng.choice(fresh)
                break
        if pick is None:
            raise RuntimeError(f"no unrealised extension within weight {MAX_WEIGHT}")
        base, choices = pick
        try:
            cur = cur.realize(ExtensionRequest(base, choices))
        except ValueError:
            # not forbidden-family-free: mark realised so the scan moves on
            cur = replace(cur, log=cur.log + ((base, choices, -1),))
    return cur


def empty_prefix(language: RelationalLanguage,
                 forbidden: tuple[EnumeratedStructure, ...] = ()) -> GenericPrefix:
    return GenericPrefix(make_structure(language, 0, {}, hypergraph=True), forbidden)
