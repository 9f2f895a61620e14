"""Induced colourings of witnesses and the bounded monochromatic-witness
search, used by the tests only.

The search scans explicit strong subtrees of a finitely branching node tree
to a fixed depth; it cannot check Milliken's theorem, only exercise the tree
machinery on small cases.
"""

import itertools
from dataclasses import dataclass

from brt.trees import (
    DEFAULT_CAP,
    ExplicitCoordinate,
    StrongSubtreeWitness,
    build_valuation_tree,
    coordinate_nodes,
    immediate_successors,
    level_nodes,
    sort_nodes,
    structural_embedding,
    successors_at,
)
from brt.valuation import Signature, ValuationFunction


def induced_colouring(witness: StrongSubtreeWitness, chi, copies,
                      cap: int = DEFAULT_CAP) -> tuple:
    """Colour a witness by the tuple of colours its valuation tree gives to
    the listed copies, composed through the structural embedding."""
    tree = build_valuation_tree(witness, cap=cap)
    emb = structural_embedding(tree, cap)
    domain = sort_nodes([f for m in range(tree.height)
                         for f in level_nodes(tree.sig, 0, m, cap)])
    return tuple(chi(tuple(emb[domain[v]] for v in copy)) for copy in copies)


@dataclass
class ExhaustionReport:
    """Outcome of a bounded search that ran out of room."""

    searched: int
    depth: int
    frontier: str


@dataclass
class WitnessSnapshot:
    """A fully materialised strong vector subtree: levels and node tiers."""

    sig: Signature
    levels: tuple[int, ...]
    tiers: tuple[tuple[tuple[ValuationFunction, ...], ...], ...]

    @property
    def nodes(self) -> list[ValuationFunction]:
        return [f for coord in self.tiers for tier in coord for f in tier]


def snapshot(witness: StrongSubtreeWitness, cap: int = DEFAULT_CAP) -> WitnessSnapshot:
    tiers = tuple(tuple(tuple(tier) for tier in coordinate_nodes(c, witness.levels, cap))
                  for c in witness.coords)
    return WitnessSnapshot(witness.sig, witness.levels, tiers)


def _coordinate_variants(sig: Signature, shift: int, levels: tuple[int, ...], cap: int):
    """All explicit strong-subtree coordinates on the given levels."""

    def expand(j, tier, selections):
        if j == len(levels) - 1:
            yield selections
            return
        slots = [(s, t) for s in tier for t in immediate_successors(s, cap)]
        options = [successors_at(t, levels[j + 1], cap) for _, t in slots]
        for combo in itertools.product(*options):
            sel = dict(selections)
            sel.update(zip(slots, combo))
            yield from expand(j + 1, list(combo), sel)

    for root in level_nodes(sig, shift, levels[0], cap):
        for sel in expand(0, [root], {}):
            yield ExplicitCoordinate(root, sel)


def subtree_snapshots(snap: WitnessSnapshot, k: int):
    """All strong vector subtrees of height ``k`` inside a materialised
    witness, as snapshots.  Directions are immediate successors inside the
    witness; each direction contributes exactly one node of the subtree."""
    height = len(snap.levels)
    for picks in itertools.combinations(range(height), k):
        sub_levels = tuple(snap.levels[j] for j in picks)

        def coord_subs(ci):
            nodes = snap.tiers[ci]

            def build(j, tier):
                if j == k - 1:
                    yield [tuple(tier)]
                    return
                slots = []
                for s in tier:
                    dirs = sorted({c.restrict(s.level + 1)
                                   for c in nodes[picks[j] + 1] if c.extends(s)},
                                  key=lambda f: f.values)
                    for t in dirs:
                        cands = sorted((c for c in nodes[picks[j + 1]] if c.extends(t)),
                                       key=lambda f: f.values)
                        slots.append(cands)
                for combo in itertools.product(*slots):
                    for rest in build(j + 1, list(combo)):
                        yield [tuple(tier)] + rest

            for root in nodes[picks[0]]:
                yield from build(0, [root])

        for combo in itertools.product(*(coord_subs(i) for i in range(len(snap.tiers)))):
            yield WitnessSnapshot(snap.sig, sub_levels,
                                  tuple(tuple(tiers) for tiers in combo))


def milliken_search(sig, dimension: int, k: int, depth: int, colouring,
                    height: int | None = None, cap: int = 200_000):
    """Bounded search for a witness whose height-``k`` subtrees all get one
    colour under ``colouring`` (a function of snapshots).

    Only finitely branching signature trees are searchable; passing anything
    else is a type error.  The witness space is scanned to the given depth in
    a fixed order and an exhaustion report is returned when nothing
    monochromatic fits or the cap is reached.
    """
    if not isinstance(sig, Signature):
        raise TypeError("search requires a finitely branching signature tree")
    if height is None:
        height = max(k, 1) + 1
    if height < k:
        raise ValueError("height below k")
    searched = 0
    for levels in itertools.combinations(range(depth), height):
        variants = [_coordinate_variants(sig, i, levels, cap) for i in range(dimension)]
        for combo in itertools.product(*variants):
            witness = StrongSubtreeWitness(sig, levels, tuple(combo))
            searched += 1
            if searched > cap:
                return ExhaustionReport(searched, depth, "search cap reached")
            snap = snapshot(witness, cap)
            colours = {colouring(sub) for sub in subtree_snapshots(snap, k)}
            if len(colours) <= 1:
                return witness
    return ExhaustionReport(searched, depth,
                            f"all level sets of height {height} within depth {depth}")
