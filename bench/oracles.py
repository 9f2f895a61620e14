"""Independent oracles for the benchmark's output checks.

Nothing here imports ``brt``: structures are the JSON dictionaries of the
``brt-structure/1`` schema and valuation functions are ``(level, values)``
pairs, where ``values`` maps strictly decreasing tuples to nonzero values.
Each oracle recomputes a result from the definitions by brute force, so a
check that compares ``brt`` output with an oracle does not share code with
the program under test.
"""

from __future__ import annotations

import itertools
from math import comb, prod


# --- structures ---------------------------------------------------------------


def relation_map(sj: dict) -> dict[tuple[int, ...], str]:
    """Hypergraph relations as a map from sorted vertex tuple to symbol."""
    out = {}
    for name, tuples in sj.get("relations", {}).items():
        for t in tuples:
            out[tuple(sorted(t))] = name
    return out


def arities(sj: dict) -> list[int]:
    return sorted({s["arity"] for s in sj["language"]["symbols"]})


def induced_on(rel: dict, combo, ars) -> dict[tuple[int, ...], str]:
    """Relations of a hypergraph on the vertex tuple ``combo``, renumbered
    along it; only sub-tuples of ``combo`` of the given arities are looked up."""
    out = {}
    for r in ars:
        for idx in itertools.combinations(range(len(combo)), r):
            name = rel.get(tuple(combo[i] for i in idx))
            if name is not None:
                out[idx] = name
    return out


def embeddings(a: dict, b: dict) -> list[tuple[int, ...]]:
    """All strictly increasing maps of hypergraph ``a`` into ``b`` that
    preserve and reflect every relation."""
    a_rel, b_rel = relation_map(a), relation_map(b)
    ars = [r for r in arities(b) if r <= a["size"]]
    return [combo for combo in itertools.combinations(range(b["size"]), a["size"])
            if induced_on(b_rel, combo, ars) == a_rel]


def strip(m: dict, family: list[dict]) -> dict[tuple[int, ...], str]:
    """Relations of ``m`` left after removing every tuple (arity above one)
    whose support contains a vertex set inducing a member of ``family``."""
    rel = relation_map(m)
    ars = arities(m)
    bad_types = {(f["size"], frozenset(relation_map(f).items())) for f in family}
    sizes = sorted({f["size"] for f in family})

    def bad(sub) -> bool:
        return (len(sub), frozenset(induced_on(rel, sub, ars).items())) in bad_types

    return {t: name for t, name in rel.items()
            if len(t) < 2 or not any(bad(sub) for size in sizes if size <= len(t)
                                     for sub in itertools.combinations(t, size))}


def copy_types(m: dict, family: list[dict], a: dict) -> list[tuple]:
    """Distinct pre-stripping types over copies of ``a`` in the stripped
    structure, as sorted canonical keys ``(size, sorted relations)``."""
    stripped = {"size": m["size"], "language": m["language"],
                "relations": _relations_json(strip(m, family))}
    rel, ars = relation_map(m), arities(m)
    return sorted({(len(emb), tuple(sorted(induced_on(rel, emb, ars).items())))
                   for emb in embeddings(a, stripped)})


def _relations_json(rel: dict) -> dict[str, list]:
    out: dict[str, list] = {}
    for t, name in sorted(rel.items()):
        out.setdefault(name, []).append(list(t))
    return out


def forbidden_free(sj: dict, family: list[dict]) -> bool:
    """No vertex set of ``sj`` induces a member of ``family``."""
    rel, ars = relation_map(sj), arities(sj)
    return not any(induced_on(rel, combo, ars) == want
                   for f, want in ((f, relation_map(f)) for f in family)
                   for combo in itertools.combinations(range(sj["size"]), f["size"]))


def seq_colour(t) -> int:
    """Colour of a node of the sequence tree: the weight (length plus entry
    sum) of its shortest initial segment reaching its length, minus the length."""
    n = len(t)
    return next(cut + sum(t[:cut]) - n for cut in range(n + 1) if cut + sum(t[:cut]) >= n)


# --- valuation functions ------------------------------------------------------


def sig_bound(prefix: tuple[int, ...], tail: int, i: int) -> int:
    """Signature entry for tuples of length ``i`` (1-based)."""
    return prefix[i - 1] if i <= len(prefix) else tail


def level_count(prefix, tail, n: int) -> int:
    """Number of level-``n`` nodes of the shift-0 tree."""
    return prod(sig_bound(prefix, tail, l) ** comb(n, l) for l in range(1, n + 1))


def prefix_count(prefix, tail, height: int) -> int:
    return sum(level_count(prefix, tail, m) for m in range(height))


def level_tuples(n: int, prefix, tail) -> list[tuple[int, ...]]:
    """Decreasing tuples below ``n`` with a bound above one, in (length, lex) order."""
    out = []
    for l in range(1, n + 1):
        if sig_bound(prefix, tail, l) > 1:
            out.extend(sorted(tuple(sorted(c, reverse=True))
                              for c in itertools.combinations(range(n), l)))
    return out


def level(prefix, tail, n: int):
    """Every level-``n`` node as ``(n, sorted entries)``, in node order (the
    value vector read in (length, lex) tuple order), generated lazily."""
    ts = level_tuples(n, prefix, tail)
    for vec in itertools.product(*(range(sig_bound(prefix, tail, len(t))) for t in ts)):
        yield n, tuple((t, v) for t, v in zip(ts, vec) if v)


def full_prefix(prefix, tail, height: int) -> list[tuple[int, tuple]]:
    """Every node of level below ``height``, in node order."""
    return [node for n in range(height) for node in level(prefix, tail, n)]


def pattern_count(prefix, tail, height: int, size: int, colours: dict) -> int:
    """Monotone copies of a hypergraph pattern in the hypergraph induced on
    the full tree prefix of the given height.

    ``colours`` maps each related index tuple of the pattern to
    ``(arity, colour)``; a set of nodes with distinct levels is related with
    the colour its top node reads at the others' levels, when that colour
    lies in ``1..bound-2``.
    """
    nodes = full_prefix(prefix, tail, height)
    values = [dict(vals) for _, vals in nodes]
    levels = [lvl for lvl, _ in nodes]

    def colour(idx) -> tuple[int, int] | None:
        if len({levels[i] for i in idx}) != len(idx):
            return None
        order = sorted(idx, key=lambda i: -levels[i])
        c = values[order[0]].get(tuple(levels[i] for i in order[1:]), 0)
        if 1 <= c <= sig_bound(prefix, tail, len(idx) - 1) - 2:
            return (len(idx), c)
        return None

    count = 0
    for combo in itertools.combinations(range(len(nodes)), size):
        ok = True
        for r in range(2, size + 1):
            for sub in itertools.combinations(range(size), r):
                if colour(tuple(combo[i] for i in sub)) != colours.get(sub):
                    ok = False
                    break
            if not ok:
                break
        count += ok
    return count


def envelope_height_bound(k: int) -> int:
    """Sum of the cascade's per-stage level budgets over ``k+1`` stages."""
    total, a = 0, 2 * k - 1
    for _ in range(k + 1):
        total += a
        a = 2 * a - 1
    return total if k else 0


def structural_violations(mapping: list, limit: int | None = None, rng=None) -> int:
    """Count decreasing-level node tuples on which ``mapping`` breaks the
    structural identity (the top node's value at the lower levels is kept).

    ``mapping`` lists ``((level, entries), (level, entries))`` pairs.  With a
    ``limit``, that many tuples are drawn at random instead of all of them.
    """
    dom = [(lvl, dict(vals)) for (lvl, vals), _ in mapping]
    img = [(lvl, dict(vals)) for _, (lvl, vals) in mapping]
    by_level: dict[int, list[int]] = {}
    for i, (lvl, _) in enumerate(dom):
        by_level.setdefault(lvl, []).append(i)
    ordered = sorted(by_level, reverse=True)

    def broken(idx) -> bool:
        top, rest = idx[0], idx[1:]
        want = dom[top][1].get(tuple(dom[i][0] for i in rest), 0)
        got = img[top][1].get(tuple(img[i][0] for i in rest), 0)
        return want != got

    bad = 0
    if limit is None:
        for r in range(2, len(ordered) + 1):
            for lv in itertools.combinations(ordered, r):
                for idx in itertools.product(*(by_level[l] for l in lv)):
                    bad += broken(idx)
        return bad
    for _ in range(limit):
        r = rng.randint(2, len(ordered))
        lv = sorted(rng.sample(ordered, r), reverse=True)
        bad += broken([rng.choice(by_level[l]) for l in lv])
    return bad
