"""The benchmark's workloads: fixed task batches generated from a seed.

A task is one ``brt`` invocation driven in-process through
``brt.cli.main(argv)``, or one call to a public library function the CLI
does not expose.  Every task carries its sweep point (signature, vertex
count, subset size, height), the exit code it must return, an input
fingerprint that keys its golden output digest, and a semantic check backed
by the independent oracles in ``oracles.py``.

Library calls look their function up on the ``brt`` module at call time, so
the tracer's rebinding reaches them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from brt import reductions, structures, trees, valuation
from brt import io as bio

import oracles

# Large materialised trees are checked on a seeded sample of this many nodes.
CHECK_SAMPLE = 48


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class Task:
    """One unit of work: a CLI argv or a library call, plus how to judge it."""

    name: str
    point: dict
    ident: str
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    render: Callable[[object], str] | None = None
    expect: int = 0
    check: Callable[[str, str, object], str | None] | None = None

    @property
    def golden_key(self) -> str:
        return digest(self.ident)

    @property
    def point_key(self) -> str:
        return " ".join(f"{k}={self.point[k]}" for k in sorted(self.point))


@dataclass
class Batch:
    """A workload's task list and the input files it reads."""

    workdir: str
    tasks: list[Task] = field(default_factory=list)
    labels: dict[str, str] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def write(self, name: str, obj) -> str:
        """Write an input file; tasks name it by path, goldens by content."""
        text = canonical(obj)
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.labels[path] = name
        self.digests[path] = digest(text)
        return path

    def cli(self, argv: list[str], point: dict, check=None, expect: int = 0) -> None:
        shown = [self.labels.get(a, a) for a in argv]
        ident = " ".join(["cli"] + ["@" + self.digests[a] if a in self.digests else a
                                    for a in argv])
        self.tasks.append(Task(" ".join(shown), dict(point, kind=argv[0]), ident,
                               argv=list(argv), expect=expect, check=check))

    def lib(self, name: str, point: dict, ident: str, call, render, check=None) -> None:
        self.tasks.append(Task(f"{name} {ident}", dict(point, kind=name), f"lib {name} {ident}",
                               call=call, render=render, check=check))


# --- input generation ---------------------------------------------------------


GRAPH = structures.graph_language()
TWO_COLOUR = structures.make_language(("a", 2), ("b", 2))
TERNARY = structures.uniform_language(3)
MIXED = structures.make_language(("e", 2), ("t", 3))


def staged_prefix(lang, n: int):
    """The staged generic prefix in its fixed round-robin order, cut to
    exactly ``n`` vertices."""
    prefix = structures.empty_prefix(lang)
    while prefix.size < n:
        prefix = structures.generic_extend(prefix, 1)
    return prefix.structure.induced(range(n))


def random_hypergraph(lang, n: int, rng: random.Random, density: float):
    """A share ``density`` of the vertex sets of each populated arity, drawn
    at random, each in one random symbol of that arity.  The relation count
    is fixed by the size, so seeds change the structure but not its bulk."""
    rels: dict[str, list] = {}
    for arity in sorted({a for _, a in lang.symbols}):
        names = lang.symbols_of_arity(arity)
        pool = list(itertools.combinations(range(n), arity))
        for vs in rng.sample(pool, round(density * len(pool))):
            rels.setdefault(rng.choice(names), []).append(vs)
    return structures.make_structure(lang, n, rels, hypergraph=True)


def pattern_json(lang, size: int, rel: dict) -> dict:
    """A hypergraph pattern from ``{index tuple: (arity, colour)}``, in a
    tree language (symbol ``r<arity>c<colour>``)."""
    rels: dict[str, list] = {}
    for t, (arity, colour) in rel.items():
        rels.setdefault(f"r{arity}c{colour}", []).append(t)
    return bio.structure_to_json(structures.make_structure(lang, size, rels, hypergraph=True))


def language_sig(sj: dict) -> tuple[tuple[int, ...], int]:
    """Signature of a structure's language, recomputed from its symbols."""
    ars = [s["arity"] for s in sj["language"]["symbols"]]
    mu = max((a for a in ars if a >= 2), default=0)
    return tuple(ars.count(i + 1) + 2 for i in range(1, mu)), 1


# --- checks -------------------------------------------------------------------


def _parse(out: str):
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


def check_infeasible(estimate: int, cap: int):
    def check(out: str, err: str, result=None) -> str | None:
        if out:
            return "infeasible task wrote to stdout"
        try:
            msg = json.loads(err)
        except ValueError:
            return f"diagnostic is not JSON: {err[:80]!r}"
        want = {"error": "infeasible", "cap": cap, "estimate": estimate}
        if any(msg.get(k) != v for k, v in want.items()):
            return f"diagnostic {msg} does not carry {want}"
        return None
    return check


def check_envelope(sj: dict, k: int, subset: tuple[int, ...]):
    prefix, tail = language_sig(sj)

    def check(out: str, err: str, result=None) -> str | None:
        rep, bad = _parse(out)
        if bad:
            return bad
        if rep["k"] != k or rep["subset"] != list(subset):
            return "k or subset differ from the request"
        if rep["contained"] is not True:
            return "image nodes not contained in the envelope"
        failed = sorted(name for name, ok in rep["invariants"].items() if ok is not True)
        if failed:
            return f"trace invariants fail: {failed}"
        if rep["height_bound"] != oracles.envelope_height_bound(k):
            return "height bound differs from the closed form"
        if not rep["height"] <= rep["height_bound"]:
            return f"height {rep['height']} above bound {rep['height_bound']}"
        if len(rep["levels"]) != rep["height"] or len(rep["trace"]) != rep["height"]:
            return "level set, stage count and height disagree"
        if rep["levels"] != sorted(set(rep["levels"])):
            return "envelope levels not strictly increasing"
        want_nodes = oracles.prefix_count(prefix, tail, rep["height"])
        if rep["tree_nodes"] is not None and rep["tree_nodes"] != want_nodes:
            return f"tree has {rep['tree_nodes']} nodes, want {want_nodes}"
        if (rep["tree_nodes"] is None) != (want_nodes > 20_000):
            return "tree materialised on the wrong side of the cap"
        return None
    return check


def check_level(prefix, tail, n: int):
    def check(out: str, err: str, result=None) -> str | None:
        rep, bad = _parse(out)
        if bad:
            return bad
        got = [(f["level"], tuple((tuple(e["tuple"]), e["v"]) for e in f["values"]))
               for f in rep["nodes"]]
        if rep["count"] != len(got) or got != list(oracles.level(prefix, tail, n)):
            return f"level {n} nodes differ from the brute-force level"
        return None
    return check


def check_val(sig, prefix, tail, height: int, witness, seed: int):
    def check(out: str, err: str, result=None) -> str | None:
        rep, bad = _parse(out)
        if bad:
            return bad
        tiers = rep["nodes"]
        if rep["height"] != height or len(tiers) != height:
            return "tree height differs from the request"
        if rep["levels"] != list(witness.levels[:height]):
            return "tree levels differ from the witness levels"
        if rep["node_count"] != sum(len(t) for t in tiers):
            return "node_count differs from the listed nodes"
        want = oracles.prefix_count(prefix, tail, height)
        if rep["node_count"] != want:
            return f"valuation tree has {rep['node_count']} nodes, want {want}"
        flat = [(j, f) for j, tier in enumerate(tiers) for f in tier]
        if any(f["level"] != rep["levels"][j] for j, f in flat):
            return "node listed at a wrong level"
        rng = random.Random(seed)
        sample = flat if len(flat) <= CHECK_SAMPLE else rng.sample(flat, CHECK_SAMPLE)
        for _, f in sample:
            if not trees.val_contains(witness, bio.valuation_from_json(f, sig, 0), 0, height):
                return f"tree node {f} fails val_contains"
        return None
    return check


def render_mapping(emb) -> str:
    return canonical(sorted([[u.level, u.values], [v.level, v.values]]
                            for u, v in emb.items()))


def check_structural(tree, prefix, tail, seed: int):
    def check(out: str, err: str, result=None) -> str | None:
        levels = list(tree.levels)
        tree_nodes = {(f.level, f.values) for tier in tree.nodes_by_level for f in tier}
        domain = set(oracles.full_prefix(prefix, tail, tree.height))
        pairs = json.loads(out)
        mapping = [((u[0], tuple((tuple(t), v) for t, v in u[1])),
                    (w[0], tuple((tuple(t), v) for t, v in w[1]))) for u, w in pairs]
        if {u for u, _ in mapping} != domain:
            return "embedding domain is not the full tree prefix"
        if {w for _, w in mapping} != tree_nodes or len(mapping) != len(tree_nodes):
            return "embedding is not a bijection onto the tree"
        image = dict(mapping)
        for (lvl, vals), (ilvl, ivals) in mapping:
            if ilvl != levels[lvl]:
                return "embedding does not keep relative heights"
            if lvl:
                parent = (lvl - 1, tuple(e for e in vals if e[0][0] < lvl - 1))
                plvl, pvals = image[parent]
                if tuple(e for e in ivals if e[0][0] < plvl) != pvals:
                    return "embedding does not keep the parent order"
        limit = None if tree.height <= 4 else 4000
        bad = oracles.structural_violations(mapping, limit, random.Random(seed))
        if bad:
            return f"structural identity fails on {bad} tuples"
        return None
    return check


def check_expected(expected: str):
    def check(out: str, err: str, result=None) -> str | None:
        return None if out == expected else "result differs from the oracle"
    return check


def check_degree(sig_prefix, height: int, size: int, colours: dict):
    def check(out: str, err: str, result=None) -> str | None:
        rep, bad = _parse(out)
        if bad:
            return bad
        if rep["height"] != height:
            return "height echoed wrongly"
        want = oracles.pattern_count(sig_prefix, 1, height, size, colours)
        if rep["count"] != want:
            return f"copy count {rep['count']}, brute pair count {want}"
        return None
    return check


def check_embed(a: dict, b: dict):
    def check(out: str, err: str, result=None) -> str | None:
        rep, bad = _parse(out)
        if bad:
            return bad
        want = [list(e) for e in oracles.embeddings(a, b)]
        if rep["embeddings"] != want or rep["count"] != len(want):
            return f"{rep['count']} embeddings, brute force finds {len(want)}"
        return None
    return check


def check_strip(m: dict, family: list[dict]):
    def check(out: str, err: str, result=None) -> str | None:
        rep, bad = _parse(out)
        if bad:
            return bad
        if rep["size"] != m["size"]:
            return "stripping changed the vertex count"
        if oracles.relation_map(rep) != oracles.strip(m, family):
            return "stripped relations differ from the brute-force strip"
        return None
    return check


def check_copy_types(m: dict, family: list[dict], a: dict):
    def check(out: str, err: str, result=None) -> str | None:
        got = [(size, tuple(sorted((tuple(t), name) for name, ts in rels for t in ts)))
               for size, rels in json.loads(out)]
        want = [(size, tuple(sorted((t, name) for t, name in rel)))
                for size, rel in oracles.copy_types(m, family, a)]
        return None if got == want else "copy types differ from the brute-force types"
    return check


def check_prefix(n: int, family: list[dict], lang_json: dict):
    def check(out: str, err: str, result=None) -> str | None:
        rep = json.loads(out)
        sj = {"size": rep["size"], "language": lang_json, "relations": rep["relations"]}
        if rep["size"] != n:
            return f"prefix has {rep['size']} vertices, want {n}"
        if not oracles.forbidden_free(sj, family):
            return "grown prefix contains a forbidden member"
        return None
    return check


def check_tree_like(status: str, checked: int | None):
    def check(out: str, err: str, result=None) -> str | None:
        rep, bad = _parse(out)
        if bad:
            return bad
        if rep["status"] != status:
            return f"status {rep['status']}, want {status}"
        if checked is not None and rep["checked"] != checked:
            return f"checked {rep['checked']} triples, want {checked}"
        return None
    return check


def identity_checked(size: int, bound: int) -> int:
    """Triples the tree-likeness check visits on an identity map that never
    fails: every subset of the window, later vertex and pivot."""
    window = range(min(size, bound))
    return sum((min(bound, size) - 1 - max(xs)) * len(xs)
               for r in range(1, len(window) + 1)
               for xs in itertools.combinations(window, r))


def check_inf(colours: int):
    def check(out: str, err: str, result=None) -> str | None:
        rep, bad = _parse(out)
        if bad:
            return bad
        copies = rep["copies"]
        if sorted(copies, key=int) != [str(p) for p in range(colours + 1)]:
            return "a colour has no witness copy"
        triples = {tuple(c) for c in copies.values()}
        if len(triples) != len(copies):
            return "two colours share a witness copy"
        for c in triples:
            if len(c) != 3 or list(c) != sorted(set(c)) or c[-1] >= rep["prefix_size"]:
                return f"copy {c} is not an increasing triple inside the prefix"
        return None
    return check


def check_level_nodes(prefix, tail, n: int):
    def check(out: str, err: str, result=None) -> str | None:
        if len(result) != oracles.level_count(prefix, tail, n) or any(
                node != (f.level, f.values)
                for f, node in zip(result, oracles.level(prefix, tail, n))):
            return "level nodes differ from the brute-force level"
        return None
    return check


def check_colour(colour: int, witness: bool = False):
    def check(out: str, err: str, result=None) -> str | None:
        rep, bad = _parse(out)
        if bad:
            return bad
        if rep["colour"] != colour:
            return f"colour {rep['colour']}, want {colour}"
        if witness:
            if oracles.seq_colour(rep["node"]) != colour:
                return "witness node does not have the requested colour"
            node, root = rep["node"], rep["root"]
            if node[:len(root)] != root or len(node) not in rep["levels"]:
                return "witness node is not above the root at a subtree level"
        return None
    return check


# --- the four workload parts --------------------------------------------------


def envelope_cascade(batch: Batch, rng: random.Random) -> None:
    """``brt envelope`` for every k-subset of staged and random prefixes."""
    inputs = [("graph", staged_prefix(GRAPH, 10)),
              ("two-colour", staged_prefix(TWO_COLOUR, 8)),
              ("ternary", staged_prefix(TERNARY, 6))]
    inputs += [(f"dense-graph-{i}", random_hypergraph(GRAPH, 6, rng, 0.6)) for i in range(3)]
    inputs += [(f"dense-two-colour-{i}", random_hypergraph(TWO_COLOUR, 5, rng, 0.7))
               for i in range(3)]
    for label, s in inputs:
        sj = bio.structure_to_json(s)
        path = batch.write(label, sj)
        sigma = ",".join(map(str, language_sig(sj)[0]))
        for k in (2, 3):
            for sub in itertools.combinations(range(s.size), k):
                batch.cli(["envelope", "--k", str(k), "--subset", ",".join(map(str, sub)),
                           "--prefix", path],
                          {"sigma": sigma, "n": s.size, "k": k},
                          check_envelope(sj, k, sub))


SIGMAS = {"3": ((3,), 1), "2,3": ((2, 3), 1), "1,2": ((1, 2), 1)}


def tree_embedding(batch: Batch, rng: random.Random) -> None:
    """Level sweeps, valuation trees, structural embeddings, membership."""
    for sigma, top in (("3", 9), ("2,3", 4), ("1,2", 5)):
        prefix, tail = SIGMAS[sigma]
        for n in range(top + 1):
            batch.cli(["tree", "--sigma", sigma, "--level", str(n)],
                      {"sigma": sigma, "n": n}, check_level(prefix, tail, n))
    for sigma, n in (("3", 14), ("2,3", 5)):
        prefix, tail = SIGMAS[sigma]
        batch.cli(["tree", "--sigma", sigma, "--level", str(n)], {"sigma": sigma, "n": n},
                  check_infeasible(oracles.level_count(prefix, tail, n), 10 ** 6), expect=2)

    graph_sig = valuation.Signature((3,))
    batch.lib("level_nodes", {"sigma": "3", "n": 10}, "sigma=3 n=10",
              lambda: trees.level_nodes(graph_sig, 0, 10),
              lambda nodes: canonical([[f.level, f.values] for f in nodes]),
              check_level_nodes((3,), 1, 10))

    val_sweep = [("3", h, 6) for h in (3, 4, 5, 6, 7)] + [("2,3", h, 4) for h in (3, 4)]
    val_sweep += [("1,2", h, 3) for h in (3, 4, 5)]
    for sigma, h, reps in val_sweep:
        prefix, tail = SIGMAS[sigma]
        sig = valuation.Signature(prefix, tail)
        for _ in range(reps):
            seed = rng.randrange(10 ** 6)
            witness = trees.seeded_witness(sig, h, h, seed)
            batch.cli(["val", "--sigma", sigma, "--height", str(h), "--seed", str(seed)],
                      {"sigma": sigma, "h": h},
                      check_val(sig, prefix, tail, h, witness, seed))
    full = [("3", h) for h in (3, 4, 5, 6, 7, 8)] + [("2,3", 4), ("2,3", 5), ("1,2", 5), ("1,2", 6)]
    for sigma, h in full:
        prefix, tail = SIGMAS[sigma]
        sig = valuation.Signature(prefix, tail)
        witness = trees.full_tree_witness(sig, h, h)
        batch.cli(["val", "--sigma", sigma, "--height", str(h), "--full"],
                  {"sigma": sigma, "h": h, "full": 1},
                  check_val(sig, prefix, tail, h, witness, h))

    semb = [("3", k, 6) for k in (3, 4, 5)] + [("3", 6, 1), ("2,3", 3, 6), ("2,3", 4, 1)]
    for sigma, k, reps in semb:
        prefix, tail = SIGMAS[sigma]
        sig = valuation.Signature(prefix, tail)
        for _ in range(reps):
            seed = rng.randrange(10 ** 6)
            witness = trees.seeded_witness(sig, k, k, seed)
            tree = trees.build_valuation_tree(witness)
            ident = f"sigma={sigma} k={k} witness={seed}"
            batch.lib("structural_embedding", {"sigma": sigma, "k": k}, ident,
                      _bind(trees, "structural_embedding", tree), render_mapping,
                      check_structural(tree, prefix, tail, seed))
            if k <= 5:
                members, expected = membership_probe(sig, tree, rng)
                batch.lib("val_contains", {"sigma": sigma, "k": k}, ident,
                          lambda w=witness, ns=members: [trees.val_contains(w, f) for f in ns],
                          canonical,
                          check_expected(canonical(expected)))


def _bind(module, name: str, *args):
    """A call of ``module.name`` resolved when the task runs, not now."""
    return lambda: getattr(module, name)(*args)


def membership_probe(sig, tree, rng: random.Random):
    """A sample of tree nodes plus perturbed copies of them, with the answers
    the materialised tree gives."""
    members = set(tree.nodes)
    nodes = []
    for tier in tree.nodes_by_level:
        for f in rng.sample(tier, min(len(tier), 8)):
            nodes.append(f)
            slots = [t for l in range(1, f.level + 1) if sig[l] > 1
                     for t in itertools.combinations(range(f.level - 1, -1, -1), l)]
            if slots:
                t = rng.choice(slots)
                vals = f.value_map()
                vals[t] = (vals.get(t, 0) + rng.randrange(1, sig[len(t)])) % sig[len(t)]
                nodes.append(valuation.make_valuation(sig, 0, f.level, vals))
    return nodes, [f in members for f in nodes]


def degree_count(batch: Batch, rng: random.Random) -> None:
    """Copy counts in tree hypergraphs and embeddings into random targets."""
    lang = trees.tree_language(valuation.Signature((3,)))
    patterns = {"point": (1, {}), "edge": (2, {(0, 1): (2, 1)}), "non-edge": (2, {})}
    triples = []
    for edges in itertools.product((0, 1), repeat=3):
        triples.append("tri-" + "".join(map(str, edges)))
        patterns[triples[-1]] = (3, {p: (2, 1) for p, on in zip(((0, 1), (0, 2), (1, 2)), edges)
                                     if on})
    paths = {}
    for name, (size, rel) in patterns.items():
        pj = pattern_json(lang, size, rel)
        paths[name] = (batch.write(f"pattern-{name}", pj), pj)

    degree_sweep = [("point", h) for h in (3, 4, 5)] + [("edge", h) for h in (3, 4, 5)]
    degree_sweep += [("non-edge", h) for h in (3, 4)]
    degree_sweep += [(name, 3) for name in triples]
    degree_sweep += [("tri-110", 4), ("tri-111", 4)]
    for name, h in degree_sweep:
        size, rel = patterns[name]
        check = check_degree((3,), h, size, rel) if h <= 4 else None
        batch.cli(["degree", "--a", paths[name][0], "--height", str(h)],
                  {"sigma": "3", "h": h, "k": size, "pattern": name}, check)
    batch.cli(["degree", "--a", paths["edge"][0], "--height", "7", "--cap", "1000"],
              {"sigma": "3", "h": 7, "k": 2},
              check_infeasible(oracles.prefix_count((3,), 1, 7), 1000), expect=2)

    ternary_lang = trees.tree_language(valuation.Signature((2, 3)))
    ternary = {}
    for name, rel in (("triple", {(0, 1, 2): (3, 1)}), ("free-3", {})):
        pj = pattern_json(ternary_lang, 3, rel)
        ternary[name] = (batch.write(f"pattern-{name}", pj), pj)
        batch.cli(["degree", "--a", ternary[name][0], "--height", "3"],
                  {"sigma": "2,3", "h": 3, "k": 3}, check_degree((2, 3), 3, 3, rel))
    batch.cli(["degree", "--a", ternary["free-3"][0], "--height", "7"],
              {"sigma": "2,3", "h": 7, "k": 3},
              check_infeasible(oracles.prefix_count((2, 3), 1, 7), 10 ** 6), expect=2)
    for n in (12, 16):
        target = bio.structure_to_json(random_hypergraph(ternary_lang, n, rng, 0.3))
        tpath = batch.write(f"ternary-target-{n}", target)
        for path, pj in ternary.values():
            batch.cli(["embed", "--a", path, "--b", tpath], {"sigma": "2,3", "n": n, "k": 3},
                      check_embed(pj, target))

    targets = [(n, 0.5) for n in (10, 12, 14, 16, 18, 20, 22, 26)] + [(18, 0.3), (22, 0.7)]
    for n, density in targets:
        target = bio.structure_to_json(random_hypergraph(lang, n, rng, density))
        tpath = batch.write(f"target-{n}-{density}", target)
        for name, (path, pj) in paths.items():
            if pj["size"] == 3 and n not in (10, 12, 14, 18, 22):
                continue
            batch.cli(["embed", "--a", path, "--b", tpath],
                      {"sigma": "3", "n": n, "k": pj["size"]}, check_embed(pj, target))


def prefix_growth(batch: Batch, rng: random.Random) -> None:
    """Forbidden-family prefix growth, stripping, and the adversarial checks."""
    family = [structures.make_structure(MIXED, 3, {"t": [(0, 1, 2)], "e": [(0, 1)]},
                                        hypergraph=True),
              structures.make_structure(MIXED, 3, {"t": [(0, 1, 2)], "e": [(1, 2)]},
                                        hypergraph=True)]
    family_json = [bio.structure_to_json(f) for f in family]
    lang_json = bio.language_to_json(MIXED)
    for n in (20, 35, 50):
        seed = rng.randrange(10 ** 6)
        batch.lib("generic_extend", {"sigma": "mixed", "n": n}, f"n={n} seed={seed}",
                  lambda n=n, seed=seed: grow_prefix(n, tuple(family), seed), render_prefix,
                  check_prefix(n, family_json, lang_json))

    fpath = batch.write("family", family_json)
    edge = structures.make_structure(MIXED, 2, {"e": [(0, 1)]}, hypergraph=True)
    for i, n in enumerate((18,) * 6 + (22, 26)):
        m = random_hypergraph(MIXED, n, rng, 0.3)
        mj = bio.structure_to_json(m)
        mpath = batch.write(f"mixed-{n}-{i}", mj)
        batch.cli(["reduce", "strip", "--in", mpath, "--forbidden", fpath],
                  {"sigma": "mixed", "n": n}, check_strip(mj, family_json))
        if n <= 22:
            batch.lib("copy_isomorphism_types", {"sigma": "mixed", "n": n},
                      f"m=@{digest(canonical(mj))}",
                      _bind(reductions, "copy_isomorphism_types", m, tuple(family), edge),
                      render_types, check_copy_types(mj, family_json, bio.structure_to_json(edge)))

    for size in (4, 6, 8, 10, 12, 14):
        for bound in sorted({3, 4, 5, 6, 8, size if size != 12 else 10}):
            if bound > size:
                continue
            batch.cli(["adversarial", "tree-like", "--identity", str(size), "--bound", str(bound)],
                      {"n": size, "h": bound},
                      check_tree_like("pass", identity_checked(size, bound)))
    for m in range(2, 7):
        batch.cli(["adversarial", "tree-like", "--radial", str(m), "--bound", str(m + 2)],
                  {"n": m, "h": m + 2, "kind": "radial"}, check_tree_like("fail", None))
    for colours in range(1, 17):
        for size in (2, 3, 4):
            batch.cli(["adversarial", "inf", "--colours", str(colours), "--prefix-size", str(size)],
                      {"n": size, "k": colours}, check_inf(colours))
    for _ in range(16):
        node = [rng.randrange(6) for _ in range(rng.randrange(1, 9))]
        batch.cli(["adversarial", "hl", "--node", ",".join(map(str, node))],
                  {"n": len(node), "kind": "hl"}, check_colour(oracles.seq_colour(node)))
        colour, seed, height = rng.randrange(8), rng.randrange(10 ** 6), rng.randrange(2, 6)
        batch.cli(["adversarial", "hl-witness", "--colour", str(colour), "--seed", str(seed),
                   "--height", str(height)],
                  {"h": height, "kind": "hl-witness"}, check_colour(colour, witness=True))


def grow_prefix(n: int, family, seed: int):
    """Grow a forbidden-family-free prefix one seeded round at a time."""
    prefix = structures.empty_prefix(MIXED, family)
    while prefix.size < n:
        prefix = structures.generic_extend(prefix, 1, seed=seed + len(prefix.log))
    return prefix


def render_prefix(prefix) -> str:
    s = prefix.structure
    return canonical({"size": s.size,
                      "relations": {name: [list(t) for t in ts] for name, ts in s.relations}})


def render_types(types) -> str:
    return canonical([[s.size, [[name, [list(t) for t in ts]] for name, ts in s.relations]]
                      for s in types])


PARTS = {
    "envelope-cascade": envelope_cascade,
    "tree-embedding": tree_embedding,
    "degree-count": degree_count,
    "prefix-growth": prefix_growth,
}

# Two workloads of two parts each: the valuation side (envelopes, trees) and
# the structure side (embedding scans, prefix growth, reductions, adversarial).
# Each part draws from its own seeded generator, so a part's inputs do not
# depend on what it is grouped with.
WORKLOADS = {
    "envelope-tree": ("envelope-cascade", "tree-embedding"),
    "degree-prefix": ("degree-count", "prefix-growth"),
}


def build(workload: str, seed: int, workdir: str) -> Batch:
    """Generate the workload's inputs under ``workdir`` and its task list."""
    batch = Batch(workdir)
    for part in WORKLOADS[workload]:
        PARTS[part](batch, random.Random(f"{part}/{seed}"))
    return batch
