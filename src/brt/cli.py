"""Batch command-line front end.

One invocation, one task: inputs are JSON files or flags, results go to
stdout in canonical JSON (DOT or plain tables on request), diagnostics to
stderr.  Exit codes: 0 success, 1 input error, 2 infeasible under the node
cap (the message carries the cap and the estimate), 3 internal error (an
invariant of the library failed; a bug, not bad input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import adversarial as adv
from . import io as bio
from .envelopes import (
    build_enveloping,
    compute_envelope,
    degree_upper_bound,
    envelope_height_bound,
    trace_invariants,
)
from .errors import ESTIMATE_DIGITS, ESTIMATE_MAX, InfeasibleError, check_natural, check_size
from .reductions import decode_structure, encode_structure, strip_bad, unary_expand
from .structures import ExtensionRequest, GenericPrefix, enumerate_embeddings
from .trees import (
    DEFAULT_CAP,
    build_valuation_tree,
    check_valuation_size,
    full_tree_witness,
    level_nodes,
    paused_gc,
    seeded_witness,
    tree_to_dot,
)
from .valuation import count_level_nodes, signature_from_language


def _cap(flag: int | None) -> int:
    """The node cap: ``--cap``, else ``BRT_CAP``, else the default; positive."""
    cap = flag
    if cap is None:
        raw = os.environ.get("BRT_CAP")
        try:
            cap = DEFAULT_CAP if raw is None else int(raw)
        except ValueError:
            raise ValueError(f"BRT_CAP must be an integer, got {raw!r}") from None
    if cap <= 0:
        raise ValueError("caps must be positive")
    return cap


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _structure(path: str):
    return bio.structure_from_json(_load(path))


def cmd_sig(args) -> str:
    lang = bio.language_from_json(_load(args.lang))
    return bio.dumps_canonical(bio.signature_to_json(signature_from_language(lang)))


def cmd_tree(args) -> str:
    sig = bio.parse_signature(args.sigma)
    if args.count_only:
        count = count_level_nodes(sig, args.shift, args.level)
        if count == ESTIMATE_MAX:
            raise ValueError(f"level {args.level} has at least 10^{ESTIMATE_DIGITS} - 1 nodes, "
                             f"past the {ESTIMATE_DIGITS}-digit limit of exact counts")
        return bio.dumps_canonical({"count": count})
    nodes = level_nodes(sig, args.shift, args.level, args.cap)
    if args.output == "table":
        lines = ["\n"] * (2 * len(nodes))
        lines[::2] = bio.nodes_json(nodes)
        return "".join(lines)
    return bio.dumps_with_nodes({"count": len(nodes), "nodes": nodes})


def cmd_val(args) -> str:
    if args.witness is not None:
        witness = bio.witness_from_json(_load(args.witness))
    else:
        if args.sigma is None or args.height is None:
            raise ValueError("val needs --witness or both --sigma and --height")
        sig = bio.parse_signature(args.sigma)
        levels = None if args.levels is None else bio.parse_ints(args.levels, "--levels")
        if levels == ():
            raise ValueError("--levels needs at least one level")
        # The tree spans all --height coordinates: refuse before building
        # them.  build_valuation_tree checks again, as it does for every
        # caller; the estimate takes microseconds.
        check_valuation_size(sig, args.height, args.cap)
        if levels is not None and len(levels) > args.height:
            raise ValueError(f"--levels has {len(levels)} levels, more than --height {args.height}")
        if args.full:
            witness = full_tree_witness(sig, args.height, args.height)
        else:
            witness = seeded_witness(sig, args.height, args.height, args.seed, levels)
    tree = build_valuation_tree(witness, cap=args.cap)
    if args.dot:
        return tree_to_dot(tree)
    return bio.dumps_with_nodes({"levels": list(tree.levels),
                                 "height": tree.height,
                                 "node_count": len(tree.nodes),
                                 "nodes": tree.nodes_by_level})


def cmd_embed(args) -> str:
    a, b = _structure(args.a), _structure(args.b)
    maps = enumerate_embeddings(a, b)
    if args.output == "table":
        return "".join(",".join(map(str, m)) + "\n" for m in maps)
    return bio.dumps_canonical({"count": len(maps), "embeddings": [list(m) for m in maps]})


def cmd_envelope(args) -> str:
    structure = _structure(args.prefix)
    subset = bio.parse_ints(args.subset, "--subset")
    emb = build_enveloping(structure, args.k)
    env = compute_envelope(emb, subset)
    report = {
        "k": env.k,
        "subset": list(env.subset),
        "levels": list(env.levels),
        "height": env.height,
        "height_bound": envelope_height_bound(env.k),
        "contained": env.contained,
        "invariants": trace_invariants(env, emb),
        "trace": [{"stage": st.index,
                   "levels": list(st.levels()),
                   "slices": st.slices,
                   "padded": st.padded,
                   "meets": st.meets,
                   "aligned": st.aligned}
                  for st in env.stages],
        "tree_nodes": env.tree_nodes,
    }
    if args.dot and env.tree is not None:
        return tree_to_dot(env.tree, "envelope")
    return bio.dumps_with_nodes(report)


def cmd_degree(args) -> str:
    a = _structure(args.a)
    sig = (signature_from_language(a.language) if args.sigma is None
           else bio.parse_signature(args.sigma))
    count = degree_upper_bound(a, args.height, sig, cap=args.cap)
    if args.output == "table":
        return f"{count}\n"
    return bio.dumps_canonical({"count": count, "height": args.height})


def cmd_encode(args) -> str:
    out = encode_structure(_structure(args.infile))
    return bio.dumps_canonical(bio.structure_to_json(out))


def cmd_decode(args) -> str:
    if args.language is None:
        raise ValueError("decode needs --language")
    lang = bio.language_from_json(_load(args.language))
    out = decode_structure(_structure(args.infile), lang)
    return bio.dumps_canonical(bio.structure_to_json(out))


def cmd_unaries(args) -> str:
    if args.countable == (args.count is not None):
        raise ValueError("unaries needs exactly one of --count and --countable")
    base = _structure(args.infile)
    u = None if args.countable else args.count
    product = unary_expand(base, u, size_cap=args.cap)
    return bio.dumps_canonical({"pairs": [list(p) for p in product.pairs],
                                "structure": bio.structure_to_json(product.structure)})


def cmd_strip(args) -> str:
    if args.forbidden is None:
        raise ValueError("strip needs --forbidden")
    m = _structure(args.infile)
    family = tuple(bio.structure_from_json(o)
                   for o in bio._typed(_load(args.forbidden), list, "a forbidden family"))
    return bio.dumps_canonical(bio.structure_to_json(strip_bad(m, family)))


def cmd_hl(args) -> str:
    node = bio.parse_ints(args.node, "--node")
    if any(v < 0 for v in node):
        raise ValueError(f"--node entries must be natural numbers, got {args.node.strip()}")
    return bio.dumps_canonical({"colour": adv.seq_colour(node)})


def cmd_hl_witness(args) -> str:
    subtree = adv.random_omega_subtree(args.seed, height=args.height)
    node = adv.seq_colour_witness(subtree, args.colour)
    return bio.dumps_canonical({"root": list(subtree.root),
                                "levels": list(subtree.levels),
                                "node": list(node),
                                "colour": adv.seq_colour(node)})


def cmd_inf(args) -> str:
    check_size(args.prefix_size, args.cap, "adversarial inf prefix")
    ctx = adv.PersistentColouringContext.fresh().grown(
        adv.GrowPrefix((ExtensionRequest((), ()),) * args.prefix_size))
    copies = {}
    for p in range(args.colours + 1):
        while True:
            res = adv.triple_witness(ctx, p)
            if isinstance(res, adv.GrowPrefix):
                check_size(ctx.size + len(res.requests), args.cap, "adversarial inf prefix")
                ctx = ctx.grown(res)
                continue
            copies[str(p)] = list(res)
            break
    return bio.dumps_canonical({"prefix_size": ctx.size, "copies": copies})


def cmd_tree_like(args) -> str:
    if args.identity is not None or args.radial is not None:
        # Refuse a prefix past the cap before building its requests.
        size = args.identity if args.identity is not None else 2 * args.radial + 1
        check_size(size, args.cap, "adversarial tree-like prefix")
        if args.identity is not None:
            grow = adv.GrowPrefix((ExtensionRequest((), ()),) * args.identity)
            fmap = {v: v for v in range(args.identity)}
        else:
            grow, fmap = radial_example(args.radial)
        prefix = adv.PersistentColouringContext.fresh().grown(grow).prefix
    else:
        if args.map is None:
            raise ValueError("tree-like needs --identity, --radial or --map")
        structure, fmap = bio.map_from_json(_load(args.map))
        prefix = GenericPrefix(structure)
    verdict = adv.is_tree_like(prefix, fmap, args.bound)
    return bio.dumps_canonical({
        "status": verdict.status,
        "witness": list(map(list, verdict.witness[:1])) + list(verdict.witness[1:])
        if verdict.witness else None,
        "checked": verdict.checked})


def radial_example(m: int):
    """Embedding data hostile to tree-likeness, as a prefix growth of
    ``2m + 1`` vertices and a map: ``m + 1`` plain vertices, then the i-th
    image vertex joined to vertex 0 by the i-th binary colour, so types over
    the initial segment pin images down completely."""
    radial = tuple(ExtensionRequest.of((0,), {(0,): i}) for i in range(1, m + 1))
    grow = adv.GrowPrefix((ExtensionRequest((), ()),) * (m + 1) + radial)
    return grow, {i: m + i for i in range(1, m + 1)}


class _Parser(argparse.ArgumentParser):
    # A leaf's modes: the option that selects each mode, and the options the
    # mode does not read; an option is given when set away from its default.
    modes: dict[str, tuple[str, ...]] = {}

    def parse_known_args(self, args=None, namespace=None):
        # A leaf command reports the arguments it does not read, so that the
        # usage line printed is its own, not the top-level one.
        namespace, extras = super().parse_known_args(args, namespace)
        if self.get_default("func") is not None:
            if extras:
                self.error(f"unrecognized arguments: {' '.join(extras)}")
            for mode, unread in self.modes.items():
                if getattr(namespace, mode) != self.get_default(mode):
                    for dest in unread:
                        if getattr(namespace, dest) != self.get_default(dest):
                            self.error(f"{_flag(mode)} does not read {_flag(dest)}")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    """The ``brt`` parser: each leaf command declares the options it reads
    and sets its command function as ``func``."""
    p = _Parser(prog="brt", description="big-Ramsey-degree machinery, desk scale")
    sub = p.add_subparsers(dest="command", required=True)

    # Exact option names only: a prefix would let an option the command does
    # not read stand for one it does (``inf --colour`` for ``--colours``).
    # ``naturals``: the integer options that main checks are not negative.
    def leaf(parent, name, func, help, cap=False, seed=False, table=False, dot=False,
             naturals=()):
        s = parent.add_parser(name, help=help, allow_abbrev=False)
        if cap:
            s.add_argument("--cap", type=int, default=None, help="node-count cap")
        if seed:
            # None tells a given --seed 0 from none to the mode check; main
            # then reads it as 0.
            s.add_argument("--seed", type=int, default=None, help="deterministic seed")
        if table:
            s.add_argument("--output", choices=["json", "table"], default="json")
        if dot:
            s.add_argument("--dot", action="store_true", help="print the tree in DOT")
        s.set_defaults(func=func, naturals=naturals)
        return s

    s = leaf(sub, "sig", cmd_sig, "signature of a language")
    s.add_argument("--lang", required=True)

    s = leaf(sub, "tree", cmd_tree, "nodes of one tree level", cap=True, table=True)
    s.modes = {"count_only": ("cap", "output")}
    s.add_argument("--sigma", required=True)
    s.add_argument("--shift", type=int, default=0)
    s.add_argument("--level", type=int, required=True)
    s.add_argument("--count-only", action="store_true")

    s = leaf(sub, "val", cmd_val, "valuation tree of a witness", cap=True, seed=True, dot=True)
    s.modes = {"witness": ("sigma", "height", "seed", "full", "levels"),
               "full": ("seed", "levels")}
    s.add_argument("--sigma")
    s.add_argument("--height", type=int)
    s.add_argument("--levels", default=None)
    s.add_argument("--full", action="store_true")
    s.add_argument("--witness", default=None)

    s = leaf(sub, "embed", cmd_embed, "enumerate embeddings A -> B", table=True)
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)

    s = leaf(sub, "envelope", cmd_envelope, "envelope of an image subset", dot=True)
    s.add_argument("--prefix", required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--subset", required=True)

    s = leaf(sub, "degree", cmd_degree, "copy-count bound at a height", cap=True, table=True)
    s.add_argument("--a", required=True)
    s.add_argument("--height", type=int, required=True)
    s.add_argument("--sigma", default=None)

    reduce = sub.add_parser("reduce", help="class reductions").add_subparsers(
        dest="action", required=True)
    s = leaf(reduce, "encode", cmd_encode, "hypergraph encoding of a structure")
    s.add_argument("--in", dest="infile", required=True)
    s = leaf(reduce, "decode", cmd_decode, "structure of an encoded hypergraph")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--language", default=None)
    s = leaf(reduce, "unaries", cmd_unaries, "product with unary colours", cap=True,
             naturals=("count",))
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--count", type=int, default=None)
    s.add_argument("--countable", action="store_true")
    s = leaf(reduce, "strip", cmd_strip, "drop the tuples over forbidden members")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--forbidden", default=None)

    adversarial = sub.add_parser("adversarial", help="adversarial colourings").add_subparsers(
        dest="action", required=True)
    s = leaf(adversarial, "hl", cmd_hl, "colour of a node")
    s.add_argument("--node", default="")
    s = leaf(adversarial, "hl-witness", cmd_hl_witness,
             "a node of a given colour in a random subtree", seed=True,
             naturals=("colour", "height"))
    s.add_argument("--colour", type=int, default=0)
    s.add_argument("--height", type=int, default=4)
    s = leaf(adversarial, "inf", cmd_inf, "persistent triples of each colour", cap=True,
             naturals=("prefix_size", "colours"))
    s.add_argument("--prefix-size", type=int, default=2)
    s.add_argument("--colours", type=int, default=5)
    s = leaf(adversarial, "tree-like", cmd_tree_like, "tree-likeness of embedding data",
             cap=True, naturals=("bound", "identity", "radial"))
    s.modes = {"identity": ("radial", "map"), "radial": ("map",)}
    s.add_argument("--bound", type=int, default=3)
    s.add_argument("--identity", type=int, default=None)
    s.add_argument("--radial", type=int, default=None)
    s.add_argument("--map", default=None)
    return p


PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if "cap" in vars(args):
            args.cap = _cap(args.cap)
        if "seed" in vars(args) and args.seed is None:
            args.seed = 0
        for dest in args.naturals:
            if getattr(args, dest) is not None:
                check_natural(getattr(args, dest), _flag(dest))
        with paused_gc():
            out = args.func(args)
        # A full disk or a closed pipe fails here, as an OSError.
        sys.stdout.write(out)
        sys.stdout.flush()
    except InfeasibleError as exc:
        sys.stderr.write(bio.dumps_canonical(
            {"error": "infeasible", "what": exc.what,
             "cap": exc.cap, "estimate": exc.estimate}))
        return 2
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"brt: error: {exc}\n")
        return 1
    except (RuntimeError, AssertionError) as exc:
        sys.stderr.write(f"brt: internal error: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
